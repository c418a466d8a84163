// Shared pieces of the workbench benchmark: arguments, latency statistics,
// the in-memory span recorder used by traced runs, and the report every
// workload fills in. Nothing here reaches into the program under test; the
// workloads only time calls into its public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Json = rebooting::core::JsonValue;

double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".perfbench_results";
};

/// Latency samples in seconds.
class Samples {
 public:
  void add(double seconds) { values_.push_back(seconds); }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// The highest percentile that still has at least ten samples beyond it
  /// (nearest rank), as {value, percentile}. With fewer than 11 samples the
  /// maximum is returned and the percentile is 100.
  struct Tail {
    double value = 0.0;
    double percentile = 100.0;
  };
  Tail tail() const;

 private:
  std::vector<double> sorted() const;
  std::vector<double> values_;
};

// --- Span recording (traced runs only) ------------------------------------
//
// Each span has a name whose first dot-separated component names the layer,
// a start and end on the steady clock, the span that caused it, and the
// request it belongs to. Spans are kept in per-thread buffers and collected
// once every recording thread has finished.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
};

bool tracing();
void set_tracing(bool on);
std::int64_t now_ns();

/// Id for the root span of request `request` when its children are
/// recorded on other threads than the root.
std::uint64_t request_span_id(std::uint64_t request);

/// Records a finished span explicitly (cross-thread parents). No-op unless
/// tracing.
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t id, std::uint64_t parent,
                 std::uint64_t request);

/// Opens a span on this thread; its parent is the innermost open span of
/// the thread unless `parent` is given. No-op unless tracing.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t request = 0,
                     std::uint64_t parent = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Every span recorded so far, across threads. Call after joining the
/// recording threads.
std::vector<Span> collect_spans();

/// Per-layer self time: each span's duration minus the part of it covered
/// by its children, summed per layer (the name before the first dot).
Json self_times_by_layer(const std::vector<Span>& spans);
/// Writes spans as JSON lines; false on an I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

// --- Report ----------------------------------------------------------------

/// Operations of one phase of a workload. Refused, error, wrong-result and
/// unsolved operations all count as failed and as missing any latency limit.
struct Phase {
  std::string name;
  bool counted = true;  ///< part of the run's attempted/failed totals
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t refused = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t unsolved = 0;
  std::string note;  ///< what else the phase measured, for the record
  std::uint64_t failed() const { return refused + errors + wrong + unsolved; }
};

struct Report {
  std::vector<Phase> phases;
  std::vector<std::string> check_failures;
  std::uint64_t checks = 0;
  Json::Members e2e;        ///< end-to-end metrics (untraced run)
  Json::Members info;       ///< how the metrics were taken
  Json::Members layer;      ///< per-layer metrics (traced run)
  Json::Members counts;     ///< counts that repeat exactly per seed

  /// Records one output check; a false `ok` keeps `what` (first 20 kept).
  void check(bool ok, const std::string& what);
  /// Sets metric `name` in `where`, replacing an earlier value.
  void set(Json::Members& where, const std::string& name, double value);
};

/// One closed loop: each operation starts when the previous one returns.
struct Loop {
  Samples latency;
  std::size_t completed = 0;
  double busy = 0.0;  ///< sum of operation times
};

/// Calls prepare(i) untimed, op(i) timed, then finish(i) untimed (output
/// checks), for i = first, first + 1, ... until `seconds` of wall time have
/// passed.
template <typename Prepare, typename Op, typename Finish>
Loop closed_loop(double seconds, std::size_t first, Prepare&& prepare,
                 Op&& op, Finish&& finish) {
  Loop loop;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const std::size_t i = first + loop.completed;
    prepare(i);
    const auto t0 = Clock::now();
    op(i);
    const double dt = seconds_since(t0);
    loop.latency.add(dt);
    loop.busy += dt;
    ++loop.completed;
    finish(i);
  }
  return loop;
}

/// Fills ops_per_s / op_p50_ms / op_tail_ms from a closed loop and notes the
/// tail percentile and sample count in report.info.
void report_closed_loop(Report& report, const Loop& loop);

/// Runs `setup` `reps` times and returns the median duration in seconds.
double median_setup(int reps, const std::function<void()>& setup);

double peak_rss_mb();

/// Tracing overhead: traced median over untraced median, minus one, in
/// percent.
double overhead_pct(const Samples& untraced, const Samples& traced);

/// Median of `values` (0 when empty).
double median_of(std::vector<double> values);

// Workloads. Each fills `report`; an exception means the workload could not
// run at all.
void run_quantum_circuits(const Args& args, Report& report);
void run_dmm_sat(const Args& args, Report& report);
void run_oscillator_networks(const Args& args, Report& report);
void run_service_mix(const Args& args, Report& report);

}  // namespace perfbench
