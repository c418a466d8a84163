#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<double> Samples::sorted() const {
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  return v;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  const std::vector<double> v = sorted();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Samples::Tail Samples::tail() const {
  Tail t;
  if (values_.empty()) return t;
  const std::vector<double> v = sorted();
  if (v.size() <= 10) {
    t.value = v.back();
    return t;
  }
  // Nearest rank k leaves v.size() - k samples beyond it.
  const std::size_t k = v.size() - 10;
  t.value = v[k - 1];
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(v.size());
  return t;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Spans -----------------------------------------------------------------

namespace {

struct ThreadBuffer {
  std::uint64_t slot = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded
std::atomic<bool> g_tracing{false};
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (!t_buffer) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->slot = g_buffers.size();
  }
  return *t_buffer;
}

constexpr std::uint64_t kRequestRootBit = 1ull << 63;

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t request_span_id(std::uint64_t request) {
  return kRequestRootBit | request;
}

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t id, std::uint64_t parent,
                 std::uint64_t request) {
  if (!tracing()) return;
  ThreadBuffer& b = buffer();
  if (id == 0) id = (b.slot << 40) | (b.spans.size() + 1);
  b.spans.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

SpanScope::SpanScope(const char* name, std::uint64_t request,
                     std::uint64_t parent) {
  if (!tracing()) return;
  ThreadBuffer& b = buffer();
  index_ = static_cast<std::int64_t>(b.spans.size());
  const std::uint64_t id = (b.slot << 40) | (b.spans.size() + 1);
  if (parent == 0 && !b.open.empty()) parent = b.open.back();
  b.spans.push_back(Span{name, now_ns(), 0, id, parent, request});
  b.open.push_back(id);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ThreadBuffer& b = buffer();
  b.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  b.open.pop_back();
}

std::vector<Span> collect_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

Json self_times_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> by_name;
  std::map<std::string, double> by_layer;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(s.id); it != children.end())
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const double total = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    const double self = total - 1e-9 * static_cast<double>(covered);
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_s += total;
    t.self_s += self;
    const std::string name = s.name;
    by_layer[name.substr(0, name.find('.'))] += self;
  }

  Json::Members layers;
  for (const auto& [layer, self] : by_layer)
    layers.emplace_back(layer, Json::make_number(self));
  Json::Members names;
  for (const auto& [name, t] : by_name)
    names.emplace_back(
        name, Json::make_object(
                  {{"count", Json::make_number(static_cast<double>(t.count))},
                   {"total_s", Json::make_number(t.total_s)},
                   {"self_s", Json::make_number(t.self_s)}}));
  return Json::make_object({{"self_s_by_layer", Json::make_object(layers)},
                            {"by_span", Json::make_object(names)}});
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans)
    out << "{\"name\":" << rebooting::core::json_quote(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

// --- Report ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  if (check_failures.size() < 20)
    check_failures.push_back(what);
  else if (check_failures.size() == 20)
    check_failures.push_back("... further check failures not listed");
}

void Report::set(Json::Members& where, const std::string& name,
                 double value) {
  for (auto& [key, v] : where)
    if (key == name) {
      v = Json::make_number(value);
      return;
    }
  where.emplace_back(name, Json::make_number(value));
}

void report_closed_loop(Report& report, const Loop& loop) {
  const Samples::Tail tail = loop.latency.tail();
  report.set(report.e2e, "ops_per_s",
             static_cast<double>(loop.completed) / loop.busy);
  report.set(report.e2e, "op_p50_ms", 1e3 * loop.latency.median());
  report.set(report.e2e, "op_tail_ms", 1e3 * tail.value);
  report.set(report.info, "op_tail_percentile", tail.percentile);
  report.set(report.info, "op_samples", static_cast<double>(loop.completed));
}

double median_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median_of(times);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double overhead_pct(const Samples& untraced, const Samples& traced) {
  const double base = untraced.median();
  return base > 0.0 ? 100.0 * (traced.median() / base - 1.0) : 0.0;
}

}  // namespace perfbench
