#include "core/accelerator.h"

#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace rebooting::core {

std::string to_string(AcceleratorKind kind) {
  switch (kind) {
    case AcceleratorKind::kClassicalCpu: return "classical-cpu";
    case AcceleratorKind::kQuantum: return "quantum";
    case AcceleratorKind::kOscillator: return "oscillator";
    case AcceleratorKind::kMemcomputing: return "memcomputing";
  }
  return "unknown";
}

namespace {

/// Root span name of a host job of `kind`, built once per kind so a job
/// assembles no string even with telemetry off.
const std::string& host_span_name(AcceleratorKind kind) {
  static const std::string names[] = {
      "host." + to_string(AcceleratorKind::kClassicalCpu),
      "host." + to_string(AcceleratorKind::kQuantum),
      "host." + to_string(AcceleratorKind::kOscillator),
      "host." + to_string(AcceleratorKind::kMemcomputing)};
  return names[static_cast<std::size_t>(kind)];
}

}  // namespace

std::optional<AcceleratorKind> kind_from_string(const std::string& name) {
  for (const auto kind :
       {AcceleratorKind::kClassicalCpu, AcceleratorKind::kQuantum,
        AcceleratorKind::kOscillator, AcceleratorKind::kMemcomputing})
    if (to_string(kind) == name) return kind;
  return std::nullopt;
}

std::string to_string(JobDisposition disposition) {
  switch (disposition) {
    case JobDisposition::kExecuted: return "executed";
    case JobDisposition::kRejected: return "rejected";
    case JobDisposition::kShed: return "shed";
    case JobDisposition::kFlushed: return "flushed";
    case JobDisposition::kDeadlineMissed: return "deadline-missed";
    case JobDisposition::kCancelled: return "cancelled";
  }
  return "unknown";
}

AcceleratorFactory CpuAccelerator::factory() {
  return [] { return std::make_shared<CpuAccelerator>(); };
}

void HostSystem::register_accelerator(std::shared_ptr<Accelerator> accel) {
  if (!accel) throw std::invalid_argument("register_accelerator: null");
  const auto kind = accel->kind();
  const auto it = accelerators_.find(kind);
  if (it != accelerators_.end())
    throw std::invalid_argument(
        "register_accelerator: duplicate kind '" + to_string(kind) +
        "' — already registered by accelerator '" + it->second->name() +
        "' (HostSystem holds one per kind; use sched::Scheduler pools for "
        "replicas)");
  accelerators_.emplace(kind, std::move(accel));
}

bool HostSystem::has(AcceleratorKind kind) const {
  return accelerators_.contains(kind);
}

Accelerator& HostSystem::accelerator(AcceleratorKind kind) {
  return *accelerators_.at(kind);
}

JobResult HostSystem::submit(const Job& job) {
  auto& accel = *accelerators_.at(job.kind);
  if (!job.payload) throw std::invalid_argument("submit: job has no payload");

  JobResult result;
  const auto start = std::chrono::steady_clock::now();
  {
    // Root span per job: engine spans opened inside the payload nest under it.
    TELEM_SPAN(host_span_name(job.kind));
    result = job.payload();
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<Real>(end - start).count();

  accel.record_completion(result.wall_seconds);
  if (telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("host.jobs");
    if (!result.ok) metrics.add("host.jobs_failed");
    metrics.record("host.job_wall_seconds", result.wall_seconds);
    for (const auto& [key, value] : result.metrics) metrics.add(key, value);
  }
  log_.push_back(JobRecord{job.name, accel.name(), job.kind, result});
  return result;
}

Real HostSystem::total_metric(const std::string& key) const {
  Real sum = 0.0;
  for (const auto& rec : log_) {
    const auto it = rec.result.metrics.find(key);
    if (it != rec.result.metrics.end()) sum += it->second;
  }
  return sum;
}

std::string HostSystem::describe() const {
  std::ostringstream os;
  os << "HostSystem with " << accelerators_.size() << " accelerator(s):\n";
  for (const auto& [kind, accel] : accelerators_) {
    os << "  [" << to_string(kind) << "] " << accel->name() << " — "
       << accel->jobs_completed() << " job(s), "
       << accel->busy_seconds() << " s busy\n";
    const auto layers = accel->stack_layers();
    for (std::size_t i = 0; i < layers.size(); ++i)
      os << "      L" << (layers.size() - i) << ": " << layers[i] << '\n';
  }
  if (telemetry::Telemetry::enabled()) {
    os << "\nTelemetry rollup (per-layer cost of the jobs above):\n"
       << telemetry::Telemetry::instance().report();
  }
  return os.str();
}

}  // namespace rebooting::core
