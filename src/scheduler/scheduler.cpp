#include "scheduler/scheduler.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/random.h"
#include "telemetry/telemetry.h"

namespace rebooting::sched {

namespace {

core::Real seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<core::Real>(b - a).count();
}

std::string attempt_prefix(std::uint64_t attempt) {
  return "attempt " + std::to_string(attempt) + ": ";
}

/// The completion behind the future-returning overloads.
JobCompletion promise_completion(std::future<core::JobResult>* future) {
  auto promise = std::make_shared<std::promise<core::JobResult>>();
  *future = promise->get_future();
  return [promise](JobOutcome&& outcome) {
    if (outcome.thrown)
      promise->set_exception(std::move(outcome.thrown));
    else
      promise->set_value(std::move(outcome.result));
  };
}

/// The submitter's own pre-execution gates, applied to a job settled without
/// running on its behalf (memo hit, single-flight rider): a cancelled or
/// expired submit must not look like it ran. Nullopt = deliver as is.
std::optional<core::JobResult> gate_unrun(const std::string& name,
                                          const JobOptions& opts) {
  core::JobResult result;
  if (opts.cancel && opts.cancel->cancelled()) {
    result.disposition = core::JobDisposition::kCancelled;
    result.summary = "sched: job '" + name + "' cancelled before execution";
    telemetry::count("sched.cancelled");
    TELEM_TRACE_INSTANT("sched.cancelled");
    return result;
  }
  if (opts.deadline && Clock::now() >= *opts.deadline) {
    result.disposition = core::JobDisposition::kDeadlineMissed;
    result.summary = "sched: job '" + name + "' missed its deadline";
    telemetry::count("sched.deadline_missed");
    TELEM_TRACE_INSTANT("sched.deadline_expired");
    return result;
  }
  return std::nullopt;
}

}  // namespace

Scheduler::Pool::Pool(core::AcceleratorKind k, std::size_t capacity,
                      BackpressurePolicy policy)
    : kind(k),
      queue(capacity, policy),
      span_name("sched." + core::to_string(k)),
      depth_gauge("sched.queue_depth." + core::to_string(k)),
      jobs_counter("sched.jobs." + core::to_string(k)),
      busy_counter("sched.busy_seconds." + core::to_string(k)) {}

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)), memo_cache_(config_.memo_cache) {}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::add_pool(core::AcceleratorKind kind, std::size_t workers,
                         const core::AcceleratorFactory& factory) {
  if (workers == 0)
    throw std::invalid_argument("sched: pool needs at least one worker");
  if (!factory) throw std::invalid_argument("sched: null accelerator factory");

  // REBOOTING_FAULTS wiring: kinds covered by the environment plan get their
  // replicas built behind deterministic fault injectors.
  core::AcceleratorFactory build = factory;
  if (config_.env_faults) {
    if (const auto plan = core::FaultPlan::from_env()) {
      const core::FaultSpec* spec = plan->spec_for(kind);
      if (spec && spec->enabled())
        build = core::FaultyAccelerator::wrap(build, plan);
    }
  }

  auto pool = std::make_unique<Pool>(kind, config_.queue_capacity,
                                     config_.backpressure);
  pool->replicas.reserve(workers);
  pool->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto replica = build();
    if (!replica)
      throw std::invalid_argument("sched: factory returned a null accelerator");
    if (replica->kind() != kind)
      throw std::invalid_argument(
          "sched: factory built a '" + core::to_string(replica->kind()) +
          "' accelerator for the '" + core::to_string(kind) + "' pool");
    pool->replicas.push_back(std::move(replica));
    pool->workers.push_back(std::make_unique<Worker>(config_.breaker));
  }

  // The map insert and the thread starts stay under one lock so shutdown()
  // can never observe a pool with a half-built thread vector.
  std::lock_guard lock(pools_mutex_);
  if (!accepting())
    throw std::runtime_error("sched: add_pool after shutdown");
  auto [it, inserted] = pools_.emplace(kind, std::move(pool));
  if (!inserted)
    throw std::invalid_argument(
        "sched: pool for kind '" + core::to_string(kind) +
        "' already exists (" + std::to_string(it->second->replicas.size()) +
        " worker(s)); size a pool via the `workers` argument instead of "
        "adding it twice");
  Pool& p = *it->second;
  for (std::size_t i = 0; i < workers; ++i)
    p.threads.emplace_back(&Scheduler::worker_loop, this, std::ref(p),
                           std::ref(*p.replicas[i]), std::ref(*p.workers[i]),
                           i);
}

Scheduler::Pool* Scheduler::find_pool(core::AcceleratorKind kind) const {
  std::lock_guard lock(pools_mutex_);
  const auto it = pools_.find(kind);
  if (it == pools_.end())
    throw std::out_of_range("sched: no worker pool for kind '" +
                            core::to_string(kind) + "'");
  return it->second.get();
}

std::future<core::JobResult> Scheduler::submit(core::Job job,
                                               JobOptions opts) {
  if (!job.payload)
    throw std::invalid_argument("sched: job '" + job.name +
                                "' has no payload");
  DevicePayload payload = [p = std::move(job.payload)](core::Accelerator&) {
    return p();
  };
  return submit(std::move(job.name), job.kind, std::move(payload),
                std::move(opts));
}

std::future<core::JobResult> Scheduler::submit(std::string name,
                                               core::AcceleratorKind kind,
                                               DevicePayload payload,
                                               JobOptions opts) {
  std::future<core::JobResult> future;
  submit(std::move(name), kind, std::move(payload), std::move(opts),
         promise_completion(&future));
  return future;
}

void Scheduler::submit(std::string name, core::AcceleratorKind kind,
                       DevicePayload payload, JobOptions opts,
                       JobCompletion done) {
  if (!payload)
    throw std::invalid_argument("sched: job '" + name + "' has no payload");
  if (!done)
    throw std::invalid_argument("sched: job '" + name + "' has no completion");
  if (!accepting())
    throw std::runtime_error("sched: submit('" + name + "') after shutdown");
  Pool* pool = find_pool(kind);

  std::shared_ptr<MemoFlight> flight;
  if (join_flight(name, opts, done, &flight)) return;

  QueuedJob item;
  item.name = std::move(name);
  item.kind = kind;
  item.payload = std::move(payload);
  item.opts = std::move(opts);
  item.done = std::move(done);
  item.memo_flight = std::move(flight);
  enqueue(std::move(item), pool);
}

bool Scheduler::join_flight(const std::string& name, const JobOptions& opts,
                            JobCompletion& done,
                            std::shared_ptr<MemoFlight>* flight_out) {
  const bool memo = !opts.memo_key.empty() && core::cache_enabled();
  if (!memo && opts.coalesce_key.empty()) return false;
  // One registry, two key spaces: the tag keeps a memo_key and an equal
  // coalesce_key from sharing a flight (only one of them may cache).
  core::HashWriter w;
  w.u8(memo ? 'm' : 'c');
  w.str(memo ? opts.memo_key : opts.coalesce_key);
  const core::HashKey128 key = w.finish();

  if (memo) {
    if (const auto cached = memo_cache_.get(key)) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count("sched.memo_hit");
      TELEM_TRACE_INSTANT("sched.memo_hit");
      JobOutcome outcome;
      outcome.result = gate_unrun(name, opts).value_or(*cached);
      done(std::move(outcome));
      return true;
    }
  }

  std::lock_guard lock(flights_mutex_);
  const auto it = flights_.find(key);
  if (it != flights_.end()) {
    // Single-flight: ride the in-flight leader instead of executing again.
    if (memo) {
      memo_riders_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count("sched.memo_rider");
      TELEM_TRACE_INSTANT("sched.memo_rider");
    } else {
      telemetry::count("sched.coalesce_rider");
      TELEM_TRACE_INSTANT("sched.coalesce_rider");
    }
    it->second->riders.push_back({name, opts, std::move(done)});
    track_accept();
    return true;
  }
  // No cached result, no flight: this submission leads a new one.
  auto flight = std::make_shared<MemoFlight>();
  flight->key = key;
  flight->cache_result = memo;
  flights_.emplace(key, flight);
  *flight_out = std::move(flight);
  return false;
}

void Scheduler::settle(QueuedJob& item, core::JobResult&& result,
                       std::exception_ptr thrown) {
  JobOutcome outcome;
  outcome.result = std::move(result);
  outcome.thrown = std::move(thrown);
  if (item.memo_flight) {
    settle_flight(item.memo_flight, outcome);
    item.memo_flight.reset();
  }
  item.done(std::move(outcome));
  track_complete();
}

void Scheduler::settle_flight(const std::shared_ptr<MemoFlight>& flight,
                              const JobOutcome& outcome) {
  std::vector<MemoFlight::Rider> riders;
  {
    // Erase before delivering: once settled, a new identical submit starts a
    // fresh flight (or hits the cache) instead of attaching to this one.
    std::lock_guard lock(flights_mutex_);
    flights_.erase(flight->key);
    riders = std::move(flight->riders);
    flight->riders.clear();
  }
  const core::JobResult& result = outcome.result;
  if (flight->cache_result && !outcome.thrown && result.ok &&
      result.disposition == core::JobDisposition::kExecuted) {
    // Only a genuine success is worth replaying; cancellations, deadline
    // misses, shed/flushed verdicts, and fault-storm failures must re-execute
    // next time.
    std::size_t bytes = sizeof(core::JobResult) + result.summary.size();
    for (const auto& [key, value] : result.metrics)
      bytes += key.size() + sizeof(value);
    for (const auto& line : result.fault_log) bytes += line.size();
    memo_cache_.put(flight->key, std::make_shared<core::JobResult>(result),
                    bytes);
  }
  for (auto& rider : riders) {
    JobOutcome fanned;
    fanned.rode = true;
    if (outcome.thrown)
      fanned.thrown = outcome.thrown;
    else
      fanned.result = gate_unrun(rider.name, rider.opts).value_or(result);
    rider.done(std::move(fanned));
    track_complete();
  }
}

std::future<core::JobResult> Scheduler::submit_preemptible(
    std::string name, core::AcceleratorKind kind, PreemptiblePayload payload,
    JobOptions opts) {
  if (!payload)
    throw std::invalid_argument("sched: job '" + name + "' has no payload");
  if (!accepting())
    throw std::runtime_error("sched: submit('" + name + "') after shutdown");
  Pool* pool = find_pool(kind);

  QueuedJob item;
  item.name = std::move(name);
  item.kind = kind;
  item.preemptible = std::move(payload);
  item.opts = std::move(opts);
  std::future<core::JobResult> future;
  item.done = promise_completion(&future);
  enqueue(std::move(item), pool);
  return future;
}

void Scheduler::enqueue(QueuedJob item, Pool* pool) {
  item.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  item.enqueued_at = Clock::now();
  track_accept();

  // The submit slice brackets the (possibly blocking) push, and the flow
  // arrow it contains starts the per-job submit -> dequeue -> complete chain.
  const std::uint64_t seq = item.seq;
  telemetry::TraceScope submit_scope(
      telemetry::trace_enabled() ? "sched.submit" : nullptr, "sched", seq);

  // push() may block (kBlock policy) — never under pools_mutex_.
  std::optional<QueuedJob> shed;
  const auto status = pool->queue.push(item, &shed);
  if (shed)
    complete_unrun(std::move(*shed), "shed by backpressure (queue full)",
                   "sched.shed", core::JobDisposition::kShed);
  switch (status) {
    case BoundedJobQueue::PushStatus::kAccepted:
      TELEM_TRACE_FLOW_BEGIN("job", seq);
      telemetry::gauge(pool->depth_gauge,
                       static_cast<core::Real>(pool->queue.size()));
      break;
    case BoundedJobQueue::PushStatus::kRejected:
      complete_unrun(std::move(item), "rejected by backpressure (queue full)",
                     "sched.rejected", core::JobDisposition::kRejected);
      break;
    case BoundedJobQueue::PushStatus::kClosed:
      complete_unrun(std::move(item), "not accepted: scheduler shut down",
                     "sched.flushed", core::JobDisposition::kFlushed);
      break;
  }
}

std::vector<std::future<core::JobResult>> Scheduler::submit_batch(
    std::vector<core::Job> jobs, JobOptions opts) {
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job), opts));
  return futures;
}

void Scheduler::worker_loop(Pool& pool, core::Accelerator& replica,
                            Worker& state, std::size_t replica_index) {
  // Tags every slice this worker ever emits with its kind + replica: the
  // exported timeline shows one named track per replica per pool.
  telemetry::TraceRecorder::instance().set_thread_name(
      core::to_string(pool.kind) + " worker " + std::to_string(replica_index));
  // The fault injector, when this replica carries one. Payloads receive the
  // *inner* accelerator so typed downcasts still work.
  auto* faulty = dynamic_cast<core::FaultyAccelerator*>(&replica);
  core::Accelerator& target = faulty ? faulty->inner() : replica;
  for (;;) {
    BoundedJobQueue* source = &pool.queue;
    std::optional<QueuedJob> popped;
    if (config_.work_stealing) {
      // Poll the home queue briefly, then go looking for an overloaded
      // victim pool; an idle system just cycles the poll.
      popped = pool.queue.pop_for(config_.steal_poll);
      if (!popped) {
        if (pool.queue.closed()) break;
        popped = steal_from_other_pool(pool, source);
        if (!popped) continue;
        steals_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count("sched.steal");
        TELEM_TRACE_INSTANT("sched.steal");
      }
    } else {
      popped = pool.queue.pop();
      if (!popped) break;
    }
    execute(pool, *source, replica, target, faulty, state,
            std::move(*popped));
  }
}

std::optional<QueuedJob> Scheduler::steal_from_other_pool(
    const Pool& thief, BoundedJobQueue*& source) {
  std::unique_lock lock(pools_mutex_);
  Pool* victim = nullptr;
  std::size_t deepest = 0;
  for (const auto& [kind, pool] : pools_) {
    if (pool.get() == &thief) continue;
    const std::size_t depth = pool->queue.size();
    if (depth > deepest) {
      deepest = depth;
      victim = pool.get();
    }
  }
  if (!victim) return std::nullopt;
  // The pool map never shrinks before shutdown, so the victim outlives the
  // steal; release the map lock before touching its queue lock.
  lock.unlock();
  auto stolen = victim->queue.try_steal();
  if (stolen) source = &victim->queue;
  return stolen;
}

void Scheduler::execute(Pool& pool, BoundedJobQueue& source,
                        core::Accelerator& replica, core::Accelerator& target,
                        core::FaultyAccelerator* faulty, Worker& state,
                        QueuedJob item) {
    const auto dequeued = Clock::now();
    const core::Real wait = seconds_between(item.enqueued_at, dequeued);
    telemetry::record("sched.wait_seconds", wait);
    telemetry::gauge(pool.depth_gauge,
                     static_cast<core::Real>(pool.queue.size()));

    // One slice per job, named after the job, covering everything that
    // happens to it on this worker (execution or the cancel/deadline
    // verdict). The flow step hooks the arrow from the submit slice here.
    telemetry::TraceScope job_scope(
        telemetry::trace_enabled()
            ? telemetry::TraceRecorder::instance().intern(item.name)
            : nullptr,
        "sched", item.seq);
    TELEM_TRACE_FLOW_STEP("job", item.seq);

    core::JobResult result;
    Verdict verdict = Verdict::kCompleted;
    if (item.opts.cancel && item.opts.cancel->cancelled()) {
      result.disposition = core::JobDisposition::kCancelled;
      result.summary = "sched: job '" + item.name +
                       "' cancelled before execution";
      result.attempts = item.attempts_done;
      result.fault_log = std::move(item.fault_log);
      telemetry::count("sched.cancelled");
      TELEM_TRACE_INSTANT("sched.cancelled");
    } else if (item.opts.deadline && dequeued >= *item.opts.deadline) {
      result.disposition = core::JobDisposition::kDeadlineMissed;
      result.summary = "sched: job '" + item.name +
                       "' missed its deadline after waiting " +
                       std::to_string(wait) + " s";
      result.attempts = item.attempts_done;
      result.fault_log = std::move(item.fault_log);
      telemetry::count("sched.deadline_missed");
      TELEM_TRACE_INSTANT("sched.deadline_expired");
    } else if (item.preemptible) {
      verdict = run_slice(pool, source, replica, target, item, result);
    } else {
      verdict = run_attempts(pool, replica, target, faulty, state, item,
                             result);
    }
    if (verdict != Verdict::kFailedOver && verdict != Verdict::kYielded)
      TELEM_TRACE_FLOW_END("job", item.seq);
    if (verdict == Verdict::kCompleted) {
      telemetry::record("sched.latency_seconds",
                        seconds_between(item.enqueued_at, Clock::now()));
      settle(item, std::move(result));
    }
    // kThrew already settled the job (exception) inside run_slice /
    // run_attempts; kFailedOver and kYielded re-queued the job elsewhere.
    source.task_done();
}

Scheduler::Verdict Scheduler::run_slice(Pool& pool, BoundedJobQueue& source,
                                        core::Accelerator& replica,
                                        core::Accelerator& target,
                                        QueuedJob& item,
                                        core::JobResult& out) {
  // Preemptible jobs bypass the retry/fault/breaker machinery on purpose:
  // their unit of resilience is the checkpoint carried inside the payload,
  // and the chaos suite exercises crash-resume rather than in-line retries.
  if (item.resumed) {
    resumes_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.resume");
    TELEM_TRACE_INSTANT("sched.resume");
  }
  // The probe a cooperative payload polls at its checkpoint boundaries:
  // "is anything outranking me queued where I came from?"
  const int priority = item.opts.priority;
  const YieldProbe probe([&source, priority] {
    return source.has_higher_priority_queued(priority);
  });

  const auto start = Clock::now();
  std::optional<core::JobResult> res;
  try {
    TELEM_SPAN(pool.span_name);
    res = item.preemptible(target, probe);
  } catch (...) {
    telemetry::count("sched.payload_exceptions");
    if (telemetry::Telemetry::enabled()) {
      auto& metrics = telemetry::Telemetry::instance().metrics();
      metrics.add("sched.jobs");
      metrics.add(pool.jobs_counter);
    }
    settle(item, {}, std::current_exception());
    return Verdict::kThrew;
  }
  const core::Real service = seconds_between(start, Clock::now());
  replica.record_completion(service);
  slices_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("sched.slices");
    metrics.add(pool.busy_counter, service);
    metrics.record("sched.service_seconds", service);
  }

  if (!res) {
    // Yielded at a checkpoint: the remainder re-enters the queue with its
    // original seq — the front of its priority class — and the worker turns
    // to the higher-priority work that triggered the preemption.
    preempts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.preempt");
    TELEM_TRACE_INSTANT("sched.preempt");
    TELEM_TRACE_FLOW_STEP("job", item.seq);
    item.resumed = true;
    item.enqueued_at = Clock::now();
    if (source.push_resumed(item) != BoundedJobQueue::PushStatus::kAccepted) {
      // Shutdown closed the queue mid-slice; the remainder will never run.
      complete_unrun(std::move(item), "flushed at shutdown mid-slice",
                     "sched.flushed", core::JobDisposition::kFlushed);
    } else {
      telemetry::gauge(pool.depth_gauge,
                       static_cast<core::Real>(source.size()));
    }
    return Verdict::kYielded;
  }

  out = std::move(*res);
  out.attempts = 1;
  if (telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("sched.jobs");
    metrics.add(pool.jobs_counter);
    if (!out.ok) metrics.add("sched.jobs_failed");
    for (const auto& [key, value] : out.metrics) metrics.add(key, value);
  }
  return Verdict::kCompleted;
}

Scheduler::Verdict Scheduler::run_attempts(Pool& pool,
                                           core::Accelerator& replica,
                                           core::Accelerator& target,
                                           core::FaultyAccelerator* faulty,
                                           Worker& state, QueuedJob& item,
                                           core::JobResult& out) {
  const RetryPolicy& retry = item.opts.retry;
  std::size_t max_attempts = retry.max_attempts == 0 ? 1 : retry.max_attempts;
  // A job failed over with its budget already spent still deserves the one
  // attempt the hop promised it.
  if (item.failed_over && item.attempts_done >= max_attempts)
    max_attempts = item.attempts_done + 1;

  std::uint64_t attempts = item.attempts_done;
  std::vector<std::string> fault_log = std::move(item.fault_log);
  core::Real total_service = 0.0;
  Clock::duration backoff_spent{0};
  // The most recent ok=false result the payload itself produced. When the
  // job gives up, this is returned verbatim (annotated with the attempt
  // bookkeeping) so a single-attempt job behaves exactly as it did before
  // the resilience layer existed.
  core::JobResult last_result;
  bool have_last = false;

  const auto fail_with = [&](std::string why) {
    if (have_last) {
      out = std::move(last_result);
    } else {
      out.ok = false;
      out.summary = "sched: job '" + item.name + "' " + std::move(why);
    }
    out.attempts = attempts;
    out.wall_seconds = total_service;
    out.fault_log = std::move(fault_log);
    if (telemetry::Telemetry::enabled()) {
      auto& metrics = telemetry::Telemetry::instance().metrics();
      metrics.add("sched.jobs");
      metrics.add(pool.jobs_counter);
      metrics.add("sched.jobs_failed");
      for (const auto& [key, value] : out.metrics) metrics.add(key, value);
    }
  };

  for (;;) {
    // Health gate: an open breaker refuses the attempt on this replica.
    if (!state.breaker.allow()) {
      if (failover_eligible(retry, item, pool)) {
        fault_log.push_back("breaker open on " + core::to_string(pool.kind) +
                            " replica; failing over");
        return failover(std::move(item), attempts, std::move(fault_log));
      }
      ++attempts;
      fault_log.push_back(attempt_prefix(attempts) +
                          "circuit breaker open, execution refused");
    } else {
      ++attempts;
      telemetry::count("sched.attempts");
      bool failed = false;
      bool threw = false;
      std::exception_ptr thrown;
      core::FaultOutcome fault;
      if (faulty) fault = faulty->on_attempt(item.seq, attempts);
      if (fault.kind == core::FaultKind::kTransient ||
          fault.kind == core::FaultKind::kPermanent) {
        // The device "failed" before doing any work: the payload never runs.
        failed = true;
        fault_log.push_back(attempt_prefix(attempts) + fault.description);
        telemetry::count("sched.faults_injected");
        TELEM_TRACE_INSTANT("sched.fault_injected");
      } else {
        if (fault.kind == core::FaultKind::kLatencySpike) {
          fault_log.push_back(attempt_prefix(attempts) + fault.description);
          telemetry::count("sched.faults_injected");
          TELEM_TRACE_INSTANT("sched.fault_injected");
          std::this_thread::sleep_for(
              std::chrono::duration<core::Real>(fault.latency_seconds));
        }
        const auto start = Clock::now();
        core::JobResult attempt_result;
        try {
          TELEM_SPAN(pool.span_name);
          attempt_result = item.payload(target);
        } catch (...) {
          threw = true;
          thrown = std::current_exception();
          telemetry::count("sched.payload_exceptions");
        }
        const core::Real service = seconds_between(start, Clock::now());
        total_service += service;
        replica.record_completion(service);
        if (telemetry::Telemetry::enabled()) {
          auto& metrics = telemetry::Telemetry::instance().metrics();
          metrics.add(pool.busy_counter, service);
          metrics.record("sched.service_seconds", service);
        }
        if (threw) {
          failed = true;
          fault_log.push_back(attempt_prefix(attempts) + "payload threw");
        } else if (fault.kind == core::FaultKind::kCorruption) {
          failed = true;
          fault_log.push_back(attempt_prefix(attempts) + fault.description);
          telemetry::count("sched.faults_injected");
          TELEM_TRACE_INSTANT("sched.fault_injected");
        } else if (!attempt_result.ok) {
          failed = true;
          fault_log.push_back(attempt_prefix(attempts) + "payload failed: " +
                              attempt_result.summary);
          last_result = std::move(attempt_result);
          have_last = true;
        } else {
          // Success.
          state.breaker.record_success();
          out = std::move(attempt_result);
          out.attempts = attempts;
          out.wall_seconds = total_service;
          out.degraded = attempts > 1 || item.failed_over;
          out.fault_log = std::move(fault_log);
          if (telemetry::Telemetry::enabled()) {
            auto& metrics = telemetry::Telemetry::instance().metrics();
            metrics.add("sched.jobs");
            metrics.add(pool.jobs_counter);
            if (out.degraded) metrics.add("sched.degraded");
            for (const auto& [key, value] : out.metrics)
              metrics.add(key, value);
          }
          return Verdict::kCompleted;
        }
      }
      if (failed && state.breaker.record_failure()) {
        telemetry::count("sched.breaker_open");
        TELEM_TRACE_INSTANT("sched.breaker_open");
      }
      if (threw && attempts >= max_attempts &&
          !failover_eligible(retry, item, pool)) {
        // Final attempt threw: propagate the exception, as a single-attempt
        // job always did. It still counts as an executed job.
        if (telemetry::Telemetry::enabled()) {
          auto& metrics = telemetry::Telemetry::instance().metrics();
          metrics.add("sched.jobs");
          metrics.add(pool.jobs_counter);
        }
        settle(item, {}, std::move(thrown));
        return Verdict::kThrew;
      }
    }

    if (attempts >= max_attempts) {
      if (failover_eligible(retry, item, pool)) {
        fault_log.push_back("attempts exhausted on " +
                            core::to_string(pool.kind) +
                            "; failing over to classical-cpu");
        return failover(std::move(item), attempts, std::move(fault_log));
      }
      fail_with("failed after " + std::to_string(attempts) + " attempt(s)");
      return Verdict::kCompleted;
    }

    // Backoff before the next attempt, honoring deadline and retry budget.
    const auto delay = backoff_delay(retry, attempts, item.seq);
    if (backoff_spent + delay > retry.retry_budget) {
      fault_log.push_back("retry budget exhausted after " +
                          std::to_string(attempts) + " attempt(s)");
      fail_with("failed after " + std::to_string(attempts) +
                " attempt(s); retry budget exhausted");
      return Verdict::kCompleted;
    }
    if (item.opts.deadline && Clock::now() + delay >= *item.opts.deadline) {
      telemetry::count("sched.deadline_missed");
      TELEM_TRACE_INSTANT("sched.deadline_expired");
      fault_log.push_back("backoff would cross the deadline; giving up after " +
                          std::to_string(attempts) + " attempt(s)");
      fail_with("failed after " + std::to_string(attempts) +
                " attempt(s); backoff would cross the deadline");
      return Verdict::kCompleted;
    }
    telemetry::count("sched.retries");
    TELEM_TRACE_INSTANT("sched.retry");
    std::this_thread::sleep_for(delay);
    backoff_spent += delay;
    if (item.opts.cancel && item.opts.cancel->cancelled()) {
      out.disposition = core::JobDisposition::kCancelled;
      out.attempts = attempts;
      out.fault_log = std::move(fault_log);
      out.wall_seconds = total_service;
      out.summary = "sched: job '" + item.name +
                    "' cancelled between retry attempts";
      telemetry::count("sched.cancelled");
      TELEM_TRACE_INSTANT("sched.cancelled");
      return Verdict::kCompleted;
    }
  }
}

bool Scheduler::failover_eligible(const RetryPolicy& retry,
                                  const QueuedJob& item,
                                  const Pool& pool) const {
  return retry.cpu_fallback && !item.failed_over &&
         pool.kind != core::AcceleratorKind::kClassicalCpu &&
         has_pool(core::AcceleratorKind::kClassicalCpu);
}

Scheduler::Verdict Scheduler::failover(QueuedJob&& item,
                                       std::uint64_t attempts,
                                       std::vector<std::string>&& fault_log) {
  Pool* cpu = find_pool(core::AcceleratorKind::kClassicalCpu);
  item.kind = core::AcceleratorKind::kClassicalCpu;
  item.failed_over = true;
  item.attempts_done = attempts;
  item.fault_log = std::move(fault_log);
  item.enqueued_at = Clock::now();
  telemetry::count("sched.failover");
  TELEM_TRACE_INSTANT("sched.failover");
  // The re-submit hop in the job's flow chain: submit -> dequeue ->
  // failover -> dequeue (cpu) -> complete.
  TELEM_TRACE_FLOW_STEP("job", item.seq);
  std::optional<QueuedJob> shed;
  const auto status = cpu->queue.push(item, &shed);
  if (shed)
    complete_unrun(std::move(*shed), "shed by backpressure (queue full)",
                   "sched.shed", core::JobDisposition::kShed);
  switch (status) {
    case BoundedJobQueue::PushStatus::kAccepted:
      telemetry::gauge(cpu->depth_gauge,
                       static_cast<core::Real>(cpu->queue.size()));
      break;
    case BoundedJobQueue::PushStatus::kRejected:
      complete_unrun(std::move(item), "rejected by backpressure (queue full)",
                     "sched.rejected", core::JobDisposition::kRejected);
      break;
    case BoundedJobQueue::PushStatus::kClosed:
      complete_unrun(std::move(item), "not accepted: scheduler shut down",
                     "sched.flushed", core::JobDisposition::kFlushed);
      break;
  }
  return Verdict::kFailedOver;
}

Clock::duration Scheduler::backoff_delay(const RetryPolicy& retry,
                                         std::size_t attempt,
                                         std::uint64_t seq) const {
  core::Real seconds =
      std::chrono::duration<core::Real>(retry.initial_backoff).count() *
      std::pow(retry.backoff_multiplier, static_cast<core::Real>(attempt - 1));
  seconds = std::min(
      seconds, std::chrono::duration<core::Real>(retry.max_backoff).count());
  if (retry.jitter > 0.0) {
    // Counter-based, like the fault verdicts: the jitter of retry k of job
    // seq is a pure function of (jitter_seed, seq, k).
    core::Rng rng = core::Rng::stream(config_.jitter_seed,
                                      (seq << 7) | (attempt & 0x7Full));
    seconds *= 1.0 + retry.jitter * (2.0 * rng.uniform() - 1.0);
  }
  seconds = std::max(seconds, 0.0);
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<core::Real>(seconds));
}

void Scheduler::complete_unrun(QueuedJob&& item, const std::string& why,
                               const char* metric,
                               core::JobDisposition disposition) {
  telemetry::count(metric);
  TELEM_TRACE_INSTANT(metric);  // metric names are literals: safe to record
  core::JobResult result;
  result.ok = false;
  result.disposition = disposition;
  result.summary = "sched: job '" + item.name + "' " + why;
  result.attempts = item.attempts_done;
  result.fault_log = std::move(item.fault_log);
  settle(item, std::move(result));
}

void Scheduler::track_accept() {
  std::lock_guard lock(drain_mutex_);
  ++outstanding_;
}

void Scheduler::track_complete() {
  std::lock_guard lock(drain_mutex_);
  if (--outstanding_ == 0) drain_cv_.notify_all();
}

void Scheduler::drain() {
  // Counted at job completion (track_accept/track_complete), so this is
  // exact even while jobs hop between pools on failover — a queue-emptiness
  // scan could observe "all idle" mid-hop.
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void Scheduler::shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    // The map lock only guards the close and the snapshot of the pool list:
    // add_pool refuses new pools from here on and pools are never removed,
    // so the joins and completions below run lock-free — a worker's
    // completion may call stats() without deadlocking the join.
    std::vector<Pool*> pools;
    {
      std::lock_guard lock(pools_mutex_);
      for (auto& [kind, pool] : pools_) {
        pool->queue.close();
        pools.push_back(pool.get());
      }
    }
    for (Pool* pool : pools)
      for (auto& thread : pool->threads)
        if (thread.joinable()) thread.join();
    // Workers are gone; whatever stayed queued is completed, not executed.
    // flush() hands the leftovers back in queue (priority, then FIFO) order,
    // so the ok=false completions are deterministic.
    for (Pool* pool : pools) {
      for (auto& item : pool->queue.flush())
        complete_unrun(std::move(item), "flushed at shutdown before execution",
                       "sched.flushed", core::JobDisposition::kFlushed);
      telemetry::gauge(pool->depth_gauge, 0.0);
    }
  });
}

bool Scheduler::has_pool(core::AcceleratorKind kind) const {
  std::lock_guard lock(pools_mutex_);
  return pools_.contains(kind);
}

std::size_t Scheduler::queue_depth(core::AcceleratorKind kind) const {
  return find_pool(kind)->queue.size();
}

PoolStats Scheduler::stats(core::AcceleratorKind kind) const {
  return snapshot_pool(*find_pool(kind));
}

PoolStats Scheduler::snapshot_pool(const Pool& pool) {
  PoolStats s;
  s.workers = pool.replicas.size();
  s.queue_depth = pool.queue.size();
  s.queue_capacity = pool.queue.capacity();
  s.in_flight = pool.queue.in_flight();
  for (const auto& replica : pool.replicas) {
    s.jobs_completed += replica->jobs_completed();
    s.busy_seconds += replica->busy_seconds();
  }
  s.replicas.reserve(pool.workers.size());
  for (std::size_t i = 0; i < pool.workers.size(); ++i) {
    ReplicaHealth h = pool.workers[i]->breaker.snapshot();
    h.replica = i;
    if (h.state != BreakerState::kClosed) ++s.breakers_open;
    s.replicas.push_back(h);
  }
  return s;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.accepting = accepting();
  s.submitted = next_seq_.load(std::memory_order_relaxed);
  s.slices = slices_.load(std::memory_order_relaxed);
  s.preempts = preempts_.load(std::memory_order_relaxed);
  s.resumes = resumes_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_riders = memo_riders_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(drain_mutex_);
    s.outstanding = outstanding_;
  }
  std::lock_guard lock(pools_mutex_);
  for (const auto& [kind, pool] : pools_) s.pools.emplace(kind, snapshot_pool(*pool));
  return s;
}

std::vector<ReplicaHealth> Scheduler::health(
    core::AcceleratorKind kind) const {
  const Pool* pool = find_pool(kind);
  std::vector<ReplicaHealth> out;
  out.reserve(pool->workers.size());
  for (std::size_t i = 0; i < pool->workers.size(); ++i) {
    ReplicaHealth h = pool->workers[i]->breaker.snapshot();
    h.replica = i;
    out.push_back(h);
  }
  return out;
}

std::string Scheduler::describe() const {
  std::ostringstream os;
  std::lock_guard lock(pools_mutex_);
  os << "Scheduler with " << pools_.size() << " worker pool(s), queues of "
     << config_.queue_capacity << " (" << to_string(config_.backpressure)
     << " backpressure):\n";
  for (const auto& [kind, pool] : pools_) {
    std::size_t jobs = 0;
    core::Real busy = 0.0;
    for (const auto& replica : pool->replicas) {
      jobs += replica->jobs_completed();
      busy += replica->busy_seconds();
    }
    os << "  [" << core::to_string(kind) << "] " << pool->replicas.size()
       << " x " << pool->replicas.front()->name() << " — " << jobs
       << " job(s), " << busy << " s busy, " << pool->queue.size()
       << " queued\n";
  }
  return os.str();
}

}  // namespace rebooting::sched
