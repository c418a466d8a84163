#include "scheduler/scheduler.h"

#include <algorithm>
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

/// The submitter's own pre-execution gates: checked when a worker pops the
/// job, and when a job is settled without running on its behalf (memo hit,
/// single-flight rider) — a cancelled or expired submit must not look like
/// it ran. Nullopt = run, or deliver, as is.
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
    pool->workers.push_back(
        std::make_unique<Worker>(*replica, config_.breaker));
    pool->replicas.push_back(std::move(replica));
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
                           std::ref(*p.workers[i]), i);
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
  return submit(
      std::move(job.name), job.kind,
      [p = std::move(job.payload)](core::Accelerator&) { return p(); },
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
  admit({.name = std::move(name),
         .kind = kind,
         .payload = std::move(payload),  // a slice that never yields
         .opts = std::move(opts),
         .done = std::move(done)});
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

void Scheduler::settle(QueuedJob& item, JobOutcome&& outcome) {
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
  std::future<core::JobResult> future;
  admit({.name = std::move(name),
         .kind = kind,
         .payload = std::move(payload),
         .sliced = true,
         .opts = std::move(opts),
         .done = promise_completion(&future)});
  return future;
}

void Scheduler::admit(QueuedJob item) {
  if (!item.done)
    throw std::invalid_argument("sched: job '" + item.name +
                                "' has no completion");
  if (!accepting())
    throw std::runtime_error("sched: submit('" + item.name +
                             "') after shutdown");
  Pool* pool = find_pool(item.kind);
  // A sliced job is a progress stream, not a pure function: never memoized.
  if (!item.sliced &&
      join_flight(item.name, item.opts, item.done, &item.memo_flight))
    return;

  item.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  track_accept();
  // The submit slice brackets the (possibly blocking) push, and the flow
  // arrow it contains starts the per-job submit -> dequeue -> complete chain.
  const std::uint64_t seq = item.seq;
  telemetry::TraceScope submit_scope(
      telemetry::trace_enabled() ? "sched.submit" : nullptr, "sched", seq);
  if (push(*pool, item, /*yielded=*/false)) TELEM_TRACE_FLOW_BEGIN("job", seq);
}

bool Scheduler::push(Pool& to, QueuedJob& item, bool yielded) {
  item.enqueued_at = Clock::now();
  // push() may block (kBlock policy) — never under pools_mutex_. A yielded
  // remainder already held a slot, so it is never blocked, shed or rejected.
  std::optional<QueuedJob> shed;
  const auto status =
      yielded ? to.queue.push_resumed(item) : to.queue.push(item, &shed);
  if (shed)
    complete_unrun(std::move(*shed), "shed by backpressure (queue full)",
                   "sched.shed", core::JobDisposition::kShed);
  switch (status) {
    case BoundedJobQueue::PushStatus::kAccepted:
      telemetry::gauge(to.depth_gauge,
                       static_cast<core::Real>(to.queue.size()));
      return true;
    case BoundedJobQueue::PushStatus::kRejected:
      complete_unrun(std::move(item), "rejected by backpressure (queue full)",
                     "sched.rejected", core::JobDisposition::kRejected);
      return false;
    case BoundedJobQueue::PushStatus::kClosed:
      complete_unrun(std::move(item), "not accepted: scheduler shut down",
                     "sched.flushed", core::JobDisposition::kFlushed);
      return false;
  }
  return false;
}

std::vector<std::future<core::JobResult>> Scheduler::submit_batch(
    std::vector<core::Job> jobs, JobOptions opts) {
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job), opts));
  return futures;
}

void Scheduler::worker_loop(Pool& pool, Worker& worker,
                            std::size_t replica_index) {
  // Tags every slice this worker ever emits with its kind + replica: the
  // exported timeline shows one named track per replica per pool.
  telemetry::TraceRecorder::instance().set_thread_name(
      core::to_string(pool.kind) + " worker " + std::to_string(replica_index));
  for (;;) {
    Pool* source = &pool;
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
    execute(pool, *source, worker, std::move(*popped));
  }
}

std::optional<QueuedJob> Scheduler::steal_from_other_pool(
    const Pool& thief, Pool*& source) {
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
  if (stolen) source = victim;
  return stolen;
}

void Scheduler::execute(Pool& pool, Pool& source, Worker& worker,
                        QueuedJob item) {
  telemetry::record("sched.wait_seconds",
                    seconds_between(item.enqueued_at, Clock::now()));
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

  // The gate: work whose answer nobody wants never occupies the device.
  JobOutcome outcome;
  Verdict verdict = Verdict::kSettled;
  if (auto unrun = gate_unrun(item.name, item.opts)) {
    outcome.result = std::move(*unrun);
    outcome.result.attempts = item.attempts_done;
    outcome.result.fault_log = std::move(item.fault_log);
  } else {
    verdict = run_attempts(pool, source, worker, item, outcome);
  }

  switch (verdict) {
    case Verdict::kSettled: {
      TELEM_TRACE_FLOW_END("job", item.seq);
      // The job accounting: once per job that reached the device, however
      // many attempts or slices that took.
      const core::JobResult& r = outcome.result;
      if (telemetry::Telemetry::enabled() &&
          r.disposition == core::JobDisposition::kExecuted) {
        auto& metrics = telemetry::Telemetry::instance().metrics();
        metrics.add("sched.jobs");
        metrics.add(pool.jobs_counter);
        if (!outcome.thrown && !r.ok) metrics.add("sched.jobs_failed");
        if (r.degraded) metrics.add("sched.degraded");
        for (const auto& [key, value] : r.metrics) metrics.add(key, value);
      }
      telemetry::record("sched.latency_seconds",
                        seconds_between(item.enqueued_at, Clock::now()));
      settle(item, std::move(outcome));
      break;
    }
    case Verdict::kYielded:
      // The remainder re-enters the queue it came from with its original
      // seq — the front of its priority class — and this worker turns to
      // the higher-priority work that triggered the preemption.
      preempts_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count("sched.preempt");
      TELEM_TRACE_INSTANT("sched.preempt");
      TELEM_TRACE_FLOW_STEP("job", item.seq);
      item.resumed = true;
      push(source, item, /*yielded=*/true);
      break;
    case Verdict::kFailedOver:
      // The re-submit hop in the job's flow chain: submit -> dequeue ->
      // failover -> dequeue (cpu) -> complete.
      telemetry::count("sched.failover");
      TELEM_TRACE_INSTANT("sched.failover");
      TELEM_TRACE_FLOW_STEP("job", item.seq);
      item.kind = core::AcceleratorKind::kClassicalCpu;
      item.failed_over = true;
      push(*find_pool(item.kind), item, /*yielded=*/false);
      break;
  }
  source.queue.task_done();
}

Scheduler::Verdict Scheduler::run_attempts(Pool& pool, Pool& source,
                                           Worker& worker, QueuedJob& item,
                                           JobOutcome& out) {
  if (item.resumed) {
    resumes_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.resume");
    TELEM_TRACE_INSTANT("sched.resume");
  }
  // The probe a sliced payload polls at its checkpoint boundaries: "is
  // anything outranking me queued where I came from?"
  const BoundedJobQueue& queue = source.queue;
  const int priority = item.opts.priority;
  const YieldProbe probe([&queue, priority] {
    return queue.has_higher_priority_queued(priority);
  });

  const RetryPolicy& retry = item.opts.retry;
  std::size_t max_attempts = std::max<std::size_t>(retry.max_attempts, 1);
  // A job failed over with its budget already spent still deserves the one
  // attempt the hop promised it.
  if (item.failed_over && item.attempts_done >= max_attempts)
    max_attempts = item.attempts_done + 1;
  Clock::duration backoff_spent{0};
  // The most recent ok=false result the payload itself produced. When the
  // job gives up, this is returned verbatim (annotated with the attempt
  // bookkeeping) so a single-attempt job behaves exactly as it did before
  // the resilience layer existed.
  std::optional<core::JobResult> last_failed;

  const auto finish = [&](core::JobResult&& result) {
    out.result = std::move(result);
    out.result.attempts = item.attempts_done;
    out.result.wall_seconds = item.service_seconds;
    out.result.fault_log = std::move(item.fault_log);
    return Verdict::kSettled;
  };
  const auto fail_with = [&](const std::string& why) {
    if (last_failed) return finish(std::move(*last_failed));
    core::JobResult failed;
    failed.summary = "sched: job '" + item.name + "' failed after " +
                     std::to_string(item.attempts_done) + " attempt(s)" + why;
    return finish(std::move(failed));
  };
  const auto note_fault = [&](const core::FaultOutcome& fault) {
    item.fault_log.push_back(attempt_prefix(item.attempts_done) +
                             fault.description);
    telemetry::count("sched.faults_injected");
    TELEM_TRACE_INSTANT("sched.fault_injected");
  };

  for (;;) {
    if (!worker.breaker.allow()) {
      // Health gate: an open breaker refuses the attempt on this replica.
      if (failover_eligible(item, pool)) {
        item.fault_log.push_back("breaker open on " +
                                 core::to_string(pool.kind) +
                                 " replica; failing over");
        return Verdict::kFailedOver;
      }
      ++item.attempts_done;
      item.fault_log.push_back(attempt_prefix(item.attempts_done) +
                               "circuit breaker open, execution refused");
    } else {
      ++item.attempts_done;
      telemetry::count("sched.attempts");
      core::FaultOutcome fault;
      if (worker.faulty)
        fault = worker.faulty->on_attempt(item.seq, item.attempts_done);
      std::exception_ptr thrown;
      if (fault.kind == core::FaultKind::kTransient ||
          fault.kind == core::FaultKind::kPermanent) {
        // The device "failed" before doing any work: the payload never runs.
        note_fault(fault);
      } else {
        if (fault.kind == core::FaultKind::kLatencySpike) {
          note_fault(fault);
          std::this_thread::sleep_for(
              std::chrono::duration<core::Real>(fault.latency_seconds));
        }
        const auto start = Clock::now();
        std::optional<core::JobResult> slice;
        try {
          TELEM_SPAN(pool.span_name);
          slice = item.payload(worker.target, probe);
        } catch (...) {
          thrown = std::current_exception();
          telemetry::count("sched.payload_exceptions");
        }
        const core::Real service = seconds_between(start, Clock::now());
        item.service_seconds += service;
        worker.replica.record_completion(service);
        telemetry::count(pool.busy_counter, service);
        telemetry::record("sched.service_seconds", service);
        if (item.sliced) {
          slices_.fetch_add(1, std::memory_order_relaxed);
          telemetry::count("sched.slices");
        }
        if (thrown) {
          item.fault_log.push_back(attempt_prefix(item.attempts_done) +
                                   "payload threw");
        } else if (!slice) {
          // Yielded at a checkpoint: a healthy device, and no attempt spent.
          worker.breaker.record_success();
          --item.attempts_done;
          return Verdict::kYielded;
        } else if (fault.kind == core::FaultKind::kCorruption) {
          note_fault(fault);
        } else if (!slice->ok) {
          item.fault_log.push_back(attempt_prefix(item.attempts_done) +
                                   "payload failed: " + slice->summary);
          last_failed = std::move(slice);
        } else {
          worker.breaker.record_success();
          finish(std::move(*slice));
          out.result.degraded = item.attempts_done > 1 || item.failed_over;
          return Verdict::kSettled;
        }
      }
      if (worker.breaker.record_failure()) {
        telemetry::count("sched.breaker_open");
        TELEM_TRACE_INSTANT("sched.breaker_open");
      }
      if (thrown && item.attempts_done >= max_attempts &&
          !failover_eligible(item, pool)) {
        // Final attempt threw: propagate the exception, as a single-attempt
        // job always did. It still counts as an executed job.
        out.thrown = std::move(thrown);
        return Verdict::kSettled;
      }
    }

    if (item.attempts_done >= max_attempts) {
      if (failover_eligible(item, pool)) {
        item.fault_log.push_back("attempts exhausted on " +
                                 core::to_string(pool.kind) +
                                 "; failing over to classical-cpu");
        return Verdict::kFailedOver;
      }
      return fail_with("");
    }

    // Backoff before the next attempt, honoring deadline and retry budget.
    const auto delay = backoff_delay(retry, item.attempts_done, item.seq);
    if (backoff_spent + delay > retry.retry_budget) {
      item.fault_log.push_back("retry budget exhausted after " +
                               std::to_string(item.attempts_done) +
                               " attempt(s)");
      return fail_with("; retry budget exhausted");
    }
    if (item.opts.deadline && Clock::now() + delay >= *item.opts.deadline) {
      telemetry::count("sched.deadline_missed");
      TELEM_TRACE_INSTANT("sched.deadline_expired");
      item.fault_log.push_back(
          "backoff would cross the deadline; giving up after " +
          std::to_string(item.attempts_done) + " attempt(s)");
      return fail_with("; backoff would cross the deadline");
    }
    telemetry::count("sched.retries");
    TELEM_TRACE_INSTANT("sched.retry");
    std::this_thread::sleep_for(delay);
    backoff_spent += delay;
    if (item.opts.cancel && item.opts.cancel->cancelled()) {
      core::JobResult cancelled;
      cancelled.disposition = core::JobDisposition::kCancelled;
      cancelled.summary = "sched: job '" + item.name +
                          "' cancelled between retry attempts";
      telemetry::count("sched.cancelled");
      TELEM_TRACE_INSTANT("sched.cancelled");
      return finish(std::move(cancelled));
    }
  }
}

bool Scheduler::failover_eligible(const QueuedJob& item,
                                  const Pool& pool) const {
  return item.opts.retry.cpu_fallback && !item.failed_over &&
         pool.kind != core::AcceleratorKind::kClassicalCpu &&
         has_pool(core::AcceleratorKind::kClassicalCpu);
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
  JobOutcome outcome;
  outcome.result.disposition = disposition;
  outcome.result.summary = "sched: job '" + item.name + "' " + why;
  outcome.result.attempts = item.attempts_done;
  outcome.result.fault_log = std::move(item.fault_log);
  settle(item, std::move(outcome));
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
      // Cleared only once every queue is closed, so an observer that sees
      // !accepting() knows no worker will pop another queued job.
      accepting_.store(false, std::memory_order_release);
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
