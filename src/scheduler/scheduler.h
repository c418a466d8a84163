// The asynchronous heterogeneous job scheduler — the runtime that turns the
// Fig. 1 picture into a concurrent system. Where core::HostSystem dispatches
// one job at a time on the caller's thread, sched::Scheduler owns, per
// AcceleratorKind, a pool of N worker threads, each with its *own* accelerator
// replica built from a core::AcceleratorFactory (lifting the host's
// one-per-kind restriction), all fed by one bounded MPMC priority queue.
//
//   submit()        -> std::future<core::JobResult>, with per-job priority,
//                      deadline, cooperative cancellation, and RetryPolicy
//                      (job.h); or, given a JobCompletion, no future at all:
//                      the completion is the job's one exit, and the future
//                      overloads are completions that fill a promise
//   submit_batch()  -> fan-out of a job vector, futures in submission order
//   drain()         -> block until every accepted job has finished; the
//                      scheduler keeps accepting new work afterwards
//   shutdown()      -> stop accepting, let in-flight jobs finish, complete
//                      still-queued jobs with ok=false in deterministic
//                      (priority, then FIFO) order; idempotent, run by ~
//
// One job lifecycle: every popped job — plain or sliced — passes the
// dequeue gate (cancel, deadline), then the attempt loop, and leaves with
// exactly one outcome: settled, re-queued after a yield, or failed over.
//
// Resilient execution (DESIGN.md §10): each attempt may be vetoed by the
// worker's deterministic fault injector (core::FaultyAccelerator — wired
// automatically when REBOOTING_FAULTS=<plan.json> is set) or refused by the
// worker's circuit breaker (breaker.h). Failed attempts retry with
// exponential backoff and deterministic jitter under the job's RetryPolicy,
// honoring its deadline and retry budget; jobs that opted into cpu_fallback
// fail over once to the classical-cpu pool when their replica's breaker is
// open or their attempts are exhausted. Results carry attempt counts, a
// fault log, and a `degraded` flag instead of a silent ok=false.
//
// Telemetry (when enabled): queue-depth gauges `sched.queue_depth.<kind>`,
// wait/service/latency histograms `sched.{wait,service,latency}_seconds`,
// per-kind counters `sched.jobs.<kind>` and `sched.busy_seconds.<kind>`, and
// outcome counters `sched.deadline_missed` / `sched.rejected` / `sched.shed`
// / `sched.cancelled` / `sched.flushed` / `sched.payload_exceptions`, plus
// the resilience counters `sched.attempts` / `sched.retries` /
// `sched.faults_injected` / `sched.breaker_open` / `sched.failover` /
// `sched.degraded`.
//
// Tracing (REBOOTING_TRACE, see telemetry/trace.h): every worker thread is
// named "<kind> worker <replica>", each executed job is a begin/end slice
// named after the job on its worker's track, the submit->dequeue->complete
// hand-off is a flow-arrow chain keyed by the job's submission seq, queue
// depth appears as a counter track per kind, and deadline-expiry /
// cancellation show up as instant markers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/accelerator.h"
#include "core/cache.h"
#include "core/faults.h"
#include "scheduler/breaker.h"
#include "scheduler/queue.h"

namespace rebooting::sched {

struct SchedulerConfig {
  /// Capacity of each per-kind submission queue.
  std::size_t queue_capacity = 1024;
  /// What a full queue does with the next submission.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Per-worker circuit breaker; the default threshold of 0 disables it.
  BreakerConfig breaker;
  /// Seed of the deterministic backoff jitter (RetryPolicy::jitter); retry
  /// timing is reproducible given the same seed and submission order.
  std::uint64_t jitter_seed = 0x5EEDBACCull;
  /// Honor REBOOTING_FAULTS=<plan.json>: add_pool wraps factories of covered
  /// kinds in core::FaultyAccelerator decorators. Off = this scheduler
  /// ignores the environment plan (used by the overhead bench's control).
  bool env_faults = true;
  /// Let idle workers steal queued jobs marked JobOptions::stealable from
  /// other kinds' pools (DESIGN.md §12). Off by default: stealing changes
  /// which replica runs a job, which only payloads that ignore their
  /// accelerator argument tolerate.
  bool work_stealing = false;
  /// How long a stealing-enabled worker waits on its own queue before
  /// looking for a victim pool.
  Clock::duration steal_poll = std::chrono::milliseconds(2);
  /// Sizing of the JobOptions::memo_key result cache (DESIGN.md §14).
  core::CacheConfig memo_cache = [] {
    core::CacheConfig c;
    c.name = "sched.memo";
    return c;
  }();
};

/// Point-in-time utilization snapshot of one kind's pool, aggregated over its
/// replicas.
struct PoolStats {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;  ///< popped and currently executing
  std::size_t jobs_completed = 0;
  core::Real busy_seconds = 0.0;
  /// Per-replica breaker health, indexed by replica.
  std::vector<ReplicaHealth> replicas;
  /// Replicas whose breaker is not closed (open or half-open).
  std::size_t breakers_open = 0;
};

/// One coherent snapshot of the whole scheduler — what rebootd serves for a
/// `status` request without poking individual metrics. Taken under the pool
/// map lock; each pool's counters are read without stopping the workers, so
/// the numbers are each individually consistent, not a global atomic cut.
struct SchedulerStats {
  bool accepting = true;
  std::uint64_t submitted = 0;    ///< submissions ever accepted (seq counter)
  std::size_t outstanding = 0;    ///< accepted but not yet completed
  // Time-slicing counters (DESIGN.md §12), scheduler-wide totals.
  std::uint64_t slices = 0;    ///< preemptible payload invocations
  std::uint64_t preempts = 0;  ///< slices that yielded to higher priority
  std::uint64_t resumes = 0;   ///< preempted jobs picked back up
  std::uint64_t steals = 0;    ///< jobs taken from another kind's queue
  // Memoization counters (DESIGN.md §14).
  std::uint64_t memo_hits = 0;    ///< submits replayed from the memo cache
  std::uint64_t memo_riders = 0;  ///< submits collapsed onto an in-flight job
  std::map<core::AcceleratorKind, PoolStats> pools;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config = {});
  /// Runs shutdown(); queued-but-unexecuted jobs complete with ok=false, so
  /// no completion (or future) of this scheduler is ever abandoned.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates the worker pool for `kind`: invokes `factory` `workers` times
  /// (each replica is owned by exactly one worker thread, so replicas never
  /// need internal locking) and starts the threads. One pool per kind; a
  /// duplicate kind throws std::invalid_argument. Thread-safe.
  void add_pool(core::AcceleratorKind kind, std::size_t workers,
                const core::AcceleratorFactory& factory);

  /// Asynchronously submits a self-contained job (payload captures whatever
  /// it runs on). Throws std::out_of_range when no pool of job.kind exists,
  /// std::invalid_argument on a null payload, std::runtime_error after
  /// shutdown(). Under kReject/kShedOldest backpressure the returned (or the
  /// shed victim's) future completes with ok=false rather than throwing.
  std::future<core::JobResult> submit(core::Job job, JobOptions opts = {});

  /// Same, but the payload receives the worker's own accelerator replica —
  /// the way to reach typed engine APIs on scheduler-constructed instances.
  std::future<core::JobResult> submit(std::string name,
                                      core::AcceleratorKind kind,
                                      DevicePayload payload,
                                      JobOptions opts = {});

  /// Same, reporting through `done` instead of a future: `done` runs exactly
  /// once (see JobCompletion) unless this call throws, in which case it
  /// never runs. An immediate outcome (backpressure rejection, memo hit)
  /// runs it before submit returns.
  void submit(std::string name, core::AcceleratorKind kind,
              DevicePayload payload, JobOptions opts, JobCompletion done);

  /// Submits a slice-based job (DESIGN.md §12). The payload is invoked
  /// repeatedly; each invocation is one time slice. When it returns a
  /// JobResult the attempt ends as a plain job's would; when it returns
  /// std::nullopt ("yielded at a checkpoint", signalled through the
  /// YieldProbe once a higher-priority job is queued on this pool) the
  /// remainder is re-enqueued with its original submission seq — so it
  /// resumes at the front of its priority class — and the worker turns to
  /// the queue. Sliced jobs run through the
  /// same attempt loop as every other job: breaker, fault injection, retry
  /// and cpu_fallback apply. A yield consumes no attempt; a retried slice
  /// resumes from the payload's own state. Cancellation and deadlines are
  /// honored between slices (each slice re-transits the dequeue gate).
  /// memo_key and coalesce_key are ignored.
  std::future<core::JobResult> submit_preemptible(std::string name,
                                                  core::AcceleratorKind kind,
                                                  PreemptiblePayload payload,
                                                  JobOptions opts = {});

  /// Fan-out: submits every job, returns futures in submission order for the
  /// caller's fan-in (wait on all, then combine).
  std::vector<std::future<core::JobResult>> submit_batch(
      std::vector<core::Job> jobs, JobOptions opts = {});

  /// Blocks until every accepted job has completed (all queues empty, all
  /// workers idle). The scheduler continues accepting work afterwards —
  /// drain is a barrier, not an end-of-life.
  void drain();

  /// Stops accepting submissions, closes all queues, joins the workers
  /// (in-flight jobs finish normally), then completes every still-queued job
  /// with ok=false in queue (priority, then FIFO) order. No lock is held
  /// while joining or completing, so completions may call stats().
  /// Idempotent.
  void shutdown();

  /// False once shutdown() has begun.
  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  bool has_pool(core::AcceleratorKind kind) const;
  /// Queued (not yet running) jobs of `kind`; throws std::out_of_range when
  /// no such pool exists.
  std::size_t queue_depth(core::AcceleratorKind kind) const;
  PoolStats stats(core::AcceleratorKind kind) const;
  /// Snapshot of every pool plus the scheduler-level counters, in one struct.
  SchedulerStats stats() const;
  /// Per-replica health (breaker state, failure counts) of one pool, indexed
  /// by replica; throws std::out_of_range when no such pool exists.
  std::vector<ReplicaHealth> health(core::AcceleratorKind kind) const;

  /// Multi-line report of the pools, their replicas, and utilization — the
  /// concurrent counterpart of HostSystem::describe().
  std::string describe() const;

 private:
  /// Per-worker-thread state: the replica it owns and its breaker.
  struct Worker {
    core::Accelerator& replica;
    /// The replica's fault injector, when it carries one. Payloads receive
    /// the *inner* accelerator (`target`), so typed downcasts still work.
    core::FaultyAccelerator* faulty;
    core::Accelerator& target;
    CircuitBreaker breaker;
    Worker(core::Accelerator& r, const BreakerConfig& config)
        : replica(r),
          faulty(dynamic_cast<core::FaultyAccelerator*>(&r)),
          target(faulty ? faulty->inner() : r),
          breaker(config) {}
  };

  struct Pool {
    core::AcceleratorKind kind;
    BoundedJobQueue queue;
    std::vector<std::shared_ptr<core::Accelerator>> replicas;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    // Pre-built telemetry names, so the hot path does no string assembly
    // beyond what the registry itself needs.
    std::string span_name, depth_gauge, jobs_counter, busy_counter;

    Pool(core::AcceleratorKind k, std::size_t capacity,
         BackpressurePolicy policy);
  };

  /// How one popped job leaves the attempt loop.
  enum class Verdict {
    kSettled,     ///< the JobOutcome is final; execute() settles the job
    kYielded,     ///< a slice yielded; the remainder goes back to its queue
    kFailedOver,  ///< the job moves to the classical-cpu pool
  };

  Pool* find_pool(core::AcceleratorKind kind) const;
  static PoolStats snapshot_pool(const Pool& pool);
  /// Shared tail of every submit: flight lookup, seq, the first push.
  void admit(QueuedJob item);
  /// The one push path (admission, yield re-queue, failover): `item` goes
  /// onto `to`'s queue — through push_resumed when `yielded` — and whatever
  /// the queue refuses or sheds is completed unrun. True when accepted.
  bool push(Pool& to, QueuedJob& item, bool yielded);
  void worker_loop(Pool& pool, Worker& worker, std::size_t replica_index);
  /// The job lifecycle on one worker: gate (cancel/deadline), attempt loop,
  /// then exactly one of settle, yield re-queue, or failover. `source` is the
  /// pool the job was popped or stolen from; it owes that queue a task_done.
  void execute(Pool& pool, Pool& source, Worker& worker, QueuedJob item);
  /// Picks the deepest other pool and steals its best stealable job.
  std::optional<QueuedJob> steal_from_other_pool(const Pool& thief,
                                                 Pool*& source);
  /// Breaker, fault verdict, payload call, retry and backoff. A yield
  /// consumes no attempt; attempts and the fault log live on `item`, so they
  /// carry across yields and the failover hop.
  Verdict run_attempts(Pool& pool, Pool& source, Worker& worker,
                       QueuedJob& item, JobOutcome& out);
  bool failover_eligible(const QueuedJob& item, const Pool& pool) const;
  Clock::duration backoff_delay(const RetryPolicy& retry, std::size_t attempt,
                                std::uint64_t seq) const;
  /// Completes a job that will never run (shed / flushed / closed race).
  void complete_unrun(QueuedJob&& item, const std::string& why,
                      const char* metric, core::JobDisposition disposition);
  void track_accept();
  void track_complete();

  // --- single-flight (DESIGN.md §14) --------------------------------------
  /// The job's one exit: settles the flight it leads (if any) so riders can
  /// never outlive their leader, then runs the job's completion. Every
  /// outcome — result or exception — of every accepted job goes through
  /// here, called with no scheduler lock held.
  void settle(QueuedJob& item, JobOutcome&& outcome);
  /// Removes the flight from the registry (no rider can attach afterwards),
  /// caches an ok + actually-executed result of a memo flight, and fans the
  /// outcome out to every rider — honoring each rider's own cancel/deadline
  /// at delivery.
  void settle_flight(const std::shared_ptr<MemoFlight>& flight,
                     const JobOutcome& outcome);
  /// Fast paths of submit() for memo_key / coalesce_key: replay a cached
  /// result or ride an in-flight leader (both consume `done` and return
  /// true), or return false when the job must enqueue normally — possibly
  /// now leading `flight_out`.
  bool join_flight(const std::string& name, const JobOptions& opts,
                   JobCompletion& done,
                   std::shared_ptr<MemoFlight>* flight_out);

  SchedulerConfig config_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> next_seq_{0};
  std::once_flag shutdown_once_;

  // Time-slicing counters (also exported as sched.{slices,preempt,resume,
  // steal} metrics and trace instants).
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> preempts_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> steals_{0};

  // Memoization: the result cache and the in-flight single-flight registry.
  // flights_mutex_ is a leaf lock (never held while calling user code or
  // taking another scheduler lock).
  core::ShardedCache<core::JobResult> memo_cache_;
  std::mutex flights_mutex_;
  std::unordered_map<core::HashKey128, std::shared_ptr<MemoFlight>,
                     core::HashKey128Hash>
      flights_;
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_riders_{0};

  // drain() bookkeeping: accepted-but-uncompleted jobs. Counted at the
  // completion, not the queue, so a failover hop between pools can never open
  // a window where every queue looks idle while a job is mid-flight.
  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t outstanding_ = 0;

  mutable std::mutex pools_mutex_;  ///< guards the map shape, not the pools
  std::map<core::AcceleratorKind, std::unique_ptr<Pool>> pools_;
};

}  // namespace rebooting::sched
