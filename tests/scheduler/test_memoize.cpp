// JobOptions::memo_key — the scheduler's memoization decorator (DESIGN.md
// §14): cached-result replay, single-flight collapse of identical in-flight
// submits, per-rider cancel/deadline honoring at delivery, and the
// never-cache-a-failure rule under a seeded fault storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "core/cache.h"
#include "core/faults.h"
#include "scheduler/scheduler.h"

namespace rebooting::sched {
namespace {

using core::AcceleratorKind;
using core::JobResult;

/// Restores the ambient cache toggle on exit.
struct ScopedCacheEnabled {
  bool previous = core::cache_enabled();
  explicit ScopedCacheEnabled(bool on) { core::set_cache_enabled(on); }
  ~ScopedCacheEnabled() { core::set_cache_enabled(previous); }
};

/// A payload gate: jobs block inside the worker until release() — the window
/// in which rider submits must collapse onto the in-flight leader.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

void add_cpu_pool(Scheduler& scheduler, std::size_t workers = 1) {
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, workers,
                     core::CpuAccelerator::factory());
}

JobOptions memo(const std::string& key) {
  JobOptions opts;
  opts.memo_key = key;
  return opts;
}

DevicePayload counting_payload(std::atomic<int>& executions,
                               const std::string& summary = "ran") {
  return [&executions, summary](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    JobResult r;
    r.ok = true;
    r.summary = summary;
    r.metrics["memo.test"] = 7.5;
    return r;
  };
}

// ------------------------------------------------------------ single-flight

TEST(Memoize, ConcurrentIdenticalSubmitsExecuteOnce) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  Gate gate;
  std::atomic<int> executions{0};
  const DevicePayload payload = [&](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
    JobResult r;
    r.ok = true;
    r.summary = "single flight";
    return r;
  };

  constexpr int kSubmits = 8;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kSubmits; ++i)
    futures.push_back(scheduler.submit(
        "flight", AcceleratorKind::kClassicalCpu, payload, memo("k1")));
  // Give the leader time to start executing; riders collapse meanwhile.
  while (executions.load() == 0) std::this_thread::yield();
  gate.release();

  for (auto& f : futures) {
    const JobResult r = f.get();
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.summary, "single flight");
  }
  EXPECT_EQ(executions.load(), 1);
  const SchedulerStats stats = scheduler.stats();
  // Everyone except the leader either rode the flight or replayed the cache.
  EXPECT_EQ(stats.memo_riders + stats.memo_hits,
            static_cast<std::uint64_t>(kSubmits - 1));
  EXPECT_GE(stats.memo_riders, 1u);
}

TEST(Memoize, CompletedResultReplaysWithoutExecuting) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler);
  std::atomic<int> executions{0};
  const JobResult first =
      scheduler
          .submit("original", AcceleratorKind::kClassicalCpu,
                  counting_payload(executions), memo("k2"))
          .get();
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(executions.load(), 1);

  auto replay_future = scheduler.submit(
      "replayed", AcceleratorKind::kClassicalCpu,
      counting_payload(executions), memo("k2"));
  // A cache hit completes without touching a worker: ready immediately.
  ASSERT_EQ(replay_future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const JobResult replay = replay_future.get();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(scheduler.stats().memo_hits, 1u);

  // Faithful replay: the stored JobResult, field for field.
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.summary, first.summary);
  EXPECT_EQ(replay.attempts, first.attempts);
  EXPECT_EQ(replay.disposition, core::JobDisposition::kExecuted);
  ASSERT_EQ(replay.metrics.count("memo.test"), 1u);
  EXPECT_EQ(replay.metrics.at("memo.test"), 7.5);
}

TEST(Memoize, DistinctKeysDoNotCollapse) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  std::atomic<int> executions{0};
  auto f1 = scheduler.submit("a", AcceleratorKind::kClassicalCpu,
                             counting_payload(executions), memo("key-a"));
  auto f2 = scheduler.submit("b", AcceleratorKind::kClassicalCpu,
                             counting_payload(executions), memo("key-b"));
  EXPECT_TRUE(f1.get().ok);
  EXPECT_TRUE(f2.get().ok);
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(scheduler.stats().memo_hits, 0u);
  EXPECT_EQ(scheduler.stats().memo_riders, 0u);
}

TEST(Memoize, EmptyKeyMeansNoMemoization) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler);
  std::atomic<int> executions{0};
  for (int i = 0; i < 2; ++i)
    EXPECT_TRUE(scheduler
                    .submit("plain", AcceleratorKind::kClassicalCpu,
                            counting_payload(executions), JobOptions{})
                    .get()
                    .ok);
  EXPECT_EQ(executions.load(), 2);
}

TEST(Memoize, DisabledCacheIsInert) {
  ScopedCacheEnabled off(false);
  Scheduler scheduler;
  add_cpu_pool(scheduler);
  std::atomic<int> executions{0};
  for (int i = 0; i < 2; ++i)
    EXPECT_TRUE(scheduler
                    .submit("uncached", AcceleratorKind::kClassicalCpu,
                            counting_payload(executions), memo("k3"))
                    .get()
                    .ok);
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(scheduler.stats().memo_hits, 0u);
}

// ------------------------------------------------------------ coalescing ---

JobOptions coalesce(const std::string& key) {
  JobOptions opts;
  opts.coalesce_key = key;
  return opts;
}

/// `sched.memo` stats as the registry reports them (from the newest live
/// scheduler, i.e. the test's own).
core::CacheStats memo_cache_stats() {
  for (const auto& [name, stats] : core::cache_stats_snapshot())
    if (name == "sched.memo") return stats;
  ADD_FAILURE() << "sched.memo is not registered";
  return {};
}

/// Submits `riders + 1` identical coalesce_key jobs behind a gate so all but
/// the first ride it; returns how many completions reported `rode`.
int coalesced_burst(Scheduler& scheduler, std::atomic<int>& executions,
                    const std::string& key, int riders) {
  Gate gate;
  const DevicePayload payload = [&](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
    JobResult r;
    r.ok = true;
    r.summary = "coalesced";
    return r;
  };
  std::mutex mutex;
  int rode = 0, ok = 0;
  const JobCompletion done = [&](JobOutcome&& outcome) {
    std::lock_guard lock(mutex);
    rode += outcome.rode ? 1 : 0;
    ok += outcome.result.ok ? 1 : 0;
  };
  const int before = executions.load();
  scheduler.submit("leader", AcceleratorKind::kClassicalCpu, payload,
                   coalesce(key), done);
  while (executions.load() == before) std::this_thread::yield();
  for (int i = 0; i < riders; ++i)
    scheduler.submit("rider", AcceleratorKind::kClassicalCpu, payload,
                     coalesce(key), done);
  gate.release();
  scheduler.drain();
  std::lock_guard lock(mutex);
  EXPECT_EQ(ok, riders + 1);
  return rode;
}

TEST(Memoize, CoalesceFlightCollapsesButNeverWritesTheMemoCache) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  std::atomic<int> executions{0};
  EXPECT_EQ(coalesced_burst(scheduler, executions, "c1", 3), 3);
  EXPECT_EQ(executions.load(), 1);

  // Settled means gone: the same key runs again, nothing was cached.
  EXPECT_EQ(coalesced_burst(scheduler, executions, "c1", 0), 0);
  EXPECT_EQ(executions.load(), 2);
  const core::CacheStats memo = memo_cache_stats();
  EXPECT_EQ(memo.inserts, 0u);
  EXPECT_EQ(memo.hits + memo.misses, 0u);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_riders, 0u);
}

TEST(Memoize, CoalesceKeyCollapsesWithTheCacheDisabled) {
  ScopedCacheEnabled off(false);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  std::atomic<int> executions{0};
  EXPECT_EQ(coalesced_burst(scheduler, executions, "c2", 3), 3);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(memo_cache_stats().inserts, 0u);
}

// ------------------------------------------------------- outcome fan-out ---

TEST(Memoize, LeaderExceptionFansOutToRiders) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  Gate gate;
  std::atomic<int> executions{0};
  const DevicePayload throwing = [&](core::Accelerator&) -> JobResult {
    executions.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
    throw std::runtime_error("leader exploded");
  };

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(scheduler.submit(
        "thrower", AcceleratorKind::kClassicalCpu, throwing, memo("k4")));
  while (executions.load() == 0) std::this_thread::yield();
  gate.release();

  for (auto& f : futures)
    EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(executions.load(), 1);

  // An exception is not a result: nothing was cached, the next submit runs.
  std::atomic<int> fresh{0};
  EXPECT_TRUE(scheduler
                  .submit("after", AcceleratorKind::kClassicalCpu,
                          counting_payload(fresh), memo("k4"))
                  .get()
                  .ok);
  EXPECT_EQ(fresh.load(), 1);
}

TEST(Memoize, RiderCancelHonoredAtDelivery) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  Gate gate;
  std::atomic<int> executions{0};
  const DevicePayload payload = [&](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
    JobResult r;
    r.ok = true;
    return r;
  };

  auto leader = scheduler.submit("leader", AcceleratorKind::kClassicalCpu,
                                 payload, memo("k5"));
  while (executions.load() == 0) std::this_thread::yield();
  JobOptions rider_opts = memo("k5");
  CancelToken token;
  rider_opts.cancel = token;
  auto rider = scheduler.submit("rider", AcceleratorKind::kClassicalCpu,
                                payload, rider_opts);
  token.cancel();  // cancelled while parked on the flight
  gate.release();

  EXPECT_TRUE(leader.get().ok);
  const JobResult r = rider.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.disposition, core::JobDisposition::kCancelled);
  EXPECT_EQ(executions.load(), 1);
}

TEST(Memoize, RiderDeadlineHonoredAtDelivery) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 2);
  Gate gate;
  std::atomic<int> executions{0};
  const DevicePayload payload = [&](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
    JobResult r;
    r.ok = true;
    return r;
  };

  auto leader = scheduler.submit("leader", AcceleratorKind::kClassicalCpu,
                                 payload, memo("k6"));
  while (executions.load() == 0) std::this_thread::yield();
  JobOptions rider_opts = memo("k6");
  rider_opts.deadline = deadline_in(std::chrono::milliseconds(20));
  auto rider = scheduler.submit("rider", AcceleratorKind::kClassicalCpu,
                                payload, rider_opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.release();  // the leader settles after the rider's deadline passed

  EXPECT_TRUE(leader.get().ok);
  const JobResult r = rider.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.disposition, core::JobDisposition::kDeadlineMissed);
  EXPECT_EQ(executions.load(), 1);
}

TEST(Memoize, CancelledSubmitNeverReplaysAHit) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler);
  std::atomic<int> executions{0};
  ASSERT_TRUE(scheduler
                  .submit("warm", AcceleratorKind::kClassicalCpu,
                          counting_payload(executions), memo("k7"))
                  .get()
                  .ok);
  JobOptions opts = memo("k7");
  CancelToken token;
  opts.cancel = token;
  token.cancel();
  const JobResult r = scheduler
                          .submit("cancelled", AcceleratorKind::kClassicalCpu,
                                  counting_payload(executions), opts)
                          .get();
  // Even with the answer in cache, a cancelled request is cancelled.
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.disposition, core::JobDisposition::kCancelled);
  EXPECT_EQ(executions.load(), 1);
}

// --------------------------------------------------------- failure rules ---

TEST(Memoize, OkFalseResultIsNeverCached) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler);
  std::atomic<int> executions{0};
  const DevicePayload failing = [&](core::Accelerator&) {
    executions.fetch_add(1, std::memory_order_relaxed);
    JobResult r;
    r.summary = "workload reported failure";
    return r;  // ok = false
  };
  for (int i = 0; i < 3; ++i) {
    const JobResult r = scheduler
                            .submit("failing", AcceleratorKind::kClassicalCpu,
                                    failing, memo("k8"))
                            .get();
    EXPECT_FALSE(r.ok);
  }
  EXPECT_EQ(executions.load(), 3);  // every submit ran; no failure replayed
  EXPECT_EQ(scheduler.stats().memo_hits, 0u);
}

TEST(Memoize, SeededFaultStormNeverCachesAFailure) {
  // Every attempt faults (p = 1): jobs exhaust their retry budget and fail.
  // No failed result may ever be served from the memo cache — each submit
  // must consume its own attempts.
  ScopedCacheEnabled on(true);
  core::FaultPlan plan;
  plan.seed = 1234;
  plan.kinds[AcceleratorKind::kClassicalCpu].transient_probability = 1.0;
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::FaultyAccelerator::wrap(
                         core::CpuAccelerator::factory(),
                         std::make_shared<const core::FaultPlan>(plan)));
  std::atomic<int> executions{0};
  JobOptions opts = memo("k9");
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = std::chrono::microseconds(100);
  for (int i = 0; i < 3; ++i) {
    const JobResult r = scheduler
                            .submit("stormy", AcceleratorKind::kClassicalCpu,
                                    counting_payload(executions), opts)
                            .get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.attempts, 2u) << "replayed instead of executed";
    EXPECT_FALSE(r.fault_log.empty());
  }
  EXPECT_EQ(scheduler.stats().memo_hits, 0u);
}

// ------------------------------------------------------------- shutdown ----

TEST(Memoize, ShutdownSettlesQueuedLeaderAndRiders) {
  ScopedCacheEnabled on(true);
  Scheduler scheduler;
  add_cpu_pool(scheduler, 1);
  Gate gate;
  std::atomic<int> started{0};
  // Occupy the only worker so the memoized leader stays queued.
  auto blocker = scheduler.submit(
      "blocker", AcceleratorKind::kClassicalCpu,
      [&](core::Accelerator&) {
        started.fetch_add(1, std::memory_order_relaxed);
        gate.wait();
        JobResult r;
        r.ok = true;
        return r;
      },
      JobOptions{});
  while (started.load() == 0) std::this_thread::yield();

  std::atomic<int> executions{0};
  auto leader = scheduler.submit("queued-leader",
                                 AcceleratorKind::kClassicalCpu,
                                 counting_payload(executions), memo("k10"));
  auto rider = scheduler.submit("queued-rider",
                                AcceleratorKind::kClassicalCpu,
                                counting_payload(executions), memo("k10"));
  gate.release();
  scheduler.shutdown();

  // Both futures are ready — the flushed leader settled its riders too —
  // and a flush is not a result: nothing got cached.
  EXPECT_TRUE(blocker.get().ok);
  const JobResult lr = leader.get();
  const JobResult rr = rider.get();
  // The leader either ran before shutdown closed the queue or was flushed;
  // either way the rider's outcome mirrors it.
  EXPECT_EQ(lr.ok, rr.ok);
  if (!lr.ok) {
    EXPECT_EQ(lr.disposition, core::JobDisposition::kFlushed);
    EXPECT_EQ(rr.disposition, core::JobDisposition::kFlushed);
  }
}

}  // namespace
}  // namespace rebooting::sched
