// Bounded multi-producer/multi-consumer priority queue — the submission side
// of the async scheduler. One instance backs each per-kind worker pool.
//
// Ordering: strict priority (higher first), FIFO by submission sequence
// within a priority class. Capacity is enforced by one of three backpressure
// policies (job.h): block the producer, reject the newcomer, or shed the
// longest-waiting entry. The queue also counts popped-but-unfinished work
// (pop / task_done), which PoolStats::in_flight reports; drain() does not
// use it — the scheduler counts accepted-but-uncompleted jobs instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "scheduler/job.h"

namespace rebooting::sched {

class BoundedJobQueue {
 public:
  enum class PushStatus { kAccepted, kRejected, kClosed };

  BoundedJobQueue(std::size_t capacity, BackpressurePolicy policy);

  /// Enqueues `item` (consumed only on kAccepted). When the queue is full:
  /// kBlock waits for room, kReject returns kRejected leaving `item` intact,
  /// kShedOldest evicts the entry with the smallest seq into `*shed` and
  /// accepts. Returns kClosed (item intact) once close() has been called.
  PushStatus push(QueuedJob& item, std::optional<QueuedJob>* shed);

  /// Blocks until an entry is available and returns the front of the
  /// priority order, or nullopt once the queue is closed. A successful pop
  /// marks one task in flight; the consumer must pair it with task_done().
  std::optional<QueuedJob> pop();

  /// As pop(), but gives up after `timeout`, returning nullopt. Used by
  /// work-stealing workers, which poll their own queue and then look for a
  /// victim; check closed() to distinguish a timeout from shutdown.
  std::optional<QueuedJob> pop_for(Clock::duration timeout);

  /// Re-enqueues a job a worker popped and then preempted mid-execution
  /// (consumed only on kAccepted; returns kClosed once close() has been
  /// called, leaving the item intact). Bypasses the capacity check — the job
  /// already held a queue slot when it was first admitted, so a yield must
  /// never block, shed, or reject. The entry keeps its original seq and so
  /// resumes at the front of its priority class.
  PushStatus push_resumed(QueuedJob& item);

  /// Removes the highest-priority entry whose JobOptions::stealable is set,
  /// or nullopt when there is none (or the queue is closed). Like pop(), a
  /// successful steal marks one task in flight *on this queue*: the thief
  /// must call this queue's task_done() when the stolen job finishes, which
  /// keeps in_flight() exact across pools.
  std::optional<QueuedJob> try_steal();

  /// True when a queued entry outranks `priority` — the preemption signal a
  /// running low-priority job's YieldProbe polls at checkpoint boundaries.
  bool has_higher_priority_queued(int priority) const;

  /// True once close() has been called.
  bool closed() const;

  /// Marks one popped task finished (see pop).
  void task_done();

  /// Closes the queue: blocked and future push() calls return kClosed, and
  /// pop() returns nullopt even while entries remain queued (they are
  /// retrieved with flush()).
  void close();

  /// Removes and returns every still-queued entry in pop (priority) order.
  /// Meant for the shutdown path, after close().
  std::vector<QueuedJob> flush();

  std::size_t size() const;
  /// Popped-but-not-yet-task_done()'d entries — the pool's running jobs.
  std::size_t in_flight() const;
  std::size_t capacity() const { return capacity_; }
  BackpressurePolicy policy() const { return policy_; }

 private:
  /// Priority order: higher priority first, then FIFO by seq. seq values are
  /// unique per scheduler, so this is a strict total order.
  struct Order {
    bool operator()(const QueuedJob& a, const QueuedJob& b) const {
      if (a.opts.priority != b.opts.priority)
        return a.opts.priority > b.opts.priority;
      return a.seq < b.seq;
    }
  };

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::set<QueuedJob, Order> items_;
  std::size_t capacity_;
  BackpressurePolicy policy_;
  std::size_t in_flight_ = 0;  ///< popped but not yet task_done()'d
  bool closed_ = false;
};

}  // namespace rebooting::sched
