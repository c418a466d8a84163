#include "scheduler/queue.h"

#include <algorithm>
#include <stdexcept>

namespace rebooting::sched {

std::string to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kReject: return "reject";
    case BackpressurePolicy::kShedOldest: return "shed-oldest";
  }
  return "unknown";
}

BoundedJobQueue::BoundedJobQueue(std::size_t capacity,
                                 BackpressurePolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity_ == 0)
    throw std::invalid_argument("BoundedJobQueue: capacity must be >= 1");
}

BoundedJobQueue::PushStatus BoundedJobQueue::push(
    QueuedJob& item, std::optional<QueuedJob>* shed) {
  std::unique_lock lock(mutex_);
  if (items_.size() >= capacity_ && !closed_) {
    switch (policy_) {
      case BackpressurePolicy::kBlock:
        not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
        break;
      case BackpressurePolicy::kReject:
        return PushStatus::kRejected;
      case BackpressurePolicy::kShedOldest: {
        // Evict the longest-waiting entry (smallest seq) regardless of its
        // priority: age, not importance, defines "oldest" for shedding.
        auto oldest = std::min_element(
            items_.begin(), items_.end(),
            [](const QueuedJob& a, const QueuedJob& b) { return a.seq < b.seq; });
        auto node = items_.extract(oldest);
        if (shed) *shed = std::move(node.value());
        break;
      }
    }
  }
  if (closed_) return PushStatus::kClosed;
  items_.insert(std::move(item));
  not_empty_.notify_one();
  return PushStatus::kAccepted;
}

std::optional<QueuedJob> BoundedJobQueue::pop() {
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
  if (closed_) return std::nullopt;  // leftovers are for flush()
  auto node = items_.extract(items_.begin());
  ++in_flight_;
  not_full_.notify_one();
  return std::move(node.value());
}

std::optional<QueuedJob> BoundedJobQueue::pop_for(Clock::duration timeout) {
  std::unique_lock lock(mutex_);
  if (!not_empty_.wait_for(lock, timeout,
                           [&] { return !items_.empty() || closed_; }))
    return std::nullopt;  // timed out; caller may go stealing
  if (closed_) return std::nullopt;  // leftovers are for flush()
  auto node = items_.extract(items_.begin());
  ++in_flight_;
  not_full_.notify_one();
  return std::move(node.value());
}

BoundedJobQueue::PushStatus BoundedJobQueue::push_resumed(QueuedJob& item) {
  std::lock_guard lock(mutex_);
  if (closed_) return PushStatus::kClosed;
  items_.insert(std::move(item));
  not_empty_.notify_one();
  return PushStatus::kAccepted;
}

std::optional<QueuedJob> BoundedJobQueue::try_steal() {
  std::lock_guard lock(mutex_);
  if (closed_) return std::nullopt;
  const auto it = std::find_if(items_.begin(), items_.end(),
                               [](const QueuedJob& j) {
                                 return j.opts.stealable;
                               });
  if (it == items_.end()) return std::nullopt;
  auto node = items_.extract(it);
  ++in_flight_;  // the thief owes this queue a task_done()
  not_full_.notify_one();
  return std::move(node.value());
}

bool BoundedJobQueue::has_higher_priority_queued(int priority) const {
  std::lock_guard lock(mutex_);
  // items_ is priority-ordered, so the front is the best queued entry.
  return !items_.empty() && items_.begin()->opts.priority > priority;
}

bool BoundedJobQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

void BoundedJobQueue::task_done() {
  std::lock_guard lock(mutex_);
  if (in_flight_ == 0)
    throw std::logic_error("BoundedJobQueue::task_done without matching pop");
  --in_flight_;
}

void BoundedJobQueue::close() {
  std::lock_guard lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::vector<QueuedJob> BoundedJobQueue::flush() {
  std::lock_guard lock(mutex_);
  std::vector<QueuedJob> out;
  out.reserve(items_.size());
  while (!items_.empty())
    out.push_back(std::move(items_.extract(items_.begin()).value()));
  return out;
}

std::size_t BoundedJobQueue::size() const {
  std::lock_guard lock(mutex_);
  return items_.size();
}

std::size_t BoundedJobQueue::in_flight() const {
  std::lock_guard lock(mutex_);
  return in_flight_;
}

}  // namespace rebooting::sched
