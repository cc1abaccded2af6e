#include "desp/resource.hpp"

#include <utility>

namespace voodb::desp {

const char* ToString(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kFifo:
      return "FIFO";
    case QueueDiscipline::kLifo:
      return "LIFO";
    case QueueDiscipline::kPriority:
      return "PRIORITY";
  }
  return "?";
}

Resource::Resource(Scheduler* scheduler, std::string name, uint64_t capacity,
                   QueueDiscipline discipline)
    : Actor(scheduler, std::move(name)),
      capacity_(capacity),
      discipline_(discipline),
      busy_stat_(Now(), 0.0),
      queue_stat_(Now(), 0.0) {
  VOODB_CHECK_MSG(capacity_ >= 1, "resource '" << this->name()
                                               << "' needs capacity >= 1");
}

void Resource::Acquire(Grant on_grant, double priority) {
  VOODB_CHECK_MSG(static_cast<bool>(on_grant),
                  "Acquire needs a grant continuation");
  Enqueue(Waiter{std::move(on_grant), -1.0, priority, Now(), next_seq_++,
                 scheduler().current_trace()});
}

void Resource::Release() {
  VOODB_CHECK_MSG(busy_ > 0, "Release on idle resource '" << name() << "'");
  --busy_;
  busy_stat_.Update(Now(), static_cast<double>(busy_));
  if (queued_ > 0) PopAndGrant();
}

void Resource::AcquireFor(SimTime service_time, Grant on_done,
                          double priority) {
  VOODB_CHECK_MSG(service_time >= 0.0, "service time must be non-negative");
  Enqueue(Waiter{std::move(on_done), service_time, priority, Now(),
                 next_seq_++, scheduler().current_trace()});
}

void Resource::Enqueue(Waiter waiter) {
  if (busy_ < capacity_) {
    GrantTo(std::move(waiter));
    return;
  }
  if (queued_ == ring_.size()) {
    std::vector<Waiter> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (size_t i = 0; i < queued_; ++i) bigger[i] = std::move(QueuedAt(i));
    ring_ = std::move(bigger);
    head_ = 0;
  }
  ++queued_;
  QueuedAt(queued_ - 1) = std::move(waiter);
  queue_stat_.Update(Now(), static_cast<double>(queued_));
}

void Resource::FinishService(ServiceHandle h) {
  Grant on_done = std::move(in_service_.At(h).on_done);
  in_service_.Free(h);
  Release();
  if (on_done) on_done();
}

double Resource::Utilization() const {
  return busy_stat_.TimeAverage(Now()) / static_cast<double>(capacity_);
}

double Resource::MeanQueueLength() const {
  return queue_stat_.TimeAverage(Now());
}

void Resource::GrantTo(Waiter waiter) {
  ++busy_;
  ++grants_;
  busy_stat_.Update(Now(), static_cast<double>(busy_));
  wait_times_.Add(Now() - waiter.enqueued_at);
  // Run the continuation as an event so grants never grow the call stack.
  // The grant event carries the *requester's* trace context: without the
  // scope it would inherit the releasing event's context (a grant fired
  // from another transaction's Release would be misattributed).
  TraceScope trace(&scheduler(), waiter.trace);
  if (waiter.service < 0.0) {
    After(0.0, std::move(waiter.action));
    return;
  }
  const ServiceHandle h = in_service_.Alloc();
  in_service_.At(h).on_done = std::move(waiter.action);
  After(0.0, [this, service = waiter.service, h] {
    CallIn(service, &Resource::FinishService, h);
  });
}

void Resource::PopAndGrant() {
  size_t pick = 0;
  switch (discipline_) {
    case QueueDiscipline::kFifo:
      break;
    case QueueDiscipline::kLifo:
      pick = queued_ - 1;
      break;
    case QueueDiscipline::kPriority:
      // Highest priority first, FIFO (lowest seq) among equals.
      for (size_t i = 1; i < queued_; ++i) {
        const Waiter& best = QueuedAt(pick);
        const Waiter& w = QueuedAt(i);
        if (w.priority > best.priority ||
            (w.priority == best.priority && w.seq < best.seq)) {
          pick = i;
        }
      }
      break;
  }
  Waiter w = std::move(QueuedAt(pick));
  if (pick == 0) {
    head_ = (head_ + 1) & (ring_.size() - 1);
  } else {
    for (size_t i = pick; i + 1 < queued_; ++i) {
      QueuedAt(i) = std::move(QueuedAt(i + 1));
    }
  }
  --queued_;
  queue_stat_.Update(Now(), static_cast<double>(queued_));
  GrantTo(std::move(w));
}

}  // namespace voodb::desp
