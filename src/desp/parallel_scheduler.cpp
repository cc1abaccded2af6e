#include "desp/parallel_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "exp/executor.hpp"

namespace voodb::desp {
namespace {

/// Polls a spinning lane makes with `pause` before it starts yielding
/// its core on every poll, so a machine busy with other work still
/// schedules the lane that everyone waits for.
constexpr int kSpinPolls = 1024;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

template <typename Ready>
void SpinUntil(Ready ready) {
  for (int polls = 0; !ready();) {
    if (polls < kSpinPolls) {
      ++polls;
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

/// The barrier one pooled Run() shares between its lanes.  Lane 0 writes
/// `end` or `done`, then publishes them with a release increment of
/// `epoch`; a helper that acquires the new epoch reads them, runs its
/// partitions, and publishes what they wrote with a release decrement of
/// `pending`.  The two atomics sit on separate cache lines because
/// helpers write one and only read the other.
struct LaneBarrier {
  explicit LaneBarrier(size_t lanes) : errors(lanes) {}

  alignas(64) std::atomic<uint64_t> epoch{0};
  SimTime end = 0.0;
  bool done = false;
  alignas(64) std::atomic<size_t> pending{0};
  /// One slot per lane, written only by that lane.
  std::vector<std::exception_ptr> errors;
};

}  // namespace

ParallelScheduler::ParallelScheduler(Options options)
    : explicit_window_(options.window) {
  VOODB_CHECK_MSG(options.partitions >= 1, "need at least one partition");
  VOODB_CHECK_MSG(options.window >= 0.0,
                  "window width cannot be negative (window="
                      << options.window << ")");
  schedulers_.reserve(options.partitions);
  for (size_t i = 0; i < options.partitions; ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>(options.queue));
  }
  const size_t n = options.partitions;
  edge_delay_.assign(n * n, kInfinity);
  mail_.resize(n * n);
}

void ParallelScheduler::SetEdgeDelay(size_t from, size_t to,
                                     SimTime min_delay) {
  const size_t n = schedulers_.size();
  VOODB_CHECK_MSG(from < n && to < n, "edge (" << from << " -> " << to
                                               << ") out of range");
  VOODB_CHECK_MSG(from != to, "an edge to self has no lookahead to register");
  VOODB_CHECK_MSG(min_delay > 0.0,
                  "edge delay must be positive — zero lookahead admits no "
                  "conservative window (delay="
                      << min_delay << ")");
  edge_delay_[from * n + to] = min_delay;
}

void ParallelScheduler::SetUniformEdgeDelay(SimTime min_delay) {
  const size_t n = schedulers_.size();
  for (size_t from = 0; from < n; ++from) {
    for (size_t to = 0; to < n; ++to) {
      if (from != to) SetEdgeDelay(from, to, min_delay);
    }
  }
}

SimTime ParallelScheduler::Lookahead() const {
  SimTime lookahead = kInfinity;
  for (const SimTime delay : edge_delay_) {
    lookahead = std::min(lookahead, delay);
  }
  return lookahead;
}

SimTime ParallelScheduler::Window() const {
  if (explicit_window_ > 0.0) {
    VOODB_CHECK_MSG(explicit_window_ <= Lookahead(),
                    "explicit window " << explicit_window_
                                       << " exceeds the minimum edge delay "
                                       << Lookahead()
                                       << " — not conservative");
    return explicit_window_;
  }
  return Lookahead();
}

void ParallelScheduler::SendTo(size_t from, size_t to, SimTime delay,
                               Scheduler::Action action, int priority) {
  const size_t n = schedulers_.size();
  VOODB_CHECK_MSG(from < n && to < n, "SendTo(" << from << " -> " << to
                                                << ") out of range");
  if (from == to) {
    schedulers_[from]->Schedule(delay, std::move(action), priority);
    return;
  }
  const SimTime edge = edge_delay_[from * n + to];
  VOODB_CHECK_MSG(edge < kInfinity, "SendTo on unregistered edge ("
                                        << from << " -> " << to << ")");
  VOODB_CHECK_MSG(delay >= edge, "SendTo delay " << delay
                                                 << " below the registered "
                                                    "edge delay "
                                                 << edge << " (" << from
                                                 << " -> " << to << ")");
  mail_[from * n + to].push_back(Envelope{
      schedulers_[from]->Now() + delay, priority, std::move(action)});
}

void ParallelScheduler::DeliverMail() {
  const size_t n = schedulers_.size();
  std::vector<Envelope>& merged = merged_;
  for (size_t to = 0; to < n; ++to) {
    merged.clear();
    for (size_t from = 0; from < n; ++from) {
      std::vector<Envelope>& box = mail_[from * n + to];
      for (size_t i = 0; i < box.size(); ++i) {
        box[i].source = static_cast<uint32_t>(from);
        box[i].position = static_cast<uint32_t>(i);
        merged.push_back(std::move(box[i]));
      }
      box.clear();
    }
    if (merged.empty()) continue;
    // Equal (time, priority) falls back to source-ascending order and
    // per-edge FIFO — a total order, so the target's seq assignment (and
    // with it the whole downstream execution) is a pure function of
    // mailbox contents, not of which thread ran which partition.  The
    // explicit tie-break gives std::stable_sort's order without its
    // temporary buffer.
    std::sort(merged.begin(), merged.end(),
              [](const Envelope& a, const Envelope& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.priority != b.priority) return a.priority > b.priority;
                if (a.source != b.source) return a.source < b.source;
                return a.position < b.position;
              });
    cross_events_ += merged.size();
    for (Envelope& envelope : merged) {
      schedulers_[to]->ScheduleAt(envelope.time, std::move(envelope.action),
                                  envelope.priority);
    }
  }
}

bool ParallelScheduler::OpenWindow(SimTime window, SimTime* end) {
  DeliverMail();
  SimTime start = kInfinity;
  for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
    if (partition->HasNextEvent()) {
      start = std::min(start, partition->NextEventTime());
    }
  }
  if (start == kInfinity) return false;  // drained (DeliverMail ran first)
  *end = window == kInfinity ? kInfinity : start + window;
  return true;
}

void ParallelScheduler::RunLane(size_t lane, size_t lanes, SimTime end,
                                std::exception_ptr* error) {
  try {
    for (size_t p = lane; p < schedulers_.size(); p += lanes) {
      schedulers_[p]->RunWindow(end);
    }
  } catch (...) {
    *error = std::current_exception();
  }
}

void ParallelScheduler::RunSerial(SimTime window) {
  SimTime end = 0.0;
  while (OpenWindow(window, &end)) {
    for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
      partition->RunWindow(end);
    }
    ++windows_;
  }
}

void ParallelScheduler::RunPinned(exp::ThreadPool* pool, size_t lanes,
                                  SimTime window) {
  LaneBarrier barrier(lanes);
  const auto coordinator = [this, &barrier, lanes, window] {
    try {
      SimTime end = 0.0;
      while (OpenWindow(window, &end)) {
        barrier.end = end;
        barrier.pending.store(lanes - 1, std::memory_order_relaxed);
        barrier.epoch.fetch_add(1, std::memory_order_release);
        RunLane(0, lanes, end, &barrier.errors[0]);
        // Acquiring the last decrement also acquires the earlier ones
        // (a release sequence), so every lane's partitions and
        // mailboxes are visible to the next serial section.
        SpinUntil([&] {
          return barrier.pending.load(std::memory_order_acquire) == 0;
        });
        if (std::any_of(barrier.errors.begin(), barrier.errors.end(),
                        [](const std::exception_ptr& e) {
                          return static_cast<bool>(e);
                        })) {
          break;
        }
        ++windows_;
      }
    } catch (...) {  // the serial section's; lane 0 has none pending here
      barrier.errors[0] = std::current_exception();
    }
    barrier.done = true;
    barrier.epoch.fetch_add(1, std::memory_order_release);
  };
  const auto helper = [this, &barrier, lanes](size_t lane) {
    uint64_t seen = 0;
    for (;;) {
      SpinUntil([&] {
        return barrier.epoch.load(std::memory_order_acquire) != seen;
      });
      ++seen;
      if (barrier.done) return;
      RunLane(lane, lanes, barrier.end, &barrier.errors[lane]);
      barrier.pending.fetch_sub(1, std::memory_order_release);
    }
  };
  // Every lane, the coordinator included, runs on a pool thread: the
  // calling thread sleeps in Wait().  Kept off the caller, the partitions'
  // allocations stay out of its malloc arena, where they would
  // interleave with the caller's own long-lived data and raise peak RSS.
  size_t submitted = 1;
  while (submitted < lanes &&
         pool->Submit([&helper, lane = submitted] { helper(lane); })) {
    ++submitted;
  }
  const bool pinned = submitted == lanes && pool->Submit(coordinator);
  if (!pinned) {  // a cancelled pool: release whatever helpers started
    barrier.done = true;
    barrier.epoch.fetch_add(1, std::memory_order_release);
  }
  pool->Wait();
  for (const std::exception_ptr& lane_error : barrier.errors) {
    if (lane_error) std::rethrow_exception(lane_error);
  }
  if (!pinned) RunSerial(window);
}

uint64_t ParallelScheduler::Run(exp::ThreadPool* pool) {
  const SimTime window = Window();
  const uint64_t executed_before = ExecutedEvents();
  const size_t lanes =
      pool == nullptr ? 1
                      : std::min({pool->thread_count(), schedulers_.size(),
                                  exp::ThreadPool::HardwareThreads()});
  if (lanes > 1) {
    RunPinned(pool, lanes, window);
  } else {
    RunSerial(window);
  }
  return ExecutedEvents() - executed_before;
}

SimTime ParallelScheduler::MaxNow() const {
  SimTime now = 0.0;
  for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
    now = std::max(now, partition->Now());
  }
  return now;
}

uint64_t ParallelScheduler::ExecutedEvents() const {
  uint64_t executed = 0;
  for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
    executed += partition->ExecutedEvents();
  }
  return executed;
}

}  // namespace voodb::desp
