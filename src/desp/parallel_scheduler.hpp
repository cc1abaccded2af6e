/// \file parallel_scheduler.hpp
/// \brief Conservative parallel discrete-event execution over partitioned
/// schedulers.
///
/// One big VOODB run is a single event-ordered stream, so it cannot be
/// farmed out the way replications are.  What it *can* exploit is the
/// model's fixed latency constants: every cross-partition interaction
/// (shipping a page between storage servers, a remote sub-transaction
/// request) takes at least the disk-service + network-transfer time that
/// the configuration pins down.  That minimum is guaranteed *lookahead*
/// in the Chandy–Misra sense, and it licenses a window protocol:
///
///   1. Let T be the earliest pending event across all partitions and W
///      the minimum cross-partition delay.  No partition can receive a
///      new event with time < T + W.
///   2. Every partition therefore executes its events with time in
///      [T, T+W) independently — on pinned lanes, no locks on the hot
///      path.
///   3. Cross-partition sends are buffered in per-edge mailboxes during
///      the window and delivered at the barrier, in a fixed order
///      (target ascending, then (time, priority), ties broken by source
///      ascending and per-edge FIFO), before the next window starts.
///
/// Because each partition's intra-window execution is the ordinary serial
/// `Scheduler` (deterministic by `(time, priority, seq)`), and barrier
/// delivery order depends only on mailbox *contents* — never on thread
/// timing — the execution is bit-identical to a 1-thread run at any
/// thread count: same event keys, same clocks, same per-partition seq
/// assignment.  The farm's identity contract extends to single runs.
///
/// Threaded execution pins partitions to lanes: a pooled Run() holds
/// `lanes` pool threads for the whole call, and lane k always runs the
/// partitions p with p % lanes == k, so a partition's working set stays
/// on one core.  Windows carry few events each (tens, against a few
/// microseconds of barrier), so the barrier is a spin on two atomics
/// rather than a task submit and condition-variable wait per window.
///
/// The scheduler's zero-delay fast lane composes with the protocol
/// unchanged: `NextEventTime`/`RunWindow` are lane-aware, and a lane
/// event whose timestamp sits at or past a window's `end` (possible when
/// another partition's earlier events defined the window start) waits
/// for a window that strictly covers it — exactly as a queued event
/// would.
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "desp/scheduler.hpp"

namespace voodb::exp {
class ThreadPool;
}  // namespace voodb::exp

namespace voodb::desp {

/// N partitioned Schedulers executed under a conservative time-window
/// protocol.  Partitions share nothing on the hot path: each keeps its
/// own event queue, slab arena, clock, and seq counter.
class ParallelScheduler {
 public:
  struct Options {
    size_t partitions = 1;
    /// Event-list backend for every partition.
    EventQueueKind queue = EventQueueKind::kBinaryHeap;
    /// Explicit window width; 0 derives it from the minimum registered
    /// edge delay.  An explicit window must not exceed that minimum, or
    /// the protocol would no longer be conservative.
    SimTime window = 0.0;
  };

  explicit ParallelScheduler(Options options);

  size_t partitions() const { return schedulers_.size(); }
  Scheduler& partition(size_t index) { return *schedulers_[index]; }
  const Scheduler& partition(size_t index) const { return *schedulers_[index]; }

  /// Registers the minimum simulated delay of any `from` → `to` send —
  /// the edge's lookahead, e.g. disk service + network transfer time of
  /// one page.  Must be > 0 and must be registered before Run(); SendTo
  /// on an unregistered edge is an error.
  void SetEdgeDelay(size_t from, size_t to, SimTime min_delay);

  /// Registers `min_delay` on every ordered pair of distinct partitions.
  void SetUniformEdgeDelay(SimTime min_delay);

  /// Minimum registered edge delay; +inf when no edges are registered
  /// (fully independent partitions).
  SimTime Lookahead() const;

  /// Effective window width: the explicit `Options::window` if set,
  /// otherwise Lookahead().
  SimTime Window() const;

  /// Sends `action` to partition `to`, firing `delay` after partition
  /// `from`'s current clock.  Must be called from code executing inside
  /// partition `from` (its thread owns the mailbox row during a window).
  /// `delay` must be >= the registered edge delay, which keeps delivery
  /// outside the current window.  `from == to` degenerates to a local
  /// Schedule().
  void SendTo(size_t from, size_t to, SimTime delay, Scheduler::Action action,
              int priority = 0);

  /// Runs windows until every partition drains and no mail is pending.
  /// Returns the number of events executed.
  ///
  /// Windows run on `lanes = min(pool threads, partitions, hardware
  /// threads)` lanes, each a pool thread held — spinning between
  /// windows — for the whole call; lane 0 also runs the serial section
  /// between windows, and the calling thread sleeps until the run ends.
  /// With a null `pool`, or when that minimum is 1, windows execute
  /// serially on the calling thread; both paths are bit-identical.  The
  /// pool must be dedicated to this call.  An exception from a
  /// partition's event ends the run after its window and is rethrown
  /// here (the lowest lane's, when several lanes fail in one window).
  uint64_t Run(exp::ThreadPool* pool = nullptr);

  /// Max partition clock — how far simulated time has advanced.
  SimTime MaxNow() const;

  uint64_t ExecutedEvents() const;
  /// Number of windows (barriers) executed by Run() calls so far.
  uint64_t Windows() const { return windows_; }
  /// Number of cross-partition events delivered through mailboxes.
  uint64_t CrossEvents() const { return cross_events_; }

 private:
  struct Envelope {
    SimTime time;  ///< absolute delivery time
    int priority;
    Scheduler::Action action;
    /// Sending partition and index in its mailbox, set by DeliverMail
    /// as the sort's tie-break.
    uint32_t source = 0;
    uint32_t position = 0;
  };

  /// Drains every mailbox into its target partition, in deterministic
  /// order.  Single-threaded (between windows).
  void DeliverMail();

  /// The barrier's serial section: delivers mail and sets `*end` to the
  /// next window's end.  Returns false once everything has drained.
  bool OpenWindow(SimTime window, SimTime* end);

  /// Runs partitions `lane`, `lane + lanes`, ... up to `end`, catching a
  /// partition's exception into `*error`.
  void RunLane(size_t lane, size_t lanes, SimTime end,
               std::exception_ptr* error);

  void RunSerial(SimTime window);
  void RunPinned(exp::ThreadPool* pool, size_t lanes, SimTime window);

  static constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  /// Dense n*n matrices indexed [from * n + to].
  std::vector<SimTime> edge_delay_;    ///< +inf = unregistered
  std::vector<std::vector<Envelope>> mail_;
  /// DeliverMail's per-target merge buffer, reused across windows.
  std::vector<Envelope> merged_;
  SimTime explicit_window_ = 0.0;
  uint64_t windows_ = 0;
  uint64_t cross_events_ = 0;
};

}  // namespace voodb::desp
