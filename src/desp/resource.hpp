/// \file resource.hpp
/// \brief Passive resources: capacity-limited servers with waiting queues.
///
/// Table 1 of the VOODB paper lists the passive resources of the model
/// (CPU/main memory, disk controller, database scheduler).  In DESP these
/// are `Resource` instances: a client requests (P) the resource, possibly
/// waits in a queue, holds one unit for some service time, and releases
/// (V) it.  The class collects the occupancy statistics the paper reports
/// (utilization, mean queue length, mean wait).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "desp/actor.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "desp/stats.hpp"

namespace voodb::desp {

/// Queueing discipline for a Resource's wait queue.
enum class QueueDiscipline {
  kFifo,      ///< first come, first served
  kLifo,      ///< last come, first served
  kPriority,  ///< highest request priority first (FIFO among equals)
};

/// Returns a human-readable name ("FIFO", ...).
const char* ToString(QueueDiscipline d);

/// A capacity-limited passive resource with a waiting queue.
class Resource : public Actor {
 public:
  /// The kernel's continuation type: queueing a request never allocates
  /// once the wait queue has reached its peak length.
  using Grant = Scheduler::Action;

  /// \param scheduler the owning scheduler (must outlive the resource)
  /// \param name      used in statistics reports
  /// \param capacity  number of units that can be held simultaneously
  Resource(Scheduler* scheduler, std::string name, uint64_t capacity = 1,
           QueueDiscipline discipline = QueueDiscipline::kFifo);

  /// Requests one unit.  `on_grant` runs (as a scheduled event at the
  /// current time) once a unit is available; requests queue per the
  /// discipline.  `priority` is only meaningful for kPriority.
  void Acquire(Grant on_grant, double priority = 0.0);

  /// Releases one unit previously granted.
  void Release();

  /// Convenience: acquire, hold for `service_time`, release, then run
  /// `on_done`.  This is the common "serve one request" pattern.
  void AcquireFor(SimTime service_time, Grant on_done, double priority = 0.0);

  const std::string& name() const { return actor_name(); }
  uint64_t capacity() const { return capacity_; }
  uint64_t busy() const { return busy_; }
  size_t QueueLength() const { return queued_; }

  /// Fraction of capacity held, averaged over time (0..1).
  double Utilization() const;
  /// Time-averaged number of waiting requests.
  double MeanQueueLength() const;
  /// Mean time spent waiting before a grant (per granted request).
  const Tally& WaitTimes() const { return wait_times_; }
  /// Total number of grants so far.
  uint64_t Grants() const { return grants_; }

 private:
  struct Waiter {
    /// The grant continuation, or for AcquireFor the completion.
    Grant action;
    /// AcquireFor's hold time; negative for a plain Acquire.
    SimTime service = -1.0;
    double priority = 0.0;
    SimTime enqueued_at = 0.0;
    uint64_t seq = 0;
    /// Ambient trace context of the requester, restored around the grant
    /// so work done under the resource is attributed to the transaction
    /// that asked for it, not to whichever event happened to release it.
    uint32_t trace = 0;
  };
  /// An AcquireFor request holding a unit: its completion waits here for
  /// the service time.  At most `capacity` are live.
  struct InService {
    Grant on_done;
    void Recycle() { on_done = nullptr; }
  };
  using ServiceHandle = SlotPool<InService>::Handle;

  void Enqueue(Waiter waiter);
  void GrantTo(Waiter waiter);
  void PopAndGrant();
  /// The `i`-th queued waiter, oldest first.
  Waiter& QueuedAt(size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  /// Holds the unit for the service time, releases, runs the completion.
  void FinishService(ServiceHandle h);

  uint64_t capacity_;
  QueueDiscipline discipline_;
  uint64_t busy_ = 0;
  uint64_t grants_ = 0;
  uint64_t next_seq_ = 0;
  /// The wait queue: a ring of power-of-two capacity that only grows,
  /// so steady-state queueing moves waiters in place.
  std::vector<Waiter> ring_;
  size_t head_ = 0;
  size_t queued_ = 0;
  SlotPool<InService> in_service_;
  TimeWeighted busy_stat_;
  TimeWeighted queue_stat_;
  Tally wait_times_;
};

}  // namespace voodb::desp
