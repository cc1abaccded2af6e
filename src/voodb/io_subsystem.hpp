/// \file io_subsystem.hpp
/// \brief The I/O Subsystem active resource (knowledge model, Fig. 4/5).
///
/// Owns the disk (a capacity-1 passive resource: the "server disk
/// controller and secondary storage" of Table 1) and the disk service-time
/// model.  Other actors hand it batches of `PageIo` operations; it
/// executes them sequentially on the disk resource and fires a completion
/// continuation.  Each batch in progress (a copy of its I/Os, a cursor,
/// the caller's `done`) waits in a slot pool whose I/O vectors keep their
/// capacity, so a warm subsystem never allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "desp/actor.hpp"
#include "desp/histogram.hpp"
#include "desp/random.hpp"
#include "desp/resource.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "storage/disk_model.hpp"
#include "storage/page.hpp"

namespace voodb::obs {
class MetricRegistry;
class SpanTracer;
}  // namespace voodb::obs

namespace voodb::core {

/// The I/O Subsystem actor.
class IoSubsystemActor : public desp::Actor {
 public:
  IoSubsystemActor(desp::Scheduler* scheduler,
                   storage::DiskParameters disk_params);

  /// Executes `ios` in order (each waits for the disk resource, holds it
  /// for the modelled service time, releases) and then calls `done`.
  /// Calls `done` immediately when `ios` is empty.  `ios` is copied, so
  /// the caller may reuse its vector at once.
  void Execute(const std::vector<storage::PageIo>& ios,
               desp::Scheduler::Action done);

  /// Occupies the disk exclusively for `duration_ms` (recovery scans,
  /// log replay), then calls `done`.  Queued I/O waits behind it.
  void Seize(double duration_ms, desp::Scheduler::Action done);

  /// Enables the transient-fault model (paper §5 "benign failures"):
  /// each physical I/O independently fails with probability `fault_prob`
  /// and is retried (up to `max_retries` times, `retry_penalty_ms` each)
  /// before succeeding.
  void SetFaultModel(double fault_prob, double retry_penalty_ms,
                     uint32_t max_retries, desp::RandomStream rng);

  uint64_t total_ios() const { return disk_model_.total_ios(); }
  uint64_t reads() const { return disk_model_.reads(); }
  uint64_t writes() const { return disk_model_.writes(); }
  /// Transient faults injected so far.
  uint64_t transient_faults() const { return transient_faults_; }
  double DiskUtilization() const { return disk_.Utilization(); }
  const storage::DiskModel& disk_model() const { return disk_model_; }
  /// Full per-I/O service-time distribution (ms, fault penalties
  /// included) since construction.
  const desp::LogHistogram& service_histogram() const {
    return service_histogram_;
  }

  /// Registers the disk counters and service-time histogram with
  /// `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

  /// Attaches/detaches (nullptr) the span tracer: each physical I/O emits
  /// a disk-IO leaf (queueing + service) against the ambient trace
  /// context, so the transaction that caused it gets the attribution
  /// without this actor knowing about transactions.
  void SetTracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

 private:
  struct Batch {
    std::vector<storage::PageIo> ios;
    size_t index = 0;
    desp::Scheduler::Action done;
    void Recycle() {
      ios.clear();
      done = nullptr;
    }
  };
  using BatchHandle = desp::SlotPool<Batch>::Handle;

  /// Requests the disk for the batch's next I/O, or finishes the batch.
  void ExecuteNext(BatchHandle h);
  /// Completion of one physical I/O: release the disk, run the next.
  void FinishIo(BatchHandle h);
  double FaultPenalty();

  desp::Resource disk_;
  storage::DiskModel disk_model_;
  desp::SlotPool<Batch> batches_;
  bool faults_enabled_ = false;
  double fault_prob_ = 0.0;
  double retry_penalty_ms_ = 0.0;
  uint32_t max_retries_ = 0;
  uint64_t transient_faults_ = 0;
  desp::RandomStream fault_rng_{0};
  desp::LogHistogram service_histogram_;
  obs::SpanTracer* tracer_ = nullptr;
};

}  // namespace voodb::core
