/// \file network.hpp
/// \brief The network between clients and server (Client-Server classes).
///
/// Models NETTHRU (Table 3) as a capacity-1 link whose service time is
/// bytes / throughput.  A non-positive throughput means "infinite"
/// (Table 4 sets NETTHRU = +inf for the O2 experiments, which measured
/// server-side I/Os only) and transfers complete immediately.
#pragma once

#include <cstdint>

#include "desp/actor.hpp"
#include "desp/resource.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"

namespace voodb::obs {
class MetricRegistry;
class SpanTracer;
}  // namespace voodb::obs

namespace voodb::core {

/// The network actor.
class NetworkActor : public desp::Actor {
 public:
  /// \param throughput_mbps NETTHRU in MB/s; <= 0 => infinite.
  NetworkActor(desp::Scheduler* scheduler, double throughput_mbps);

  /// Transfers `bytes` and then calls `done`.
  void Transfer(uint64_t bytes, desp::Scheduler::Action done);

  /// Time to move `bytes` (ms), ignoring queueing.
  double TransferTime(uint64_t bytes) const;

  uint64_t bytes_transferred() const { return bytes_transferred_; }
  bool infinite() const { return throughput_mbps_ <= 0.0; }

  /// Registers the link counter and utilization gauge with `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

  /// Attaches/detaches (nullptr) the span tracer: each transfer emits a
  /// network leaf (queueing + wire time) against the ambient trace
  /// context.  Infinite links transfer in zero time and emit nothing.
  void SetTracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

 private:
  /// One transfer on the wire; its completion waits here.
  struct InTransit {
    uint64_t bytes = 0;
    double requested_at = 0.0;
    desp::Scheduler::Action done;
    void Recycle() { done = nullptr; }
  };
  using TransitHandle = desp::SlotPool<InTransit>::Handle;

  /// The link released the transfer: emit its span, run `done`.
  void FinishTransfer(TransitHandle h);

  desp::Resource link_;
  desp::SlotPool<InTransit> in_transit_;
  double throughput_mbps_;
  uint64_t bytes_transferred_ = 0;
  obs::SpanTracer* tracer_ = nullptr;
};

}  // namespace voodb::core
