#include "voodb/network.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/check.hpp"

namespace voodb::core {

NetworkActor::NetworkActor(desp::Scheduler* scheduler, double throughput_mbps)
    : Actor(scheduler, "network"),
      link_(scheduler, "network-link", /*capacity=*/1),
      throughput_mbps_(throughput_mbps) {}

double NetworkActor::TransferTime(uint64_t bytes) const {
  if (infinite()) return 0.0;
  // MB/s -> bytes/ms: 1 MB/s = 1e6 B / 1e3 ms = 1000 B/ms.
  return static_cast<double>(bytes) / (throughput_mbps_ * 1000.0);
}

void NetworkActor::Transfer(uint64_t bytes, desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(static_cast<bool>(done), "Transfer needs a continuation");
  bytes_transferred_ += bytes;
  if (infinite()) {
    done();
    return;
  }
  const TransitHandle h = in_transit_.Alloc();
  InTransit& transfer = in_transit_.At(h);
  transfer.bytes = bytes;
  transfer.requested_at = Now();
  transfer.done = std::move(done);
  link_.AcquireFor(TransferTime(bytes), [this, h]() { FinishTransfer(h); });
}

void NetworkActor::FinishTransfer(TransitHandle h) {
  InTransit& transfer = in_transit_.At(h);
  if (tracer_ != nullptr) {
    // Runs in the requester's trace context (resource grants restore it;
    // the service wait inherits).
    tracer_->AmbientLeaf(obs::SpanKind::kNet, transfer.bytes,
                         transfer.requested_at, Now());
  }
  desp::Scheduler::Action done = std::move(transfer.done);
  in_transit_.Free(h);
  done();
}

void NetworkActor::RegisterMetrics(obs::MetricRegistry& registry) const {
  registry.RegisterCounter("net.bytes", &bytes_transferred_);
  registry.RegisterGauge("net.utilization",
                         [this] { return link_.Utilization(); });
}

}  // namespace voodb::core
