/// \file probes.hpp
/// \brief Per-layer host-time probes, attached from outside the simulator.
///
/// Nothing here changes what is simulated: the decorators forward every
/// call unchanged and the scheduler hook only reads the clock, so a probed
/// replication must reproduce the unprobed fingerprint exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy.hpp"
#include "desp/scheduler.hpp"
#include "ocb/workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host time per actor tag, from `desp::Scheduler::SetProfileHook`: the
/// time between two dispatches is charged to the tag of the earlier event,
/// i.e. to the actor whose event ran in between.  One profile may span
/// several schedulers (a sharded kernel's partitions) as long as they run
/// on one thread, so that dispatches form a single sequence.
class HostProfile {
 public:
  HostProfile() = default;
  HostProfile(const HostProfile&) = delete;
  HostProfile& operator=(const HostProfile&) = delete;

  /// Installs the hook on `scheduler`, which must outlive the attachment;
  /// Detach() before it is destroyed.
  void Attach(voodb::desp::Scheduler* scheduler);
  /// Removes the hook from every attached scheduler.
  void Detach();

  /// Opens a measured interval: time until the first dispatch is charged
  /// to "untagged".
  void Start();
  /// Closes it, charging the time since the last dispatch to its tag.
  void Stop();

  /// Host seconds per tag name, summed over every interval so far.
  std::map<std::string, double> Seconds() const;

 private:
  struct Partition {
    HostProfile* owner = nullptr;
    voodb::desp::Scheduler* scheduler = nullptr;
    std::vector<size_t> slot_of_tag;  ///< scheduler tag id -> seconds_ slot
  };
  static void Hook(void* ctx, uint16_t tag, voodb::desp::SimTime now,
                   voodb::desp::SimTime advance);
  size_t Slot(const std::string& name);
  void Charge(size_t next_slot);

  std::vector<std::string> names_;
  std::vector<double> seconds_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  size_t last_slot_ = 0;
  Clock::time_point last_time_{};
};

/// Accumulated decorator timings (summed over replications).
struct LayerTimers {
  double next_s = 0.0;            ///< WorkloadSource::Next/NextOfKind
  uint64_t next_calls = 0;
  uint64_t next_accesses = 0;     ///< object accesses in those transactions
  double observe_s = 0.0;         ///< ClusteringPolicy::OnObjectAccess
  uint64_t observe_calls = 0;
  double recluster_s = 0.0;       ///< ClusteringPolicy::Recluster
  uint64_t recluster_calls = 0;
};

/// Everything a probed replication reports into.
struct Probes {
  HostProfile host;
  LayerTimers timers;
};

/// Times every transaction the wrapped source supplies.
class TimedWorkloadSource final : public voodb::ocb::WorkloadSource {
 public:
  TimedWorkloadSource(voodb::ocb::WorkloadSource* inner, LayerTimers* timers)
      : inner_(inner), timers_(timers) {}

  voodb::ocb::Transaction Next() override;
  voodb::ocb::Transaction NextOfKind(
      voodb::ocb::TransactionKind kind) override;

 private:
  voodb::ocb::Transaction Record(Clock::time_point start,
                                 voodb::ocb::Transaction txn);

  voodb::ocb::WorkloadSource* inner_;
  LayerTimers* timers_;
};

/// Times the wrapped policy's statistics collection and reorganization.
class TimedClusteringPolicy final : public voodb::cluster::ClusteringPolicy {
 public:
  TimedClusteringPolicy(
      std::unique_ptr<voodb::cluster::ClusteringPolicy> inner,
      LayerTimers* timers)
      : inner_(std::move(inner)), timers_(timers) {}

  const char* name() const override { return inner_->name(); }
  void OnTransactionStart() override { inner_->OnTransactionStart(); }
  void OnObjectAccess(voodb::ocb::Oid oid, bool is_write) override;
  void OnTransactionEnd() override { inner_->OnTransactionEnd(); }
  bool ShouldTrigger() const override { return inner_->ShouldTrigger(); }
  voodb::cluster::ClusteringOutcome Recluster(
      const voodb::ocb::ObjectBase& base,
      const voodb::storage::Placement& current) override;
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<voodb::cluster::ClusteringPolicy> inner_;
  LayerTimers* timers_;
};

}  // namespace perfbench
