#include "probes.hpp"

#include <utility>

namespace perfbench {

namespace desp = voodb::desp;
namespace ocb = voodb::ocb;

size_t HostProfile::Slot(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  seconds_.push_back(0.0);
  return names_.size() - 1;
}

void HostProfile::Attach(desp::Scheduler* scheduler) {
  auto partition = std::make_unique<Partition>();
  partition->owner = this;
  partition->scheduler = scheduler;
  for (const std::string& name : scheduler->profile_tag_names()) {
    partition->slot_of_tag.push_back(Slot(name));
  }
  scheduler->SetProfileHook(&HostProfile::Hook, partition.get());
  partitions_.push_back(std::move(partition));
}

void HostProfile::Detach() {
  for (const std::unique_ptr<Partition>& partition : partitions_) {
    partition->scheduler->SetProfileHook(nullptr, nullptr);
  }
  partitions_.clear();
}

void HostProfile::Start() {
  last_slot_ = Slot("untagged");
  last_time_ = Clock::now();
}

void HostProfile::Stop() { Charge(last_slot_); }

void HostProfile::Charge(size_t next_slot) {
  const Clock::time_point now = Clock::now();
  seconds_[last_slot_] +=
      std::chrono::duration<double>(now - last_time_).count();
  last_slot_ = next_slot;
  last_time_ = now;
}

void HostProfile::Hook(void* ctx, uint16_t tag, desp::SimTime /*now*/,
                       desp::SimTime /*advance*/) {
  auto* partition = static_cast<Partition*>(ctx);
  HostProfile* owner = partition->owner;
  if (tag >= partition->slot_of_tag.size()) {
    // A tag registered after Attach (an actor built mid-run).
    const auto& names = partition->scheduler->profile_tag_names();
    for (size_t t = partition->slot_of_tag.size(); t < names.size(); ++t) {
      partition->slot_of_tag.push_back(owner->Slot(names[t]));
    }
  }
  owner->Charge(partition->slot_of_tag[tag]);
}

std::map<std::string, double> HostProfile::Seconds() const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < names_.size(); ++i) out[names_[i]] += seconds_[i];
  return out;
}

ocb::Transaction TimedWorkloadSource::Record(Clock::time_point start,
                                             ocb::Transaction txn) {
  timers_->next_s += SecondsSince(start);
  ++timers_->next_calls;
  timers_->next_accesses += txn.accesses.size();
  return txn;
}

ocb::Transaction TimedWorkloadSource::Next() {
  const Clock::time_point start = Clock::now();
  return Record(start, inner_->Next());
}

ocb::Transaction TimedWorkloadSource::NextOfKind(ocb::TransactionKind kind) {
  const Clock::time_point start = Clock::now();
  return Record(start, inner_->NextOfKind(kind));
}

void TimedClusteringPolicy::OnObjectAccess(ocb::Oid oid, bool is_write) {
  const Clock::time_point start = Clock::now();
  inner_->OnObjectAccess(oid, is_write);
  timers_->observe_s += SecondsSince(start);
  ++timers_->observe_calls;
}

voodb::cluster::ClusteringOutcome TimedClusteringPolicy::Recluster(
    const ocb::ObjectBase& base, const voodb::storage::Placement& current) {
  const Clock::time_point start = Clock::now();
  voodb::cluster::ClusteringOutcome outcome = inner_->Recluster(base, current);
  timers_->recluster_s += SecondsSince(start);
  ++timers_->recluster_calls;
  return outcome;
}

}  // namespace perfbench
