#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cluster/dstc.hpp"
#include "desp/random.hpp"
#include "exp/executor.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "voodb/catalog.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace perfbench {

namespace core = voodb::core;
namespace ocb = voodb::ocb;

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr struct {
  WorkloadKind kind;
  const char* name;
} kNames[] = {{WorkloadKind::kPaperDstc, "paper_dstc"},
              {WorkloadKind::kCcContention, "cc_contention"},
              {WorkloadKind::kShardedMvcc, "sharded_mvcc"}};

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const auto& entry : kNames) {
    if (name == entry.name) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

const char* Name(WorkloadKind kind) {
  for (const auto& entry : kNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

// OCB seeds must stay exactly representable as doubles (the parameter
// registry's bound), hence the 53-bit mask.
uint64_t BaseSeed(uint32_t base_index) {
  return SplitMix64(0xBA5E0000ull + base_index) & ((1ull << 53) - 1);
}

uint64_t ReplicationSeed(uint32_t pool_index) {
  return SplitMix64(0x5EED0000ull + pool_index);
}

voodb::ocb::ObjectBase GenerateBase(const WorkloadSpec& spec,
                                    uint32_t base_index) {
  ocb::OcbParameters params = spec.ocb;
  params.seed = BaseSeed(base_index);
  return ocb::ObjectBase::Generate(params);
}

Input InputFor(uint64_t seed, uint64_t r) {
  // Consecutive replications change both the replication seed and the
  // base, and any kBasePool x kReplicationPool consecutive ones cover every
  // input once.  2^64 is a multiple of the input count, so the sum
  // wrapping keeps the walk in order.
  constexpr uint64_t kInputs = uint64_t{kBasePool} * kReplicationPool;
  const uint64_t i = (SplitMix64(seed) + r) % kInputs;
  return Input{static_cast<uint32_t>((i / kReplicationPool + i) % kBasePool),
               static_cast<uint32_t>(i % kReplicationPool)};
}

WorkloadSpec Spec(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  switch (kind) {
    case WorkloadKind::kPaperDstc:
      // Table 8: the NC=50 / NO=20000 base (~21 MB) under 8 MB of Texas
      // memory, one user, depth-3 hierarchy traversals from a 30-root hot
      // set, HOTN transactions per usage phase.
      spec.ocb.num_classes = 50;
      spec.ocb.num_objects = 20000;
      spec.ocb.hierarchy_depth = 3;
      spec.ocb.root_region = 30;
      spec.system = core::SystemCatalog::TexasWithMemory(8.0);
      spec.transactions = 1000;
      break;
    case WorkloadKind::kCcContention:
      // The cc_abyss cell at 1024 users under wait-die: 8 uniform random
      // accesses per transaction, 25% writes, three transactions per user
      // so the run measures steady contention, not the start-up ramp.
      spec.ocb.num_classes = 20;
      spec.ocb.num_objects = 20000;
      spec.ocb.p_set = 0.0;
      spec.ocb.p_simple = 0.0;
      spec.ocb.p_hierarchy = 0.0;
      spec.ocb.p_stochastic = 0.0;
      spec.ocb.p_random_access = 1.0;
      spec.ocb.random_access_count = 8;
      spec.ocb.p_update = 0.25;
      spec.system.system_class = core::SystemClass::kCentralized;
      spec.system.buffer_pages = 1024;
      spec.system.use_lock_manager = true;
      spec.system.cc_protocol = voodb::cc::ProtocolKind::kWaitDie;
      spec.system.num_users = 1024;
      spec.system.multiprogramming_level = 1024;
      spec.transactions = 3 * 1024;
      break;
    case WorkloadKind::kShardedMvcc:
      // shard_scale at 8 shards on 4 simulation threads, MVCC, 20%
      // multi-partition transactions over a 1 MB/s network.
      spec.ocb.num_classes = 20;
      spec.ocb.num_objects = 8000;
      spec.ocb.think_time_ms = 1.0;
      spec.ocb.p_update = 0.25;
      spec.system.system_class = core::SystemClass::kCentralized;
      spec.system.buffer_pages = 512;
      spec.system.network_throughput_mbps = 1.0;
      spec.system.num_users = 3;
      spec.system.multi_partition_pct = 0.2;
      spec.system.shards = 8;
      spec.system.use_lock_manager = true;
      spec.system.cc_protocol = voodb::cc::ProtocolKind::kMvcc;
      spec.transactions = 250;
      spec.sim_threads = 4;
      break;
  }
  return spec;
}

bool Fingerprint::operator==(const Fingerprint& other) const {
  return committed == other.committed && restarts == other.restarts &&
         ios == other.ios && events == other.events &&
         sim_end_ms == other.sim_end_ms && digest == other.digest;
}

std::string Fingerprint::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu %llu %llu %llu %a %016llx",
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(restarts),
                static_cast<unsigned long long>(ios),
                static_cast<unsigned long long>(events), sim_end_ms,
                static_cast<unsigned long long>(digest));
  return buf;
}

struct Replica::State {
  WorkloadSpec spec;
  Probes* probes = nullptr;
  std::unique_ptr<core::VoodbSystem> system;
  std::unique_ptr<ocb::WorkloadGenerator> generator;
  std::unique_ptr<TimedWorkloadSource> timed_source;
  ocb::WorkloadSource* source = nullptr;
  std::unique_ptr<core::ShardedVoodb> sharded;
  std::map<std::string, double> extra;  ///< benchmark-side measurements
};

Replica::Replica(const WorkloadSpec& spec, const ocb::ObjectBase& base,
                 uint64_t seed, Probes* probes)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.spec = spec;
  s.probes = probes;
  if (spec.kind == WorkloadKind::kShardedMvcc) {
    s.sharded = std::make_unique<core::ShardedVoodb>(spec.system, &base, seed);
    return;
  }
  std::unique_ptr<voodb::cluster::ClusteringPolicy> policy;
  if (spec.kind == WorkloadKind::kPaperDstc) {
    policy = std::make_unique<voodb::cluster::DstcPolicy>();
    if (probes != nullptr) {
      policy = std::make_unique<TimedClusteringPolicy>(std::move(policy),
                                                       &probes->timers);
    }
  }
  s.system = std::make_unique<core::VoodbSystem>(spec.system, &base,
                                                 std::move(policy), seed);
  s.generator = std::make_unique<ocb::WorkloadGenerator>(
      &base, voodb::desp::RandomStream(seed).Derive(1));
  s.source = s.generator.get();
  if (probes != nullptr) {
    s.timed_source = std::make_unique<TimedWorkloadSource>(s.generator.get(),
                                                           &probes->timers);
    s.source = s.timed_source.get();
  }
}

Replica::~Replica() = default;

Fingerprint Replica::Run(voodb::exp::ThreadPool* pool) {
  State& s = *state_;
  Fingerprint fp;
  HostProfile* host = s.probes != nullptr ? &s.probes->host : nullptr;
  if (s.sharded != nullptr) {
    voodb::desp::ParallelScheduler& kernel = s.sharded->kernel();
    if (host != nullptr) {
      if (pool != nullptr && pool->thread_count() > 1) {
        throw std::invalid_argument(
            "host-time probes need a serial kernel: dispatches on several "
            "threads do not form one sequence");
      }
      for (size_t p = 0; p < kernel.partitions(); ++p) {
        host->Attach(&kernel.partition(p));
      }
      host->Start();
    }
    const core::PhaseMetrics m = s.sharded->Run(s.spec.transactions, pool);
    if (host != nullptr) {
      host->Stop();
      host->Detach();
    }
    fp.committed = m.transactions;
    fp.restarts = m.transaction_restarts;
    fp.ios = m.total_ios;
    fp.events = kernel.ExecutedEvents();
    fp.sim_end_ms = kernel.MaxNow();
    fp.digest = s.sharded->TraceDigest();
    s.extra["net.remote_subtxns"] =
        static_cast<double>(s.sharded->remote_subtxns());
    s.extra["par.windows"] = static_cast<double>(kernel.Windows());
    s.extra["par.cross_events"] = static_cast<double>(kernel.CrossEvents());
    return fp;
  }

  core::VoodbSystem& sys = *s.system;
  if (host != nullptr) {
    host->Attach(&sys.scheduler());
    host->Start();
  }
  if (s.spec.kind == WorkloadKind::kPaperDstc) {
    // Usage phase, external clustering trigger, cold restart, usage phase.
    const auto kind = ocb::TransactionKind::kHierarchyTraversal;
    const core::PhaseMetrics pre =
        sys.RunTransactionsOfKind(*s.source, kind, s.spec.transactions);
    const Clock::time_point trigger_start = Clock::now();
    const core::ClusteringMetrics cm = sys.TriggerClustering();
    s.extra["cluster.trigger_s"] = SecondsSince(trigger_start);
    sys.DropBuffer();
    const core::PhaseMetrics post =
        sys.RunTransactionsOfKind(*s.source, kind, s.spec.transactions);
    fp.committed = pre.transactions + post.transactions;
    fp.restarts = pre.transaction_restarts + post.transaction_restarts;
    fp.ios = pre.total_ios + cm.overhead_ios + post.total_ios;
    s.extra["cluster.pre_ios"] = static_cast<double>(pre.total_ios);
    s.extra["cluster.post_ios"] = static_cast<double>(post.total_ios);
  } else {
    const core::PhaseMetrics m =
        sys.RunTransactions(*s.source, s.spec.transactions);
    fp.committed = m.transactions;
    fp.restarts = m.transaction_restarts;
    fp.ios = m.total_ios;
  }
  if (host != nullptr) {
    host->Stop();
    host->Detach();
  }
  fp.events = sys.scheduler().ExecutedEvents();
  fp.sim_end_ms = sys.scheduler().Now();
  return fp;
}

std::map<std::string, double> Replica::LayerCounters() const {
  const State& s = *state_;
  const voodb::obs::MetricSnapshot snap =
      s.sharded != nullptr ? s.sharded->MergedMetrics()
                           : s.system->metric_registry().Snapshot();
  std::map<std::string, double> out = s.extra;
  for (const char* name :
       {"cc.begins", "cc.commits", "cc.requests", "cc.waits",
        "cc.versions.installed", "buffer.requests", "buffer.hits", "io.reads",
        "io.writes", "net.bytes", "sim.queue.heap_pops", "sim.queue.lane_pops",
        "sim.queue.compactions", "cluster.overhead_ios"}) {
    const auto it = snap.counters.find(name);
    out[name] = it == snap.counters.end() ? 0.0
                                          : static_cast<double>(it->second);
  }
  // Gauges are one observation per system: sum the page count across
  // shards, average the utilizations.
  const auto gauge = [&snap](const char* name, bool sum) {
    const auto it = snap.gauges.find(name);
    if (it == snap.gauges.end()) return 0.0;
    return sum ? it->second.sum() : it->second.mean();
  };
  out["buffer.dirty_pages"] = gauge("buffer.dirty_pages", true);
  out["io.disk_utilization"] = gauge("io.disk_utilization", false);
  out["net.utilization"] = gauge("net.utilization", false);
  const auto p99 = [&snap](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() || it->second.count() == 0
               ? 0.0
               : it->second.Quantile(0.99);
  };
  out["cc.wait_p99_ms"] = p99("cc.wait_ms");
  out["io.service_p99_ms"] = p99("io.service_ms");
  return out;
}

}  // namespace perfbench
