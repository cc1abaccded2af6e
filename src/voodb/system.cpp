#include "voodb/system.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace voodb::core {

VoodbSystem::VoodbSystem(VoodbConfig config, const ocb::ObjectBase* base,
                         std::unique_ptr<cluster::ClusteringPolicy> policy,
                         uint64_t seed, desp::Scheduler* scheduler,
                         uint64_t trace_global_id_base)
    : config_(config),
      base_(base),
      owned_scheduler_(scheduler == nullptr
                           ? std::make_unique<desp::Scheduler>(
                                 config.event_queue)
                           : nullptr),
      scheduler_(scheduler == nullptr ? owned_scheduler_.get() : scheduler),
      rng_(seed) {
  config_.Validate();
  VOODB_CHECK_MSG(base_ != nullptr, "system needs an object base");
  // Derived once: seeds the Buffering Manager's stream AND, when
  // recording, the trace header — bit-exact replay of the RANDOM policy
  // depends on the two staying the same stream.
  const desp::RandomStream buffer_rng = rng_.Derive(0xB0FF);
  object_manager_ = std::make_unique<ObjectManagerActor>(
      scheduler_, base_, config_.page_size, config_.initial_placement,
      config_.storage_overhead);
  io_ = std::make_unique<IoSubsystemActor>(scheduler_, config_.disk);
  network_ = std::make_unique<NetworkActor>(scheduler_,
                                            config_.network_throughput_mbps);
  buffering_ = std::make_unique<BufferingManagerActor>(
      scheduler_, config_, object_manager_.get(), io_.get(), buffer_rng);
  clustering_ = std::make_unique<ClusteringManagerActor>(
      scheduler_, std::move(policy), object_manager_.get(), buffering_.get(),
      io_.get());
  tm_ = std::make_unique<TransactionManagerActor>(
      scheduler_, config_, object_manager_.get(), buffering_.get(),
      clustering_.get(), network_.get());
  if (config_.trace_spans) {
    obs::SpanTracer::Options topts;
    topts.sample_seed = seed;
    topts.sample_rate = config_.trace_sample_rate;
    topts.exemplars = config_.trace_exemplars;
    topts.global_id_base = trace_global_id_base;
    tracer_ = std::make_unique<obs::SpanTracer>(scheduler_, topts);
    // At most MULTILVL transactions are admitted (and thus traced) at
    // once; pre-size the slabs so steady-state tracing never allocates.
    tracer_->Reserve(config_.multiprogramming_level + 4);
    tm_->SetTracer(tracer_.get());
    io_->SetTracer(tracer_.get());
    network_->SetTracer(tracer_.get());
  }
  scheduler_->SetLaneEnabled(config_.fast_lane);
  // Pre-size the kernel for the steady-state event population so
  // contention-scale runs never reallocate on the schedule/fire hot
  // path: each user keeps a few events pending (think timer, submit
  // continuation, I/O completion, hazard timeout) and each pooled
  // inflight transaction can hold a same-timestamp cc decision
  // continuation.
  scheduler_->Reserve(static_cast<size_t>(config_.num_users) * 4 +
                      tm_->inflight_pool_capacity() * 2 + 64);
  if (config_.disk_fault_prob > 0.0) {
    io_->SetFaultModel(config_.disk_fault_prob, config_.disk_fault_retry_ms,
                       config_.disk_fault_max_retries, rng_.Derive(0xFA17));
  }
  if (config_.failure_mtbf_ms > 0.0) {
    FailureParameters fp;
    fp.mtbf_ms = config_.failure_mtbf_ms;
    fp.recovery_base_ms = config_.recovery_base_ms;
    fp.recovery_per_dirty_page_ms = config_.recovery_per_dirty_page_ms;
    failures_ = std::make_unique<FailureInjectorActor>(
        scheduler_, fp, buffering_.get(), io_.get(), rng_.Derive(0xC7A5));
    failures_->Arm();
  }
  if (config_.workload_source == WorkloadSourceKind::kTrace) {
    trace_workload_ =
        std::make_unique<trace::TraceWorkload>(config_.trace_path);
  }
  if (config_.workload_source == WorkloadSourceKind::kYcsbZipf) {
    // Seeded from the replication stream like the buffer RNG, so every
    // replication draws an independent but reproducible key sequence.
    ycsb_workload_ = std::make_unique<ocb::YcsbZipfWorkload>(
        base_, rng_.Derive(0x59C5B));
  }
  if (config_.trace_record) {
    trace::Header header;
    header.page_size = config_.page_size;
    header.buffer_pages = config_.buffer_pages;
    header.replacement_policy =
        static_cast<uint8_t>(config_.page_replacement);
    header.prefetch_policy = static_cast<uint8_t>(config_.prefetch);
    header.lru_k = config_.lru_k;
    header.prefetch_depth = config_.prefetch_depth;
    header.num_classes = base_->params().num_classes;
    header.num_objects = base_->NumObjects();
    header.num_pages = object_manager_->NumPages();
    // The exact stream the buffer manager's RANDOM policy was seeded
    // with, so replays are bit-exact.
    header.seed = buffer_rng.seed();
    if (config_.use_virtual_memory) header.flags |= trace::kFlagVirtualMemory;
    if (config_.flush_on_commit) header.flags |= trace::kFlagCommitFlush;
    if (config_.failure_mtbf_ms > 0.0) {
      header.flags |= trace::kFlagCrashHazard;
    }
    trace_writer_ =
        std::make_unique<trace::Writer>(config_.trace_path, header);
    trace_recorder_ = std::make_unique<trace::Recorder>(trace_writer_.get());
    buffering_->SetRecorder(trace_recorder_.get());
    object_manager_->SetRecorder(trace_recorder_.get());
    tm_->SetRecorder(trace_recorder_.get());
  }
  RegisterMetrics();
  if (config_.observe || !config_.profile_path.empty()) {
    // Span capture (for the Chrome trace) only when a path asks for it:
    // the aggregate per-actor totals alone need no per-event storage.
    profiler_ = std::make_unique<obs::SimProfiler>(
        /*capture_spans=*/!config_.profile_path.empty());
    profiler_->Attach(scheduler_);
  }
}

VoodbSystem::~VoodbSystem() {
  FinishTrace();
  FinishProfile();
}

void VoodbSystem::FinishProfile() {
  if (profiler_ == nullptr || config_.profile_path.empty()) return;
  if (profile_written_) return;
  profile_written_ = true;
  profiler_->WriteChromeTrace(config_.profile_path);
}

void VoodbSystem::RegisterMetrics() {
  tm_->RegisterMetrics(metrics_);  // also registers the lock manager
  buffering_->RegisterMetrics(metrics_);
  object_manager_->RegisterMetrics(metrics_);
  clustering_->RegisterMetrics(metrics_);
  io_->RegisterMetrics(metrics_);
  network_->RegisterMetrics(metrics_);
  metrics_.RegisterGauge("sim.now_ms", [this] { return scheduler_->Now(); });
  metrics_.RegisterGauge("sim.executed_events", [this] {
    return static_cast<double>(scheduler_->ExecutedEvents());
  });
  // Kernel event-list counters: the scheduler already increments these
  // cells on its hot path, so registering pointers costs nothing.  Note
  // the heap/lane split is a per-scheduler performance detail — sharded
  // runs route differently than serial ones — so identity checks compare
  // simulation state (digests, actor metrics), never sim.queue.*.
  const desp::QueueStats& qs = scheduler_->queue_stats();
  metrics_.RegisterCounter("sim.queue.heap_pushes", &qs.heap_pushes);
  metrics_.RegisterCounter("sim.queue.heap_pops", &qs.heap_pops);
  metrics_.RegisterCounter("sim.queue.lane_pushes", &qs.lane_pushes);
  metrics_.RegisterCounter("sim.queue.lane_pops", &qs.lane_pops);
  metrics_.RegisterCounter("sim.queue.skims", &qs.skims);
  metrics_.RegisterCounter("sim.queue.compactions", &qs.compactions);
}

void VoodbSystem::FinishTrace() {
  if (trace_writer_ == nullptr || trace_writer_->finished()) return;
  // Detach first: the system stays usable after the trace is finalized,
  // and a dangling recorder would throw (and overrun its chunk buffer)
  // on the next flush.
  buffering_->SetRecorder(nullptr);
  object_manager_->SetRecorder(nullptr);
  tm_->SetRecorder(nullptr);
  trace_recorder_->Flush();
  if (buffering_->DroppedWhileRecording()) {
    trace_writer_->AddFlags(trace::kFlagBufferDrop);
  }
  trace_writer_->Finish(buffering_->TraceCountersNow());
}

PhaseMetrics VoodbSystem::RunTransactions(ocb::WorkloadSource& workload,
                                          uint64_t n) {
  return Drive(workload, nullptr, n);
}

PhaseMetrics VoodbSystem::RunTransactionsOfKind(ocb::WorkloadSource& workload,
                                                ocb::TransactionKind kind,
                                                uint64_t n) {
  return Drive(workload, &kind, n);
}

PhaseMetrics VoodbSystem::Drive(ocb::WorkloadSource& external_workload,
                                const ocb::TransactionKind* forced_kind,
                                uint64_t n) {
  // workload_source = trace / ycsb_zipf substitutes the configured
  // stream for whatever generator the caller handed in; every scenario
  // gains trace replay and the YCSB axis without touching its run hook.
  ocb::WorkloadSource& workload =
      trace_workload_ != nullptr
          ? static_cast<ocb::WorkloadSource&>(*trace_workload_)
      : ycsb_workload_ != nullptr
          ? static_cast<ocb::WorkloadSource&>(*ycsb_workload_)
          : external_workload;
  const Snapshot before = Take();
  if (n == 0) return Delta(before);

  // The Users active resource: NUSERS independent users draw transactions
  // from the shared generator, think, submit, and repeat until the phase's
  // n transactions have been issued.
  struct UsersDriver {
    VoodbSystem* sys;
    ocb::WorkloadSource* workload;
    const ocb::TransactionKind* forced_kind;
    uint64_t to_issue;
    uint64_t outstanding = 0;
    desp::RandomStream think_rng;
    double think_time_ms;

    void UserLoop(uint32_t user) {
      if (to_issue == 0) {
        // Phase exhausted; the user retires.  Once the last in-flight
        // transaction commits, the phase ends — even if hazard events
        // are still armed on the scheduler.
        if (outstanding == 0) sys->scheduler_->Stop();
        return;
      }
      --to_issue;
      ++outstanding;
      ocb::Transaction txn = forced_kind != nullptr
                                 ? workload->NextOfKind(*forced_kind)
                                 : workload->Next();
      // Transaction markers frame the object stream the Object Manager
      // records, carrying the issuing user's id (format v2) so
      // concurrent runs replay as per-user transaction streams.
      sys->RecordTxnBegin(txn.kind, user);
      auto submit = [this, user, txn = std::move(txn)]() mutable {
        sys->tm_->Submit(std::move(txn), [this, user]() { AfterCommit(user); });
      };
      if (think_time_ms > 0.0) {
        sys->scheduler_->Schedule(think_rng.Exponential(think_time_ms),
                                 std::move(submit));
      } else {
        submit();
      }
    }

    void AfterCommit(uint32_t user) {
      --outstanding;
      sys->RecordTxnEnd();
      // Automatic triggering happens at transaction boundaries.
      if (sys->config_.auto_clustering &&
          sys->clustering_->ShouldTrigger()) {
        sys->clustering_->PerformClustering(
            [this, user](ClusteringMetrics) { UserLoop(user); });
        return;
      }
      UserLoop(user);
    }
  };

  UsersDriver driver{this,
                     &workload,
                     forced_kind,
                     n,
                     0,
                     rng_.Derive(0x7817 + tm_->committed()),
                     base_->params().think_time_ms};
  const uint32_t active_users =
      static_cast<uint32_t>(std::min<uint64_t>(config_.num_users, n));
  for (uint32_t u = 0; u < active_users; ++u) driver.UserLoop(u);
  scheduler_->Run();
  VOODB_CHECK_MSG(driver.to_issue == 0 && driver.outstanding == 0,
                  "phase ended with unfinished work");
  return Delta(before);
}

void VoodbSystem::RecordTxnBegin(ocb::TransactionKind kind, uint32_t user) {
  if (trace_recorder_ == nullptr) return;
  trace_recorder_->OnTxnBegin(static_cast<uint64_t>(kind), user);
}

void VoodbSystem::RecordTxnEnd() {
  if (trace_recorder_ != nullptr) trace_recorder_->OnTxnEnd();
}

ClusteringMetrics VoodbSystem::TriggerClustering() {
  ClusteringMetrics metrics;
  bool finished = false;
  clustering_->PerformClustering([&](ClusteringMetrics m) {
    metrics = m;
    finished = true;
  });
  // Step (don't drain): armed hazard events may outlive the
  // reorganization.
  while (!finished && scheduler_->Step()) {
  }
  VOODB_CHECK_MSG(finished, "clustering did not complete");
  return metrics;
}

VoodbSystem::Snapshot VoodbSystem::Take() const {
  Snapshot s;
  s.ios = io_->total_ios();
  s.reads = io_->reads();
  s.writes = io_->writes();
  s.hits = buffering_->hits();
  s.requests = buffering_->requests();
  s.committed = tm_->committed();
  s.operations = tm_->object_operations();
  s.restarts = tm_->restarts();
  s.net_bytes = network_->bytes_transferred();
  s.response_count = tm_->response_times().count();
  s.response_sum = tm_->response_times().sum();
  s.time = scheduler_->Now();
  s.response_histogram = tm_->response_histogram();
  if (tm_->cc_protocol() != nullptr) {
    s.lock_wait_histogram = tm_->cc_protocol()->stats().wait_histogram;
  }
  s.disk_service_histogram = io_->service_histogram();
  if (tracer_ != nullptr) s.component_histograms = tracer_->components();
  return s;
}

PhaseMetrics VoodbSystem::Delta(const Snapshot& before) const {
  const Snapshot after = Take();
  PhaseMetrics m;
  m.transactions = after.committed - before.committed;
  m.object_accesses = after.operations - before.operations;
  m.transaction_restarts = after.restarts - before.restarts;
  m.total_ios = after.ios - before.ios;
  m.reads = after.reads - before.reads;
  m.writes = after.writes - before.writes;
  m.buffer_hits = after.hits - before.hits;
  m.buffer_requests = after.requests - before.requests;
  m.network_bytes = after.net_bytes - before.net_bytes;
  m.sim_time_ms = after.time - before.time;
  const uint64_t responses = after.response_count - before.response_count;
  m.mean_response_ms =
      responses == 0
          ? 0.0
          : (after.response_sum - before.response_sum) /
                static_cast<double>(responses);
  m.response_histogram =
      after.response_histogram.DeltaSince(before.response_histogram);
  m.lock_wait_histogram =
      after.lock_wait_histogram.DeltaSince(before.lock_wait_histogram);
  m.disk_service_histogram =
      after.disk_service_histogram.DeltaSince(before.disk_service_histogram);
  m.component_histograms =
      after.component_histograms.DeltaSince(before.component_histograms);
  // The histogram's tracked max is authoritative (run-cumulative: the
  // per-bucket counts are exact deltas, min/max carry over — see
  // desp::LogHistogram::DeltaSince).
  m.max_response_ms = m.response_histogram.max();
  return m;
}

}  // namespace voodb::core
