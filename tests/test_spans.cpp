/// \file test_spans.cpp
/// \brief Causal span tracing: tree construction, critical-path folding,
/// the Sum()==response contract, sampling determinism, observe-neutrality,
/// and cross-shard exemplar stitching.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cc/protocol.hpp"
#include "desp/scheduler.hpp"
#include "exp/executor.hpp"
#include "obs/spans.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace voodb {
namespace {

using obs::AbortCause;
using obs::Exemplar;
using obs::ExemplarSpan;
using obs::SpanKind;
using obs::SpanTracer;

SpanTracer::Options AllOptions(uint32_t exemplars = 8) {
  SpanTracer::Options opts;
  opts.sample_rate = 1.0;
  opts.exemplars = exemplars;
  return opts;
}

/// Every span interval must lie inside its parent's (preorder + depth
/// encode the tree), and no span may end before it begins.
void ExpectNested(const Exemplar& e) {
  std::vector<const ExemplarSpan*> stack;
  for (const ExemplarSpan& s : e.spans) {
    EXPECT_LE(s.begin_ms, s.end_ms);
    while (stack.size() > s.depth) stack.pop_back();
    if (!stack.empty()) {
      const ExemplarSpan* parent = stack.back();
      EXPECT_GE(s.begin_ms, parent->begin_ms);
      EXPECT_LE(s.end_ms, parent->end_ms);
    }
    stack.push_back(&s);
  }
}

// --- SpanTracer unit behavior ----------------------------------------------

TEST(SpanTracer, BuildsTreeAndFoldsCriticalPathExactly) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  const uint32_t t = tracer.BeginTrace(1, 0.0);
  ASSERT_NE(t, 0u);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 0.0, 1.5);
  tracer.Leaf(t, SpanKind::kCcWait, 7, 1.5, 3.0);
  tracer.Open(t, SpanKind::kBuffer, 7, 3.0);
  tracer.Leaf(t, SpanKind::kIo, 2, 3.0, 8.0);
  tracer.Close(t, 8.0);  // buffer (fully covered by the disk IO)
  tracer.Close(t, 9.0);  // attempt
  tracer.FinishCommitted(t, 9.0, 9.0);

  ASSERT_EQ(tracer.exemplars().size(), 1u);
  const Exemplar& e = tracer.exemplars().front();
  EXPECT_DOUBLE_EQ(e.path.cpu_ms, 1.5);
  EXPECT_DOUBLE_EQ(e.path.lock_wait_ms, 1.5);
  EXPECT_DOUBLE_EQ(e.path.io_ms, 5.0);
  EXPECT_DOUBLE_EQ(e.path.net_ms, 0.0);
  EXPECT_DOUBLE_EQ(e.path.retry_ms, 0.0);
  // The exactness contract, compared as bits.
  const double sum = e.path.Sum();
  EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
  // root + attempt + cpu + cc_wait + buffer + io, preorder.
  ASSERT_EQ(e.spans.size(), 6u);
  EXPECT_EQ(e.spans[0].kind, SpanKind::kTxn);
  EXPECT_EQ(e.spans[1].kind, SpanKind::kAttempt);
  ExpectNested(e);
}

TEST(SpanTracer, AbortedAttemptsAndBackoffsFoldIntoRetry) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  const uint32_t t = tracer.BeginTrace(3, 0.0);
  ASSERT_NE(t, 0u);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 0.0, 2.0);
  tracer.NoteAbort(t, AbortCause::kNoWait);
  tracer.Close(t, 2.0);  // aborted attempt
  tracer.Leaf(t, SpanKind::kBackoff, 1, 2.0, 5.0);
  tracer.Open(t, SpanKind::kAttempt, 2, 5.0);
  tracer.Leaf(t, SpanKind::kCpu, 0, 5.0, 6.0);
  tracer.Close(t, 9.0);
  tracer.FinishCommitted(t, 9.0, 9.0);

  ASSERT_EQ(tracer.exemplars().size(), 1u);
  const Exemplar& e = tracer.exemplars().front();
  // The whole first attempt (2.0) plus the backoff (3.0) is redo work.
  EXPECT_DOUBLE_EQ(e.path.retry_ms, 5.0);
  EXPECT_DOUBLE_EQ(e.path.cpu_ms, 1.0);
  const double sum = e.path.Sum();
  EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
  bool saw_cause = false;
  for (const ExemplarSpan& s : e.spans) {
    if (s.kind == SpanKind::kAttempt && s.label == 1) {
      EXPECT_EQ(s.abort_cause, AbortCause::kNoWait);
      saw_cause = true;
    }
  }
  EXPECT_TRUE(saw_cause);
}

TEST(SpanTracer, FinishedTracesIgnoreLateWrites) {
  desp::Scheduler sched;
  SpanTracer tracer(&sched, AllOptions());
  const uint32_t t = tracer.BeginTrace(1, 0.0);
  tracer.Open(t, SpanKind::kAttempt, 1, 0.0);
  tracer.Close(t, 1.0);
  tracer.FinishCommitted(t, 1.0, 1.0);
  // The slot is recycled; writes against the stale ctx (old generation)
  // must be dropped, not attributed to whoever reuses the slot.
  tracer.Leaf(t, SpanKind::kIo, 0, 1.0, 2.0);
  tracer.NoteAbort(t, AbortCause::kDeadlock);
  const uint32_t t2 = tracer.BeginTrace(2, 2.0);
  ASSERT_NE(t2, t);  // generation bumps the ctx id on slot reuse
  tracer.Open(t2, SpanKind::kAttempt, 1, 2.0);
  tracer.Close(t2, 3.0);
  tracer.FinishCommitted(t2, 1.0, 3.0);
  EXPECT_EQ(tracer.traces_finished(), 2u);
  // Neither late write leaked into the second trace's tree.
  for (const Exemplar& e : tracer.exemplars()) {
    for (const ExemplarSpan& s : e.spans) {
      EXPECT_NE(s.kind, SpanKind::kIo);
      EXPECT_EQ(s.abort_cause, AbortCause::kNone);
    }
  }
}

TEST(SpanTracer, SamplingIsDeterministicAndRateShaped) {
  EXPECT_TRUE(SpanTracer::Sampled(7, 123, 1.0));
  EXPECT_FALSE(SpanTracer::Sampled(7, 123, 0.0));
  uint64_t sampled = 0;
  for (uint64_t id = 0; id < 4000; ++id) {
    const bool first = SpanTracer::Sampled(99, id, 0.5);
    EXPECT_EQ(first, SpanTracer::Sampled(99, id, 0.5));  // stable
    if (first) ++sampled;
  }
  EXPECT_GT(sampled, 1600u);
  EXPECT_LT(sampled, 2400u);
}

// --- End-to-end through the VOODB model ------------------------------------

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.p_set = 0.0;
  p.p_simple = 0.0;
  p.p_hierarchy = 0.0;
  p.p_stochastic = 0.0;
  p.p_random_access = 1.0;
  p.random_access_count = 6;
  p.p_update = 0.5;
  p.seed = 17;
  return p;
}

core::VoodbConfig TracedConfig() {
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 64;
  cfg.num_users = 8;
  cfg.multiprogramming_level = 8;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = cc::ProtocolKind::kNoWait;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  cfg.trace_spans = true;
  cfg.trace_sample_rate = 1.0;
  cfg.trace_exemplars = 64;  // >= transactions: every tree retained
  return cfg;
}

TEST(SpanTracing, EverySpanClosesAndComponentsSumExactly) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(TracedConfig(), &base, nullptr, /*seed=*/5);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
  const core::PhaseMetrics m = sys.RunTransactions(gen, 60);
  ASSERT_EQ(m.transactions, 60u);

  const SpanTracer* tracer = sys.span_tracer();
  ASSERT_NE(tracer, nullptr);
  // Every admitted transaction's trace retired at commit — nothing leaks.
  EXPECT_EQ(tracer->traces_started(), 60u);
  EXPECT_EQ(tracer->traces_finished(), 60u);
  // One per-component sample per committed transaction.
  EXPECT_EQ(m.component_histograms.lock_wait.count(), 60u);
  EXPECT_EQ(m.component_histograms.io.count(), 60u);
  EXPECT_EQ(m.component_histograms.retry.count(), 60u);

  ASSERT_EQ(tracer->exemplars().size(), 60u);
  bool saw_abort = false;
  for (const Exemplar& e : tracer->exemplars()) {
    const double sum = e.path.Sum();
    EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
    ASSERT_FALSE(e.spans.empty());
    EXPECT_EQ(e.spans.front().kind, SpanKind::kTxn);
    // The root covers the whole response, closed at retirement.
    EXPECT_DOUBLE_EQ(e.spans.front().end_ms - e.spans.front().begin_ms,
                     e.response_ms);
    ExpectNested(e);
    for (const ExemplarSpan& s : e.spans) {
      if (s.abort_cause != AbortCause::kNone) saw_abort = true;
    }
  }
  // The contended no-wait run restarts transactions; the protocol must
  // have annotated the aborted attempts.
  if (m.transaction_restarts > 0) {
    EXPECT_TRUE(saw_abort);
  }
}

TEST(SpanTracing, TracingIsSimulationNeutral) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  auto run = [&base](bool traced, double rate) {
    core::VoodbConfig cfg = TracedConfig();
    cfg.trace_spans = traced;
    cfg.trace_sample_rate = rate;
    core::VoodbSystem sys(cfg, &base, nullptr, /*seed=*/5);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
    return sys.RunTransactions(gen, 80);
  };
  const core::PhaseMetrics off = run(false, 1.0);
  const core::PhaseMetrics on = run(true, 1.0);
  const core::PhaseMetrics partial = run(true, 0.25);

  for (const core::PhaseMetrics* m : {&on, &partial}) {
    EXPECT_EQ(m->transactions, off.transactions);
    EXPECT_EQ(m->object_accesses, off.object_accesses);
    EXPECT_EQ(m->transaction_restarts, off.transaction_restarts);
    EXPECT_EQ(m->total_ios, off.total_ios);
    EXPECT_EQ(m->buffer_hits, off.buffer_hits);
    // Bit-compared: tracing must not move a single event.
    EXPECT_EQ(std::memcmp(&m->sim_time_ms, &off.sim_time_ms,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&m->mean_response_ms, &off.mean_response_ms,
                          sizeof(double)),
              0);
  }
  // Partial sampling traces fewer transactions but the same simulation.
  EXPECT_EQ(on.component_histograms.io.count(), 80u);
  EXPECT_LT(partial.component_histograms.io.count(), 80u);
  EXPECT_GT(partial.component_histograms.io.count(), 0u);
}

/// Checks JSON structural sanity without a parser: non-empty, object
/// framing, balanced braces/brackets outside string literals.
void ExpectBalancedJson(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(SpanTracing, PerfettoExportIsWellFormed) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(TracedConfig(), &base, nullptr, /*seed=*/5);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5).Derive(1));
  sys.RunTransactions(gen, 30);
  const std::string json =
      SpanTracer::PerfettoJson(sys.span_tracer()->exemplars());
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- Cross-shard stitching --------------------------------------------------

core::VoodbConfig ShardedTracedConfig() {
  core::VoodbConfig cfg = TracedConfig();
  cfg.shards = 2;
  cfg.multi_partition_pct = 0.5;
  cfg.num_users = 3;
  cfg.multiprogramming_level = 3;
  cfg.network_throughput_mbps = 1.0;
  cfg.trace_exemplars = 512;  // retain every tree, sub-transactions too
  return cfg;
}

TEST(SpanTracing, CrossShardStitchingBitIdenticalAcrossThreadCounts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  auto run = [&base](size_t threads) {
    core::ShardedVoodb sys(ShardedTracedConfig(), &base, /*seed=*/7);
    if (threads > 1) {
      exp::ThreadPool pool({threads});
      sys.Run(40, &pool);
    } else {
      sys.Run(40);
    }
    return SpanTracer::PerfettoJson(sys.MergedExemplars());
  };
  const std::string serial = run(1);
  const std::string pooled = run(2);
  // The merged exemplar set — ids, spans, flow stitches — is one byte
  // stream, identical at any sim_threads.
  EXPECT_EQ(serial, pooled);
  ExpectBalancedJson(serial);
}

TEST(SpanTracing, RemoteSubTransactionsCarryTheParentTrace) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::ShardedVoodb sys(ShardedTracedConfig(), &base, /*seed=*/7);
  const core::PhaseMetrics merged = sys.Run(40);
  ASSERT_GT(sys.remote_subtxns(), 0u);
  EXPECT_GT(merged.component_histograms.io.count(), 0u);

  const std::vector<Exemplar> exemplars = sys.MergedExemplars();
  ASSERT_FALSE(exemplars.empty());
  size_t stitched = 0;
  for (const Exemplar& e : exemplars) {
    const double sum = e.path.Sum();
    EXPECT_EQ(std::memcmp(&sum, &e.response_ms, sizeof(double)), 0);
    ExpectNested(e);
    if (e.parent_global_id != 0) {
      ++stitched;
      // The parent lives on another shard (different high bits) or at
      // least is a distinct transaction.
      EXPECT_NE(e.parent_global_id, e.global_id);
    }
  }
  // Half the transactions fork a remote sub-transaction and K >= all of
  // them — some retained exemplar must be a stitched child.
  EXPECT_GT(stitched, 0u);
}

}  // namespace
}  // namespace voodb
