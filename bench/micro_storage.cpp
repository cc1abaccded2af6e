#include "micro_storage.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "desp/random.hpp"
#include "desp/stats.hpp"
#include "harness.hpp"
#include "ocb/object_base.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/placement.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace voodb::bench {

namespace {

using ocb::Oid;
using storage::PageId;
using storage::PageSpan;

// --- The pre-refactor structures, verbatim modulo naming --------------------

/// The old object layout: one heap vector of reference slots per object.
struct LegacyObject {
  Oid id = ocb::kNullOid;
  ocb::ClassId cls = 0;
  uint32_t size = 0;
  std::vector<Oid> references;
};

/// The old object base: an array-of-structures graph.  Built as an exact
/// copy of the CSR base so both sides traverse identical topology, and
/// accessed through the old bounds-checked Object() accessor the
/// pre-refactor traversals used.
class LegacyObjectGraph {
 public:
  explicit LegacyObjectGraph(const ocb::ObjectBase& base) {
    objects_.resize(base.NumObjects());
    for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
      LegacyObject& obj = objects_[oid];
      obj.id = oid;
      obj.cls = base.ClassOf(oid);
      obj.size = base.SizeOf(oid);
      const ocb::OidSpan refs = base.References(oid);
      obj.references.assign(refs.begin(), refs.end());
    }
  }
  const LegacyObject& Object(Oid oid) const {
    VOODB_CHECK_MSG(oid < objects_.size(), "oid " << oid << " out of range");
    return objects_[oid];
  }
  const std::vector<Oid>& References(Oid oid) const {
    return Object(oid).references;
  }
  uint64_t NumObjects() const { return objects_.size(); }

 private:
  std::vector<LegacyObject> objects_;
};

/// The old replacement-algorithm protocol (virtual dispatch per access,
/// exactly as the pre-refactor BufferManager paid it).
class LegacyReplacementAlgo {
 public:
  virtual ~LegacyReplacementAlgo() = default;
  virtual void OnAdmit(PageId page) = 0;
  virtual void OnAccess(PageId page) = 0;
  virtual PageId PickVictim() = 0;
  virtual void OnEvict(PageId page) = 0;
};

/// The old LRU list (std::list + iterator map).
class LegacyLruAlgo final : public LegacyReplacementAlgo {
 public:
  void OnAdmit(PageId page) override {
    order_.push_front(page);
    where_[page] = order_.begin();
  }
  void OnAccess(PageId page) override {
    order_.splice(order_.begin(), order_, where_.at(page));
  }
  PageId PickVictim() override { return order_.back(); }
  void OnEvict(PageId page) override {
    const auto it = where_.find(page);
    order_.erase(it->second);
    where_.erase(it);
  }

 private:
  std::list<PageId> order_;
  std::unordered_map<PageId, std::list<PageId>::iterator> where_;
};

/// The old CLOCK sweep (its own frame vector + slot map).
class LegacyClockAlgo final : public LegacyReplacementAlgo {
 public:
  void OnAdmit(PageId page) override {
    size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      frames_[slot] = ClockFrame{page, 1, true};
    } else {
      slot = frames_.size();
      frames_.push_back(ClockFrame{page, 1, true});
    }
    where_[page] = slot;
  }
  void OnAccess(PageId page) override { frames_[where_.at(page)].weight = 1; }
  PageId PickVictim() override {
    while (true) {
      if (hand_ >= frames_.size()) hand_ = 0;
      ClockFrame& f = frames_[hand_];
      if (!f.occupied) {
        ++hand_;
        continue;
      }
      if (f.weight == 0) return f.page;
      --f.weight;
      ++hand_;
    }
  }
  void OnEvict(PageId page) override {
    const auto it = where_.find(page);
    frames_[it->second].occupied = false;
    free_slots_.push_back(it->second);
    where_.erase(it);
  }

 private:
  struct ClockFrame {
    PageId page = storage::kNullPage;
    uint32_t weight = 0;
    bool occupied = false;
  };
  std::vector<ClockFrame> frames_;
  std::vector<size_t> free_slots_;
  std::unordered_map<PageId, size_t> where_;
  size_t hand_ = 0;
};

/// Cache counters compared between the two sides.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  bool operator==(const CacheCounts& o) const {
    return hits == o.hits && misses == o.misses && evictions == o.evictions;
  }
};

/// The old cache's per-access result, its ios vector built per call.
struct LegacyAccessOutcome {
  bool hit = false;
  std::vector<storage::PageIo> ios;
};

/// The old map-based page cache, verbatim modulo naming: an
/// unordered_map<PageId, dirty> residency index, a virtual replacement
/// algorithm, and a LegacyAccessOutcome whose ios vector is filled (and
/// allocated) on every miss — exactly the costs the flat-frame refactor
/// removed.
template <typename Algo>
class LegacyBufferManager {
 public:
  explicit LegacyBufferManager(uint64_t capacity)
      : capacity_(capacity), algo_(new Algo()) {}

  /// One access through the legacy API: the outcome (and its ios vector)
  /// is constructed per call, exactly as the old cache returned it.
  /// Returns the number of physical ios implied.
  uint64_t AccessCount(PageId page, bool write) {
    return Access(page, write).ios.size();
  }

  LegacyAccessOutcome Access(PageId page, bool write) {
    LegacyAccessOutcome outcome;
    const auto it = resident_.find(page);
    if (it != resident_.end()) {
      ++counts_.hits;
      outcome.hit = true;
      it->second = it->second || write;
      algo_->OnAccess(page);
      return outcome;
    }
    ++counts_.misses;
    while (resident_.size() >= capacity_) {
      const PageId victim = algo_->PickVictim();
      const auto victim_it = resident_.find(victim);
      if (victim_it->second) {
        outcome.ios.push_back(
            storage::PageIo{storage::PageIo::Kind::kWrite, victim});
      }
      algo_->OnEvict(victim);
      resident_.erase(victim_it);
      ++counts_.evictions;
    }
    resident_.emplace(page, write);
    algo_->OnAdmit(page);
    outcome.ios.push_back(storage::PageIo{storage::PageIo::Kind::kRead, page});
    return outcome;
  }

  const CacheCounts& counts() const { return counts_; }

 private:
  uint64_t capacity_;
  std::unique_ptr<LegacyReplacementAlgo> algo_;
  std::unordered_map<PageId, bool> resident_;
  CacheCounts counts_;
};

/// Adapter giving the flat-frame BufferManager the same interface and
/// counter view as the legacy baseline.  Uses the allocation-free
/// AccessInto path with a reused scratch buffer — the API the emulators
/// run on.
class FlatCache {
 public:
  FlatCache(uint64_t capacity, storage::ReplacementPolicy policy)
      : buffer_(capacity, policy) {}

  uint64_t AccessCount(PageId page, bool write) {
    scratch_.clear();
    buffer_.AccessInto(page, write, scratch_);
    return scratch_.size();
  }

  CacheCounts counts() const {
    return CacheCounts{buffer_.stats().hits, buffer_.stats().misses,
                       buffer_.stats().evictions};
  }

 private:
  storage::BufferManager buffer_;
  std::vector<storage::PageIo> scratch_;
};

// --- Workloads --------------------------------------------------------------

/// The one traversal definition both workload variants share:
/// depth-first visit-once walks from strided roots, `visit(oid)` called
/// on every first visit.  Identical visit order for any graph with the
/// same topology.
template <typename Graph, typename Visit>
void ForEachTraversalVisit(const Graph& graph, uint64_t traversals,
                           uint32_t depth, Visit visit) {
  const uint64_t no = graph.NumObjects();
  std::vector<uint32_t> stamp(no, 0);
  uint32_t epoch = 0;
  std::vector<std::pair<Oid, uint32_t>> stack;
  for (uint64_t t = 0; t < traversals; ++t) {
    const Oid root = (t * 9973) % no;
    ++epoch;
    stamp[root] = epoch;
    visit(root);
    stack.clear();
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const auto [oid, level] = stack.back();
      stack.pop_back();
      if (level >= depth) continue;
      for (Oid ref : graph.References(oid)) {
        if (ref == ocb::kNullOid || stamp[ref] == epoch) continue;
        stamp[ref] = epoch;
        visit(ref);
        stack.emplace_back(ref, level + 1);
      }
    }
  }
}

/// Materializes the object-access trace the traversals produce (same
/// topology on both graphs -> same trace), so the replay workload can
/// time the storage engine alone.
std::vector<Oid> TraversalTrace(const ocb::ObjectBase& base,
                                uint64_t traversals, uint32_t depth) {
  std::vector<Oid> trace;
  ForEachTraversalVisit(base, traversals, depth,
                        [&trace](Oid oid) { trace.push_back(oid); });
  return trace;
}

/// Resolves a traversal-generated object trace into the page trace the
/// cache sees (Oid -> span through the flat span array — identical
/// work in both engines, so it happens once, outside the timed region).
std::vector<PageId> ResolvePageTrace(const std::vector<Oid>& object_trace,
                                     const storage::Placement& placement) {
  const PageSpan* spans = placement.spans().data();
  std::vector<PageId> pages;
  pages.reserve(object_trace.size());
  for (Oid oid : object_trace) {
    const PageSpan span = spans[oid];
    for (uint32_t i = 0; i < span.count; ++i) pages.push_back(span.first + i);
  }
  return pages;
}

/// The simulation model's full hot path (graph row walk -> placement
/// span -> cache access), driven by the shared traversal definition;
/// returns the number of page accesses performed.
template <typename Graph, typename Cache>
uint64_t TraversalWorkload(const Graph& graph,
                           const storage::Placement& placement, Cache& cache,
                           uint64_t traversals, uint32_t depth) {
  uint64_t accesses = 0;
  uint64_t io_count = 0;  // consumes the outcome like the emulators do
  const PageSpan* spans = placement.spans().data();
  ForEachTraversalVisit(graph, traversals, depth, [&](Oid oid) {
    const PageSpan span = spans[oid];
    for (uint32_t i = 0; i < span.count; ++i) {
      io_count += cache.AccessCount(span.first + i, false);
      ++accesses;
    }
  });
  return accesses + (io_count & 1);  // data-depend on the outcomes
}

/// Raw page trace against the cache alone.
template <typename Cache>
uint64_t TraceWorkload(const std::vector<PageId>& trace, Cache& cache) {
  uint64_t io_count = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    io_count += cache.AccessCount(trace[i], (i & 15) == 0);
  }
  return trace.size() + (io_count & 1);
}

struct Measurement {
  double mean_maps = 0.0;  ///< mean million page accesses per second
  double half_width = 0.0;
  CacheCounts counts;
};

struct PairedMeasurement {
  Measurement legacy;
  Measurement flat;
  double speedup = 0.0;     ///< mean of per-trial flat/legacy ratios
  double speedup_hw = 0.0;  ///< 95 % CI half-width of the ratio
};

Measurement Finish(const desp::Tally& rates, CacheCounts counts) {
  Measurement m;
  m.mean_maps = rates.mean();
  m.counts = counts;
  if (rates.count() >= 2 && rates.stddev() > 0.0) {
    m.half_width = desp::StudentConfidenceInterval(rates, 0.95).half_width;
  }
  return m;
}

/// Paired design: each trial times the legacy engine and the flat
/// engine back to back on the same trace and records the per-trial
/// throughput ratio, so slow drift in machine load cancels out of the
/// speedup.  One untimed warm-up run per side populates the caches'
/// counters for the identity check.  `make_*()` builds a fresh cache
/// per run; `*_body(cache)` returns the number of accesses performed.
template <typename MakeLegacy, typename LegacyBody, typename MakeFlat,
          typename FlatBody>
PairedMeasurement MeasurePair(uint64_t trials, MakeLegacy make_legacy,
                              LegacyBody legacy_body, MakeFlat make_flat,
                              FlatBody flat_body) {
  const auto timed = [](auto& cache, auto& body) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t accesses = body(cache);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return static_cast<double>(accesses) / secs / 1e6;
  };
  PairedMeasurement pm;
  {
    auto legacy = make_legacy();
    timed(legacy, legacy_body);  // warm-up, untimed
    pm.legacy.counts = legacy.counts();
    auto flat = make_flat();
    timed(flat, flat_body);
    pm.flat.counts = flat.counts();
  }
  desp::Tally legacy_rates, flat_rates, ratios;
  for (uint64_t t = 0; t < trials; ++t) {
    auto legacy = make_legacy();
    const double legacy_rate = timed(legacy, legacy_body);
    auto flat = make_flat();
    const double flat_rate = timed(flat, flat_body);
    legacy_rates.Add(legacy_rate);
    flat_rates.Add(flat_rate);
    ratios.Add(legacy_rate > 0.0 ? flat_rate / legacy_rate : 0.0);
  }
  pm.legacy = Finish(legacy_rates, pm.legacy.counts);
  pm.flat = Finish(flat_rates, pm.flat.counts);
  pm.speedup = ratios.mean();
  if (ratios.count() >= 2 && ratios.stddev() > 0.0) {
    pm.speedup_hw =
        desp::StudentConfidenceInterval(ratios, 0.95).half_width;
  }
  return pm;
}

}  // namespace

exp::ScenarioResult RunMicroStorageScenario(const exp::ScenarioContext& ctx) {
  const ocb::OcbParameters workload = ctx.config.workload;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(workload);
  const LegacyObjectGraph legacy_graph(base);
  const storage::Placement placement = storage::Placement::Build(
      base, 4096, storage::PlacementPolicy::kOptimizedSequential);

  // Cache sized well under the base so the traversal working set spills
  // and the eviction path stays hot.
  const uint64_t cache_pages =
      std::max<uint64_t>(64, placement.NumPages() / 32);
  const uint64_t traversals = std::max<uint64_t>(1, ctx.options.transactions);
  const uint32_t depth = workload.hierarchy_depth;
  const uint64_t trials = std::max<uint64_t>(2, ctx.options.replications);

  // Pre-generated Zipf trace (deterministic in the scenario seed).
  desp::RandomStream trace_rng(ctx.options.seed);
  std::vector<PageId> trace(traversals * 64);
  const auto page_space = static_cast<int64_t>(placement.NumPages());
  for (PageId& p : trace) {
    p = static_cast<PageId>(trace_rng.Zipf(page_space, 0.9));
  }

  struct Row {
    std::string workload;
    std::string engine;
    Measurement result;
    double speedup_vs_legacy = 0.0;
    double speedup_hw = 0.0;
  };
  std::vector<Row> rows;

  const auto compare = [&rows](const std::string& workload,
                               const PairedMeasurement& pm) {
    VOODB_CHECK_MSG(
        pm.legacy.counts == pm.flat.counts,
        "flat-frame cache diverged from the legacy baseline on '"
            << workload << "': hits " << pm.flat.counts.hits << " vs "
            << pm.legacy.counts.hits << ", misses " << pm.flat.counts.misses
            << " vs " << pm.legacy.counts.misses << ", evictions "
            << pm.flat.counts.evictions << " vs "
            << pm.legacy.counts.evictions);
    rows.push_back({workload, "legacy", pm.legacy, 1.0, 0.0});
    rows.push_back({workload, "flat", pm.flat, pm.speedup, pm.speedup_hw});
  };

  const std::vector<PageId> traversal_pages =
      ResolvePageTrace(TraversalTrace(base, traversals, depth), placement);
  const auto make_legacy_lru = [&] {
    return LegacyBufferManager<LegacyLruAlgo>(cache_pages);
  };
  const auto make_legacy_clock = [&] {
    return LegacyBufferManager<LegacyClockAlgo>(cache_pages);
  };
  const auto make_flat_lru = [&] {
    return FlatCache(cache_pages, storage::ReplacementPolicy::kLru);
  };
  const auto make_flat_clock = [&] {
    return FlatCache(cache_pages, storage::ReplacementPolicy::kClock);
  };
  const auto replay = [&](auto& cache) {
    return TraceWorkload(traversal_pages, cache);
  };
  const auto zipf = [&](auto& cache) { return TraceWorkload(trace, cache); };

  compare("traversal", MeasurePair(trials, make_legacy_lru, replay,
                                   make_flat_lru, replay));
  compare("traversal_live",
          MeasurePair(
              trials, make_legacy_lru,
              [&](auto& cache) {
                return TraversalWorkload(legacy_graph, placement, cache,
                                         traversals, depth);
              },
              make_flat_lru,
              [&](auto& cache) {
                return TraversalWorkload(base, placement, cache, traversals,
                                         depth);
              }));
  compare("zipf_pages_lru",
          MeasurePair(trials, make_legacy_lru, zipf, make_flat_lru, zipf));
  compare("zipf_pages_clock", MeasurePair(trials, make_legacy_clock, zipf,
                                          make_flat_clock, zipf));

  util::TextTable table(
      {"Workload", "Engine", "Maccesses/s", "±95%", "vs legacy", "Hit rate"});
  exp::ScenarioResult result;
  for (const Row& row : rows) {
    const double hit_rate =
        static_cast<double>(row.result.counts.hits) /
        static_cast<double>(row.result.counts.hits + row.result.counts.misses);
    table.AddRow({row.workload, row.engine,
                  util::FormatDouble(row.result.mean_maps, 2),
                  util::FormatDouble(row.result.half_width, 2),
                  util::FormatDouble(row.speedup_vs_legacy, 2) + "x",
                  util::FormatDouble(hit_rate, 3)});
    const Estimate throughput{row.result.mean_maps, row.result.half_width};
    RecordEstimate("micro_storage", row.workload, row.engine, throughput);
    result["micro_storage/" + row.workload + "/" + row.engine + "/mean"] =
        throughput.mean;
    if (row.engine == "flat") {
      RecordEstimate("micro_storage", row.workload, "speedup",
                     Estimate{row.speedup_vs_legacy, row.speedup_hw});
      result["micro_storage/" + row.workload + "/speedup/mean"] =
          row.speedup_vs_legacy;
    }
  }
  std::cout << "== Storage engine throughput (CSR graph + flat-frame cache "
               "vs legacy map-based baseline) ==\n";
  if (ctx.options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "(hit/miss/eviction counters verified identical to the "
               "embedded legacy baseline)\n";
  return result;
}

}  // namespace voodb::bench
