/// \file test_storage_parity.cpp
/// \brief Parity properties of the data-oriented storage engine.
///
/// Two independent oracles guard the PR-4 refactor:
///
/// * the CSR `ObjectBase::Generate` is bit-identical — ids, classes,
///   sizes, reference targets, TotalBytes, MeanFanout — to an embedded
///   copy of the legacy per-object-vector generator, across a grid of
///   seeds and OLOCREF locality windows (including windows at and beyond
///   the base size);
/// * the flat-frame BufferManager behaves exactly like a transparent
///   reference cache built on sorted maps (std::map residency, recency
///   counters) on random access traces: same hit/miss outcome per
///   access, same eviction count, same final residency and dirty set.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "storage/buffer_manager.hpp"

namespace voodb {
namespace {

using ocb::ClassDef;
using ocb::ClassId;
using ocb::Distribution;
using ocb::ObjectBase;
using ocb::OcbParameters;
using ocb::Oid;
using ocb::Schema;
using storage::BufferManager;
using storage::PageId;
using storage::ReplacementPolicy;

// --- The legacy generator, verbatim modulo naming ---------------------------

struct LegacyObjectDef {
  Oid id = ocb::kNullOid;
  ClassId cls = 0;
  uint32_t size = 0;
  std::vector<Oid> references;
};

struct LegacyBase {
  Schema schema;
  std::vector<LegacyObjectDef> objects;
  std::vector<uint64_t> instances_per_class;
  uint64_t total_bytes = 0;

  double MeanFanout() const {
    if (objects.empty()) return 0.0;
    uint64_t refs = 0;
    for (const auto& obj : objects) {
      for (Oid r : obj.references) {
        if (r != ocb::kNullOid) ++refs;
      }
    }
    return static_cast<double>(refs) / static_cast<double>(objects.size());
  }
};

LegacyBase LegacyGenerate(const OcbParameters& params) {
  params.Validate();
  LegacyBase base;
  desp::RandomStream root_stream(params.seed);
  base.schema = Schema::Generate(params, root_stream.Derive(1));
  desp::RandomStream ref_stream = root_stream.Derive(2);

  const uint64_t no = params.num_objects;
  const uint32_t nc = params.num_classes;
  base.objects.resize(no);
  base.instances_per_class.assign(nc, 0);

  for (Oid i = 0; i < no; ++i) {
    LegacyObjectDef& obj = base.objects[i];
    obj.id = i;
    obj.cls = static_cast<ClassId>(i % nc);
    const ClassDef& cls = base.schema.Class(obj.cls);
    obj.size = cls.instance_size;
    base.total_bytes += obj.size;
    ++base.instances_per_class[obj.cls];
    obj.references.assign(cls.references.size(), ocb::kNullOid);
  }

  const auto window_limit = static_cast<int64_t>(
      std::min<uint64_t>(params.object_locality, no));
  for (Oid i = 0; i < no; ++i) {
    LegacyObjectDef& obj = base.objects[i];
    const ClassDef& cls = base.schema.Class(obj.cls);
    for (size_t slot = 0; slot < obj.references.size(); ++slot) {
      const ClassId target_class = cls.references[slot].target_class;
      if (base.instances_per_class[target_class] == 0) continue;  // dangling
      int64_t offset = 0;
      switch (params.reference_distribution) {
        case Distribution::kUniform:
          offset = ref_stream.UniformInt(0, window_limit - 1);
          break;
        case Distribution::kZipf:
          offset = ref_stream.Zipf(window_limit, params.zipf_skew);
          break;
        case Distribution::kNormal: {
          const double raw = ref_stream.Normal(
              0.0, static_cast<double>(window_limit) / 4.0);
          offset = static_cast<int64_t>(std::llround(std::fabs(raw))) %
                   window_limit;
          break;
        }
      }
      const uint64_t candidate = (i + static_cast<uint64_t>(offset)) % no;
      uint64_t snapped = candidate - (candidate % nc) + target_class;
      if (snapped >= no) {
        snapped = target_class;
      }
      obj.references[slot] = snapped;
    }
  }
  return base;
}

void ExpectBitIdentical(const OcbParameters& params) {
  const ObjectBase csr = ObjectBase::Generate(params);
  const LegacyBase legacy = LegacyGenerate(params);
  SCOPED_TRACE("seed=" + std::to_string(params.seed) +
               " olocref=" + std::to_string(params.object_locality));
  ASSERT_EQ(csr.NumObjects(), legacy.objects.size());
  EXPECT_EQ(csr.TotalBytes(), legacy.total_bytes);
  EXPECT_DOUBLE_EQ(csr.MeanFanout(), legacy.MeanFanout());
  for (ClassId c = 0; c < params.num_classes; ++c) {
    EXPECT_EQ(csr.InstancesOf(c), legacy.instances_per_class[c]);
  }
  for (Oid oid = 0; oid < csr.NumObjects(); ++oid) {
    const ocb::ObjectDef view = csr.Object(oid);
    const LegacyObjectDef& obj = legacy.objects[oid];
    ASSERT_EQ(view.id, obj.id);
    ASSERT_EQ(view.cls, obj.cls);
    ASSERT_EQ(view.size, obj.size);
    ASSERT_EQ(view.references.size(), obj.references.size());
    for (size_t slot = 0; slot < obj.references.size(); ++slot) {
      ASSERT_EQ(view.references[slot], obj.references[slot])
          << "oid " << oid << " slot " << slot;
    }
  }
}

TEST(CsrGeneratorParity, BitIdenticalAcrossSeedAndLocalityGrid) {
  for (const uint64_t seed : {1u, 42u, 1999u, 31337u}) {
    for (const uint64_t olocref : {1u, 7u, 100u, 400u, 5000u}) {
      OcbParameters p;
      p.num_classes = 20;
      p.max_refs_per_class = 6;
      p.num_objects = 400;
      p.object_locality = olocref;  // windows up to 12.5x the base size
      p.seed = seed;
      ExpectBitIdentical(p);
    }
  }
}

TEST(CsrGeneratorParity, BitIdenticalAcrossDistributions) {
  for (const Distribution dist :
       {Distribution::kUniform, Distribution::kZipf, Distribution::kNormal}) {
    OcbParameters p;
    p.num_classes = 10;
    p.num_objects = 300;
    p.reference_distribution = dist;
    p.seed = 7;
    ExpectBitIdentical(p);
  }
}

TEST(CsrGeneratorParity, BitIdenticalOnSparseBase) {
  // More classes than objects: empty classes force dangling slots.
  OcbParameters p;
  p.num_classes = 50;
  p.num_objects = 30;
  p.object_locality = 1;
  p.seed = 11;
  ExpectBitIdentical(p);
}

// --- Flat-frame cache vs a sorted-map reference cache -----------------------

/// A transparent LRU cache built on sorted maps: residency + dirty in a
/// std::map<PageId, ...>, recency as a monotone counter in a second
/// sorted map keyed by stamp.  Slow and obviously correct.
class SortedMapLruCache {
 public:
  explicit SortedMapLruCache(uint64_t capacity) : capacity_(capacity) {}

  /// Returns hit; mirrors BufferManager::Access bookkeeping.
  bool Access(PageId page, bool write) {
    const auto it = pages_.find(page);
    if (it != pages_.end()) {
      recency_.erase(it->second.stamp);
      it->second.stamp = ++clock_;
      it->second.dirty = it->second.dirty || write;
      recency_.emplace(it->second.stamp, page);
      return true;
    }
    while (pages_.size() >= capacity_) {
      const auto oldest = recency_.begin();
      pages_.erase(oldest->second);
      recency_.erase(oldest);
      ++evictions_;
    }
    pages_.emplace(page, Meta{++clock_, write});
    recency_.emplace(clock_, page);
    return false;
  }

  uint64_t evictions() const { return evictions_; }

  std::map<PageId, bool> ResidentDirty() const {
    std::map<PageId, bool> out;
    for (const auto& [page, meta] : pages_) out.emplace(page, meta.dirty);
    return out;
  }

 private:
  struct Meta {
    uint64_t stamp;
    bool dirty;
  };
  uint64_t capacity_;
  uint64_t clock_ = 0;
  uint64_t evictions_ = 0;
  std::map<PageId, Meta> pages_;
  std::map<uint64_t, PageId> recency_;
};

TEST(FlatFrameCacheModel, MatchesSortedMapReferenceOnRandomTraces) {
  for (const uint64_t capacity : {2u, 8u, 33u}) {
    for (const uint64_t seed : {3u, 17u, 91u}) {
      BufferManager flat(capacity, ReplacementPolicy::kLru);
      SortedMapLruCache reference(capacity);
      desp::RandomStream rng(seed);
      std::vector<storage::PageIo> ios;
      for (int step = 0; step < 20000; ++step) {
        const PageId page = static_cast<PageId>(rng.UniformInt(0, 199));
        const bool write = rng.Bernoulli(0.3);
        ios.clear();
        const bool flat_hit = flat.AccessInto(page, write, ios);
        const bool ref_hit = reference.Access(page, write);
        ASSERT_EQ(flat_hit, ref_hit)
            << "capacity " << capacity << " seed " << seed << " step "
            << step;
      }
      EXPECT_EQ(flat.stats().evictions, reference.evictions());
      const std::map<PageId, bool> residents = reference.ResidentDirty();
      EXPECT_EQ(flat.resident_pages(), residents.size());
      uint64_t dirty = 0;
      for (const auto& [page, is_dirty] : residents) {
        EXPECT_TRUE(flat.Contains(page));
        dirty += is_dirty ? 1 : 0;
      }
      EXPECT_EQ(flat.DirtyPages(), dirty);
    }
  }
}

}  // namespace
}  // namespace voodb
