#include "voodb/buffering_manager.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"

namespace voodb::core {

BufferingManagerActor::BufferingManagerActor(desp::Scheduler* scheduler,
                                             const VoodbConfig& config,
                                             ObjectManagerActor* object_manager,
                                             IoSubsystemActor* io,
                                             desp::RandomStream rng)
    : Actor(scheduler, "buffering-manager"),
      object_manager_(object_manager),
      io_(io) {
  VOODB_CHECK_MSG(object_manager_ != nullptr && io_ != nullptr,
                  "buffering manager needs its peers");
  if (config.use_virtual_memory) {
    storage::VmParameters vm_params;
    vm_params.memory_pages = config.buffer_pages;
    vm_params.dirty_on_load = config.vm_dirty_on_load;
    vm_params.reservations_enter_hot = config.vm_reservations_enter_hot;
    vm_reserve_references_ = config.vm_reserve_references;
    vm_ = std::make_unique<storage::VirtualMemoryModel>(vm_params);
  } else {
    buffer_ = std::make_unique<storage::BufferManager>(
        config.buffer_pages, config.page_replacement, rng, config.lru_k);
    if (config.prefetch == PrefetchPolicy::kSequential) {
      // max_page is refreshed lazily: the prefetcher is rebuilt after a
      // relocation grows the page space (see AccessPage).
      buffer_->SetPrefetcher(std::make_unique<storage::SequentialPrefetcher>(
          config.prefetch_depth, object_manager_->NumPages() - 1));
    }
  }
}

void BufferingManagerActor::AccessObject(ocb::Oid oid, bool write,
                                         desp::Scheduler::Action done) {
  AccessSpan(object_manager_->Resolve(oid, write), write, std::move(done));
}

void BufferingManagerActor::AccessSpan(storage::PageSpan span, bool write,
                                       desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(span.count >= 1, "empty page span");
  const WalkHandle h = walks_.Alloc();
  Walk& walk = walks_.At(h);
  walk.span = span;
  walk.index = 0;
  walk.write = write;
  walk.done = std::move(done);
  ContinueWalk(h);
}

void BufferingManagerActor::AccessPage(storage::PageId page, bool write,
                                       desp::Scheduler::Action done) {
  AccessSpan(storage::PageSpan{page, 1}, write, std::move(done));
}

void BufferingManagerActor::ContinueWalk(WalkHandle h) {
  while (true) {
    Walk& walk = walks_.At(h);
    if (walk.index >= walk.span.count) {
      desp::Scheduler::Action done = std::move(walk.done);
      walks_.Free(h);
      done();
      return;
    }
    const storage::PageId page = walk.span.first + walk.index;
    ++walk.index;
    if (!TouchPage(page, walk.write)) {
      io_->Execute(scratch_ios_, [this, h]() { ContinueWalk(h); });
      return;
    }
  }
}

void BufferingManagerActor::SetRecorder(trace::Recorder* recorder) {
  recorder_ = recorder;
  if (buffer_ != nullptr) buffer_->SetRecorder(recorder);
}

trace::TraceCounters BufferingManagerActor::TraceCountersNow() const {
  return vm_ != nullptr ? trace::CountersFrom(vm_->stats())
                        : trace::CountersFrom(buffer_->stats());
}

bool BufferingManagerActor::TouchPage(storage::PageId page, bool write) {
  ++requests_;
  // The database buffer records inside AccessInto; the VM model has no
  // recorder hook of its own, so the actor reports its page stream.
  if (vm_ != nullptr && recorder_ != nullptr) {
    recorder_->OnPage(page, write);
  }
  scratch_ios_.clear();
  const bool hit = vm_ != nullptr
                       ? vm_->TouchInto(page, write, scratch_ios_)
                       : buffer_->AccessInto(page, write, scratch_ios_);
  if (hit) {
    ++hits_;
    return true;
  }
  if (vm_ != nullptr && vm_reserve_references_) {
    // Texas faulted the page in: swizzling its pointers reserves frames
    // for every page referenced from it; evictions caused by the
    // reservations produce swap writes the disk must absorb.
    for (storage::PageId ref : object_manager_->ReferencedPages(page)) {
      vm_->ReserveInto(ref, scratch_ios_);
    }
  }
  return false;
}

void BufferingManagerActor::Flush(desp::Scheduler::Action done) {
  if (vm_ != nullptr) {
    done();
    return;
  }
  scratch_ios_.clear();
  buffer_->FlushInto(scratch_ios_);
  io_->Execute(scratch_ios_, std::move(done));
}

bool BufferingManagerActor::Contains(storage::PageId page) const {
  return vm_ != nullptr ? vm_->IsLoaded(page) : buffer_->Contains(page);
}

uint64_t BufferingManagerActor::DirtyPages() const {
  return vm_ != nullptr ? vm_->DirtyFrames() : buffer_->DirtyPages();
}

void BufferingManagerActor::Drop() {
  if (recorder_ != nullptr) dropped_while_recording_ = true;
  if (vm_ != nullptr) {
    vm_->DropAll();
  } else {
    buffer_->DropAll();
  }
}


void BufferingManagerActor::RegisterMetrics(
    obs::MetricRegistry& registry) const {
  registry.RegisterCounter("buffer.requests", &requests_);
  registry.RegisterCounter("buffer.hits", &hits_);
  registry.RegisterGauge("buffer.hit_rate", [this] { return HitRate(); });
  registry.RegisterGauge("buffer.dirty_pages", [this] {
    return static_cast<double>(DirtyPages());
  });
}

}  // namespace voodb::core
