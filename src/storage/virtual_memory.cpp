#include "storage/virtual_memory.hpp"

#include <utility>

#include "util/check.hpp"

namespace voodb::storage {

void VmParameters::Validate() const {
  VOODB_CHECK_MSG(memory_pages >= 1, "VM needs at least one frame");
}

VirtualMemoryModel::VirtualMemoryModel(VmParameters params)
    : params_(params) {
  params_.Validate();
}

bool VirtualMemoryModel::TouchInto(PageId page, bool write,
                                   std::vector<PageIo>& ios) {
  ++stats_.touches;
  const uint32_t frame = index_.Find(page);
  if (frame != kNone && frames_[frame].state == State::kLoaded) {
    ++stats_.soft_hits;
    Frame& f = frames_[frame];
    f.dirty = f.dirty || write;
    Unlink(frame);
    LinkFront(frame);
    return true;
  }

  // Fault: the page is absent or only reserved; either way its contents
  // must come from disk.
  ++stats_.faults;
  if (frame != kNone) {
    // Reserved -> Loaded in place.
    Frame& f = frames_[frame];
    f.state = State::kLoaded;
    f.dirty = params_.dirty_on_load || write;
    Unlink(frame);
    LinkFront(frame);
  } else {
    LinkFront(TakeFrame(page, State::kLoaded,
                        params_.dirty_on_load || write, ios));
  }
  ++stats_.reads;
  ios.push_back(PageIo{PageIo::Kind::kRead, page});
  return false;
}

void VirtualMemoryModel::ReserveInto(PageId page, std::vector<PageIo>& ios) {
  if (index_.Find(page) != kNone) return;  // already has a frame
  const uint32_t frame = TakeFrame(page, State::kReserved, false, ios);
  if (params_.reservations_enter_hot) {
    LinkFront(frame);
  } else {
    // Insert cold: the reservation becomes the next eviction victim
    // unless a fault promotes it first.
    LinkBack(frame);
  }
  ++stats_.reservations;
}

void VirtualMemoryModel::DropAll() {
  frames_.clear();
  free_frames_.clear();
  index_.Clear();
  mru_ = lru_ = kNone;
}

std::vector<PageIo> VirtualMemoryModel::Resize(uint64_t memory_pages) {
  VOODB_CHECK_MSG(memory_pages >= 1, "VM needs at least one frame");
  params_.memory_pages = memory_pages;
  std::vector<PageIo> ios;
  while (index_.size() > params_.memory_pages) EvictOne(ios);
  return ios;
}

bool VirtualMemoryModel::IsLoaded(PageId page) const {
  const uint32_t frame = index_.Find(page);
  return frame != kNone && frames_[frame].state == State::kLoaded;
}

void VirtualMemoryModel::EvictOne(std::vector<PageIo>& ios) {
  VOODB_CHECK_MSG(lru_ != kNone, "no frame to evict");
  const uint32_t frame = lru_;
  Frame& victim = frames_[frame];
  Unlink(frame);
  index_.Erase(victim.page);
  free_frames_.push_back(frame);
  const PageId page = victim.page;
  victim.page = kNullPage;
  if (victim.state == State::kReserved) {
    ++stats_.reserved_evictions;  // nothing was loaded; no I/O
    return;
  }
  if (victim.dirty) {
    ++stats_.swap_writes;
    ios.push_back(PageIo{PageIo::Kind::kWrite, page});
  }
}

uint32_t VirtualMemoryModel::TakeFrame(PageId page, State state, bool dirty,
                                       std::vector<PageIo>& ios) {
  while (index_.size() >= params_.memory_pages) EvictOne(ios);
  uint32_t frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    frame = static_cast<uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  Frame& f = frames_[frame];
  f.page = page;
  f.state = state;
  f.dirty = dirty;
  index_.Insert(page, frame);
  return frame;
}

void VirtualMemoryModel::LinkFront(uint32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNone;
  f.next = mru_;
  (mru_ == kNone ? lru_ : frames_[mru_].prev) = frame;
  mru_ = frame;
}

void VirtualMemoryModel::LinkBack(uint32_t frame) {
  Frame& f = frames_[frame];
  f.next = kNone;
  f.prev = lru_;
  (lru_ == kNone ? mru_ : frames_[lru_].next) = frame;
  lru_ = frame;
}

void VirtualMemoryModel::Unlink(uint32_t frame) {
  Frame& f = frames_[frame];
  (f.prev == kNone ? mru_ : frames_[f.prev].next) = f.next;
  (f.next == kNone ? lru_ : frames_[f.next].prev) = f.prev;
}

}  // namespace voodb::storage
