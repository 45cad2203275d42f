#include "fs/cache.hpp"

#include <cstring>

namespace osiris::fs {

BlockCache::BlockCache(std::size_t capacity_blocks)
    : capacity_(capacity_blocks),
      slab_(std::make_unique_for_overwrite<std::byte[]>(capacity_blocks * kBlockSize)),
      slots_(capacity_blocks) {
  OSIRIS_ASSERT(capacity_ >= 1 && capacity_ < kNil);
  // Never rehashes: insert adds the new block before its victim leaves.
  index_.reserve(capacity_ + 1);
}

std::byte* BlockCache::lookup(std::uint32_t bno) {
  std::byte* p = peek(bno);
  if (p == nullptr) ++stats_.misses;
  return p;
}

std::byte* BlockCache::peek(std::uint32_t bno) {
  const auto it = index_.find(bno);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  touch(it->second);
  return block(it->second);
}

std::byte* BlockCache::insert(std::uint32_t bno, std::span<const std::byte, kBlockSize> data,
                              std::optional<DirtyBlock>* evicted_dirty, bool dirty) {
  if (evicted_dirty) evicted_dirty->reset();
  const auto [it, fresh] = index_.try_emplace(bno, kNil);
  std::uint32_t s = it->second;
  if (!fresh) {
    touch(s);
  } else if (used_ < capacity_) {
    s = used_++;
    slots_[s] = Slot{bno};
    push_front(s);
  } else {
    s = tail_;
    Slot& victim = slots_[s];
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.writebacks;
      if (evicted_dirty) {
        evicted_dirty->emplace();
        (*evicted_dirty)->first = victim.bno;
        std::memcpy((*evicted_dirty)->second.data(), block(s), kBlockSize);
      }
    }
    index_.erase(victim.bno);
    victim.bno = bno;
    victim.dirty = false;
    touch(s);
  }
  it->second = s;
  slots_[s].dirty = slots_[s].dirty || dirty;
  std::memcpy(block(s), data.data(), kBlockSize);
  return block(s);
}

void BlockCache::mark_dirty(std::uint32_t bno) {
  const auto it = index_.find(bno);
  OSIRIS_ASSERT(it != index_.end());
  slots_[it->second].dirty = true;
}

bool BlockCache::is_dirty(std::uint32_t bno) const {
  const auto it = index_.find(bno);
  return it != index_.end() && slots_[it->second].dirty;
}

std::vector<DirtyBlock> BlockCache::take_dirty() {
  std::vector<DirtyBlock> out;
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    if (!slots_[s].dirty) continue;
    DirtyBlock& d = out.emplace_back();  // copy: the block stays cached
    d.first = slots_[s].bno;
    std::memcpy(d.second.data(), block(s), kBlockSize);
    slots_[s].dirty = false;
  }
  return out;
}

void BlockCache::invalidate_all() {
  index_.clear();
  used_ = 0;
  head_ = kNil;
  tail_ = kNil;
}

void BlockCache::unlink(std::uint32_t s) noexcept {
  const Slot& e = slots_[s];
  (e.prev == kNil ? head_ : slots_[e.prev].next) = e.next;
  (e.next == kNil ? tail_ : slots_[e.next].prev) = e.prev;
}

void BlockCache::push_front(std::uint32_t s) noexcept {
  Slot& e = slots_[s];
  e.prev = kNil;
  e.next = head_;
  (head_ == kNil ? tail_ : slots_[head_].prev) = s;
  head_ = s;
}

void BlockCache::touch(std::uint32_t s) noexcept {
  if (s == head_) return;
  unlink(s);
  push_front(s);
}

}  // namespace osiris::fs
