// LRU block cache.
//
// Sits between MiniFS and the block device inside the VFS server, like the
// MINIX buffer cache. Hits complete synchronously; misses make the calling
// VFS worker thread block on the device (and, per paper SIV-E, close the
// recovery window because the thread yields).
//
// Layout (DESIGN.md §14): one slab holds every block's bytes, an
// index-linked list over the slab slots keeps the exact LRU order, and one
// hash map from block number to slot serves each call with a single probe.
// The slab is allocated without zero-fill, so capacity the workload never
// touches costs no resident memory.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fs/blockdev.hpp"

namespace osiris::fs {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
};

/// A dirty block leaving the cache: (block number, its bytes).
using DirtyBlock = std::pair<std::uint32_t, std::array<std::byte, kBlockSize>>;

class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_blocks);

  /// Pointer to cached block data, or nullptr on miss. Refreshes LRU order;
  /// counts the hit or the miss.
  [[nodiscard]] std::byte* lookup(std::uint32_t bno);

  /// lookup() without counting a miss, for a borrow whose caller falls back
  /// to lookup() and counts the miss there, where the block is fetched.
  [[nodiscard]] std::byte* peek(std::uint32_t bno);

  /// Insert (or overwrite) a block; returns its cached data pointer. If the
  /// cache is full, the least recently used entry is evicted; a dirty victim
  /// is reported through `evicted_dirty` so the caller can write it back.
  /// `dirty` marks the block dirty in the same probe (a cached dirty block
  /// stays dirty either way).
  std::byte* insert(std::uint32_t bno, std::span<const std::byte, kBlockSize> data,
                    std::optional<DirtyBlock>* evicted_dirty, bool dirty = false);

  void mark_dirty(std::uint32_t bno);
  [[nodiscard]] bool is_dirty(std::uint32_t bno) const;

  /// All dirty blocks, most recently used first (for sync); marks them clean.
  [[nodiscard]] std::vector<DirtyBlock> take_dirty();

  void invalidate_all();

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct Slot {
    std::uint32_t bno = 0;
    std::uint32_t prev = kNil;  // toward the most recent
    std::uint32_t next = kNil;  // toward the least recent
    bool dirty = false;
  };

  [[nodiscard]] std::byte* block(std::uint32_t s) const noexcept {
    return slab_.get() + static_cast<std::size_t>(s) * kBlockSize;
  }
  void unlink(std::uint32_t s) noexcept;
  void push_front(std::uint32_t s) noexcept;
  void touch(std::uint32_t s) noexcept;

  std::size_t capacity_;
  std::unique_ptr<std::byte[]> slab_;  // capacity_ blocks; slot s at s * kBlockSize
  std::vector<Slot> slots_;            // slots [0, used_) are live
  std::uint32_t used_ = 0;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used: the next victim
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // bno -> slot
  CacheStats stats_;
};

}  // namespace osiris::fs
