// Simulated block device with asynchronous completion.
//
// The device models a disk with per-operation latency on the virtual clock.
// Completions are delivered through a callback, which the VFS server wires
// to a kernel notification — the simulated equivalent of a disk interrupt.
// The latency is what makes the VFS server's multithreading meaningful
// (paper SV: "multithreaded to prevent slow disk operations from effectively
// blocking the system") and what forces recovery windows to close on yield.
//
// The image is sparse: it is held in extents of kExtentBlocks blocks, each
// allocated zeroed on the first write to one of its blocks. A never-written
// block reads as zeros without allocating, so a machine pays host memory
// for the blocks its run writes, not for the geometry it declares.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "support/clock.hpp"
#include "support/common.hpp"

namespace osiris::fs {

inline constexpr std::size_t kBlockSize = 1024;

struct BlockDevStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

class BlockDevice {
 public:
  using Completion = std::function<void()>;

  BlockDevice(VirtualClock& clock, std::size_t num_blocks, Tick read_latency = 40,
              Tick write_latency = 60)
      : clock_(clock),
        num_blocks_(num_blocks),
        extents_((num_blocks + kExtentBlocks - 1) / kExtentBlocks),
        read_latency_(read_latency),
        write_latency_(write_latency) {}

  [[nodiscard]] std::size_t num_blocks() const noexcept { return num_blocks_; }

  /// Asynchronous read: `buf` is filled at completion time, then `done` runs.
  void submit_read(std::uint32_t bno, std::span<std::byte, kBlockSize> buf, Completion done);

  /// Asynchronous write: data is captured now, applied at completion time.
  void submit_write(std::uint32_t bno, std::span<const std::byte, kBlockSize> buf,
                    Completion done);

  /// Synchronous backdoor for mkfs and test harnesses (no latency).
  void read_now(std::uint32_t bno, std::span<std::byte, kBlockSize> buf) const;
  void write_now(std::uint32_t bno, std::span<const std::byte, kBlockSize> buf);

  [[nodiscard]] const BlockDevStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kExtentBlocks = 64;  // 64 KiB of image per allocation
  using Extent = std::array<std::byte, kExtentBlocks * kBlockSize>;

  /// The block's bytes for reading; a block of a never-written extent is the
  /// shared zero block, so reading never allocates.
  [[nodiscard]] const std::byte* block_ptr(std::uint32_t bno) const;
  /// The block's bytes for writing, allocating its extent (zeroed) if needed.
  std::byte* writable_block_ptr(std::uint32_t bno);

  VirtualClock& clock_;
  std::size_t num_blocks_;
  std::vector<std::unique_ptr<Extent>> extents_;  // nullptr: never written
  Tick read_latency_;
  Tick write_latency_;
  BlockDevStats stats_;
};

}  // namespace osiris::fs
