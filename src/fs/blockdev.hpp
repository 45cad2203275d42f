// Simulated block device with asynchronous completion.
//
// The device models a disk with per-operation latency on the virtual clock.
// Completions are delivered through a callback, which the VFS server wires
// to a kernel notification — the simulated equivalent of a disk interrupt.
// The latency is what makes the VFS server's multithreading meaningful
// (paper SV: "multithreaded to prevent slow disk operations from effectively
// blocking the system") and what forces recovery windows to close on yield.
#pragma once

#include <cstdint>
#include <functional>
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
        data_(num_blocks * kBlockSize),
        read_latency_(read_latency),
        write_latency_(write_latency) {}

  [[nodiscard]] std::size_t num_blocks() const noexcept { return data_.size() / kBlockSize; }

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
  std::byte* block_ptr(std::uint32_t bno) {
    OSIRIS_ASSERT(bno < num_blocks());
    return data_.data() + static_cast<std::size_t>(bno) * kBlockSize;
  }
  [[nodiscard]] const std::byte* block_ptr(std::uint32_t bno) const {
    OSIRIS_ASSERT(bno < num_blocks());
    return data_.data() + static_cast<std::size_t>(bno) * kBlockSize;
  }

  VirtualClock& clock_;
  std::vector<std::byte> data_;
  Tick read_latency_;
  Tick write_latency_;
  BlockDevStats stats_;
};

}  // namespace osiris::fs
