#include "fs/blockdev.hpp"

#include <cstring>
#include <memory>

namespace osiris::fs {

namespace {
// What every block of a never-written extent reads as.
constexpr std::array<std::byte, kBlockSize> kZeroBlock{};
}  // namespace

const std::byte* BlockDevice::block_ptr(std::uint32_t bno) const {
  OSIRIS_ASSERT(bno < num_blocks());
  const Extent* ext = extents_[bno / kExtentBlocks].get();
  if (ext == nullptr) return kZeroBlock.data();
  return ext->data() + (bno % kExtentBlocks) * kBlockSize;
}

std::byte* BlockDevice::writable_block_ptr(std::uint32_t bno) {
  OSIRIS_ASSERT(bno < num_blocks());
  std::unique_ptr<Extent>& ext = extents_[bno / kExtentBlocks];
  if (ext == nullptr) ext = std::make_unique<Extent>();  // value-initialized: zeroed
  return ext->data() + (bno % kExtentBlocks) * kBlockSize;
}

void BlockDevice::submit_read(std::uint32_t bno, std::span<std::byte, kBlockSize> buf,
                              Completion done) {
  OSIRIS_ASSERT(bno < num_blocks());
  ++stats_.reads;
  clock_.call_after(read_latency_, [this, bno, buf, done = std::move(done)] {
    std::memcpy(buf.data(), block_ptr(bno), kBlockSize);
    done();
  });
}

void BlockDevice::submit_write(std::uint32_t bno, std::span<const std::byte, kBlockSize> buf,
                               Completion done) {
  OSIRIS_ASSERT(bno < num_blocks());
  ++stats_.writes;
  // The data lands in the backing store immediately (a posted write): a read
  // submitted afterwards must never observe the pre-write contents. Only the
  // completion notification is delayed by the device latency.
  std::memcpy(writable_block_ptr(bno), buf.data(), kBlockSize);
  clock_.call_after(write_latency_, [done = std::move(done)] { done(); });
}

void BlockDevice::read_now(std::uint32_t bno, std::span<std::byte, kBlockSize> buf) const {
  std::memcpy(buf.data(), block_ptr(bno), kBlockSize);
}

void BlockDevice::write_now(std::uint32_t bno, std::span<const std::byte, kBlockSize> buf) {
  std::memcpy(writable_block_ptr(bno), buf.data(), kBlockSize);
}

}  // namespace osiris::fs
