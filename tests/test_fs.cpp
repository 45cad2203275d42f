// Unit tests: filesystem substrate — block device, LRU cache, MiniFS.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fs/blockdev.hpp"
#include "fs/cache.hpp"
#include "fs/direct_store.hpp"
#include "fs/minifs.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

using namespace osiris;
using fs::BlockCache;
using fs::BlockDevice;
using fs::DirectStore;
using fs::kBlockSize;
using fs::MiniFs;

namespace {

struct FsFixture : ::testing::Test {
  VirtualClock clock;
  BlockDevice dev{clock, 512};
  DirectStore store{dev};
  MiniFs mfs{store};

  void SetUp() override {
    MiniFs::mkfs(dev);
    ASSERT_EQ(mfs.mount(), kernel::OK);
  }
};

std::vector<std::byte> bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// This process's resident set in bytes (/proc/self/statm), 0 if unreadable.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// A 64 MiB disk: larger than any machine's, so a dense image would show.
constexpr std::uint32_t kBigDiskBlocks = 64 * 1024;

}  // namespace

// --- block device ------------------------------------------------------

TEST(BlockDevice, AsyncReadCompletesAtLatency) {
  VirtualClock clock;
  BlockDevice dev(clock, 16, /*read_latency=*/40, /*write_latency=*/60);
  alignas(8) std::byte wr[kBlockSize];
  std::memset(wr, 0x5a, sizeof wr);
  dev.write_now(3, std::span<const std::byte, kBlockSize>(wr));

  alignas(8) std::byte rd[kBlockSize] = {};
  bool done = false;
  dev.submit_read(3, std::span<std::byte, kBlockSize>(rd), [&] { done = true; });
  EXPECT_FALSE(done);
  EXPECT_TRUE(clock.advance_to_next());
  EXPECT_TRUE(done);
  EXPECT_EQ(clock.now(), 40u);
  EXPECT_EQ(rd[0], std::byte{0x5a});
}

TEST(BlockDevice, PostedWriteVisibleToLaterRead) {
  // A read submitted after a write must observe the written data even though
  // the write's completion callback fires later.
  VirtualClock clock;
  BlockDevice dev(clock, 16, 10, 100);
  alignas(8) std::byte wr[kBlockSize];
  std::memset(wr, 0x77, sizeof wr);
  dev.submit_write(5, std::span<const std::byte, kBlockSize>(wr), [] {});
  alignas(8) std::byte rd[kBlockSize] = {};
  bool read_done = false;
  dev.submit_read(5, std::span<std::byte, kBlockSize>(rd), [&] { read_done = true; });
  while (clock.advance_to_next()) {
  }
  EXPECT_TRUE(read_done);
  EXPECT_EQ(rd[100], std::byte{0x77});
}

TEST(BlockDevice, CountsOps) {
  VirtualClock clock;
  BlockDevice dev(clock, 16);
  alignas(8) std::byte b[kBlockSize] = {};
  dev.submit_read(0, std::span<std::byte, kBlockSize>(b), [] {});
  dev.submit_write(1, std::span<const std::byte, kBlockSize>(b), [] {});
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BlockDevice, UntouchedBlocksCostNoResidentMemory) {
  // The image holds only the extents a run writes: a 64 MiB device with one
  // block written at each end, read across its never-written middle, stays
  // far below its declared size in resident memory.
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "/proc/self/statm is unreadable";
  VirtualClock clock;
  BlockDevice dev(clock, kBigDiskBlocks);
  alignas(8) std::byte blk[kBlockSize];
  std::memset(blk, 0x5a, sizeof blk);
  dev.write_now(0, std::span<const std::byte, kBlockSize>(blk));
  dev.write_now(kBigDiskBlocks - 1, std::span<const std::byte, kBlockSize>(blk));
  for (std::uint32_t i = 0; i < 10000; ++i) {
    dev.read_now(64 + 6 * i, std::span<std::byte, kBlockSize>(blk));
  }
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (std::size_t{8} << 20))
      << "resident memory grew by " << (after - before) / 1024 << " KiB";
}

TEST(BlockDevice, UnwrittenBlocksReadAsZero) {
  VirtualClock clock;
  BlockDevice dev(clock, kBigDiskBlocks, 10, 100);
  const std::byte zeros[kBlockSize] = {};
  const auto all_zero = [&](const std::byte* b) { return std::memcmp(b, zeros, kBlockSize) == 0; };
  alignas(8) std::byte rd[kBlockSize];
  std::memset(rd, 0xff, sizeof rd);
  dev.read_now(12345, std::span<std::byte, kBlockSize>(rd));
  EXPECT_TRUE(all_zero(rd));

  std::memset(rd, 0xff, sizeof rd);
  bool read_done = false;
  dev.submit_read(kBigDiskBlocks - 2, std::span<std::byte, kBlockSize>(rd),
                  [&] { read_done = true; });
  while (clock.advance_to_next()) {
  }
  ASSERT_TRUE(read_done);
  EXPECT_TRUE(all_zero(rd));

  // A posted write in a far extent reads back; its neighbour still reads zero.
  alignas(8) std::byte wr[kBlockSize];
  std::memset(wr, 0x3c, sizeof wr);
  dev.submit_write(50000, std::span<const std::byte, kBlockSize>(wr), [] {});
  std::memset(rd, 0, sizeof rd);
  read_done = false;
  dev.submit_read(50000, std::span<std::byte, kBlockSize>(rd), [&] { read_done = true; });
  while (clock.advance_to_next()) {
  }
  ASSERT_TRUE(read_done);
  EXPECT_EQ(std::memcmp(rd, wr, kBlockSize), 0);
  std::memset(rd, 0xff, sizeof rd);
  dev.read_now(50001, std::span<std::byte, kBlockSize>(rd));
  EXPECT_TRUE(all_zero(rd));
}

// --- block cache ---------------------------------------------------------

TEST(BlockCache, HitAfterInsert) {
  BlockCache cache(4);
  alignas(8) std::byte data[kBlockSize];
  std::memset(data, 1, sizeof data);
  cache.insert(7, std::span<const std::byte, kBlockSize>(data), nullptr);
  EXPECT_NE(cache.lookup(7), nullptr);
  EXPECT_EQ(cache.lookup(8), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCache, EvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  alignas(8) std::byte data[kBlockSize] = {};
  cache.insert(1, std::span<const std::byte, kBlockSize>(data), nullptr);
  cache.insert(2, std::span<const std::byte, kBlockSize>(data), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);  // 1 is now most recent
  cache.insert(3, std::span<const std::byte, kBlockSize>(data), nullptr);  // evicts 2
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(BlockCache, DirtyVictimIsReported) {
  BlockCache cache(1);
  alignas(8) std::byte data[kBlockSize];
  std::memset(data, 9, sizeof data);
  cache.insert(1, std::span<const std::byte, kBlockSize>(data), nullptr);
  cache.mark_dirty(1);
  std::optional<fs::DirtyBlock> evicted;
  cache.insert(2, std::span<const std::byte, kBlockSize>(data), &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1u);
  EXPECT_EQ(evicted->second[0], std::byte{9});
}

TEST(BlockCache, TakeDirtyClearsFlags) {
  BlockCache cache(4);
  alignas(8) std::byte data[kBlockSize] = {};
  cache.insert(1, std::span<const std::byte, kBlockSize>(data), nullptr);
  cache.insert(2, std::span<const std::byte, kBlockSize>(data), nullptr);
  cache.mark_dirty(1);
  EXPECT_EQ(cache.take_dirty().size(), 1u);
  EXPECT_TRUE(cache.take_dirty().empty());
  EXPECT_FALSE(cache.is_dirty(1));
}

TEST(BlockCache, PeekMissThenLookupMissCountsOneMiss) {
  // The VFS borrow path peeks first and falls back to read_block, whose
  // lookup fetches the block: one absent block is one miss, not two.
  BlockCache cache(2);
  EXPECT_EQ(cache.peek(3), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  alignas(8) std::byte data[kBlockSize] = {};
  cache.insert(3, std::span<const std::byte, kBlockSize>(data), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCache, DirtyInsertMarksInTheSameCall) {
  BlockCache cache(2);
  alignas(8) std::byte data[kBlockSize] = {};
  cache.insert(1, std::span<const std::byte, kBlockSize>(data), nullptr, /*dirty=*/true);
  EXPECT_TRUE(cache.is_dirty(1));
  // A clean overwrite of a dirty block leaves it dirty: the bytes still
  // differ from the disk copy.
  cache.insert(1, std::span<const std::byte, kBlockSize>(data), nullptr);
  EXPECT_TRUE(cache.is_dirty(1));
}

namespace {

/// The list + hash-map LRU the slab cache replaced, kept as its reference
/// model: same victims, same take_dirty order, same counters.
class ListLru {
 public:
  using Victim = std::pair<std::uint32_t, std::vector<std::byte>>;

  explicit ListLru(std::size_t capacity) : capacity_(capacity) {}

  const std::byte* lookup(std::uint32_t bno, bool count_miss) {
    const auto it = map_.find(bno);
    if (it == map_.end()) {
      if (count_miss) ++stats.misses;
      return nullptr;
    }
    ++stats.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().data.data();
  }

  std::optional<Victim> insert(std::uint32_t bno, const std::byte* data, bool dirty) {
    std::optional<Victim> victim;
    if (const auto it = map_.find(bno); it != map_.end()) {
      std::memcpy(it->second->data.data(), data, kBlockSize);
      it->second->dirty = it->second->dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second);
      return victim;
    }
    if (map_.size() >= capacity_) {
      Entry& v = lru_.back();
      ++stats.evictions;
      if (v.dirty) {
        ++stats.writebacks;
        victim.emplace(v.bno, std::move(v.data));
      }
      map_.erase(v.bno);
      lru_.pop_back();
    }
    lru_.push_front(Entry{bno, dirty, std::vector<std::byte>(data, data + kBlockSize)});
    map_[bno] = lru_.begin();
    return victim;
  }

  void mark_dirty(std::uint32_t bno) { map_.at(bno)->dirty = true; }
  [[nodiscard]] bool is_dirty(std::uint32_t bno) const {
    const auto it = map_.find(bno);
    return it != map_.end() && it->second->dirty;
  }

  std::vector<Victim> take_dirty() {
    std::vector<Victim> out;
    for (Entry& e : lru_) {
      if (!e.dirty) continue;
      out.emplace_back(e.bno, e.data);
      e.dirty = false;
    }
    return out;
  }

  void invalidate_all() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  /// The cached block `roll % size()` positions from the most recent.
  [[nodiscard]] std::uint32_t nth_cached(std::uint64_t roll) const {
    auto it = lru_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(roll % lru_.size()));
    return it->bno;
  }

  fs::CacheStats stats;

 private:
  struct Entry {
    std::uint32_t bno;
    bool dirty;
    std::vector<std::byte> data;
  };
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint32_t, std::list<Entry>::iterator> map_;
};

bool same_bytes(const std::byte* a, const std::byte* b) {
  return std::memcmp(a, b, kBlockSize) == 0;
}

}  // namespace

TEST(BlockCache, RandomOpsMatchListReferenceModel) {
  for (std::size_t cap = 1; cap <= 8; ++cap) {
    BlockCache cache(cap);
    ListLru model(cap);
    Rng rng(1000 + cap);
    std::uint8_t tint = 0;
    // Twice the capacity plus two distinct blocks: hits, misses, evictions
    // and dirty write-backs all happen often.
    const std::uint64_t span = 2 * cap + 2;
    for (int op = 0; op < 4000; ++op) {
      const auto bno = static_cast<std::uint32_t>(rng.below(span) * 37);  // spread the keys
      const std::uint64_t roll = rng.below(100);
      SCOPED_TRACE("cap " + std::to_string(cap) + " op " + std::to_string(op));
      if (roll < 35) {
        const std::byte* want = model.lookup(bno, /*count_miss=*/true);
        const std::byte* got = cache.lookup(bno);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          ASSERT_TRUE(same_bytes(got, want));
        }
      } else if (roll < 45) {
        const std::byte* want = model.lookup(bno, /*count_miss=*/false);
        const std::byte* got = cache.peek(bno);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got != nullptr) {
          ASSERT_TRUE(same_bytes(got, want));
        }
      } else if (roll < 80) {
        alignas(8) std::byte data[kBlockSize];
        std::memset(data, ++tint, sizeof data);
        std::memcpy(data, &bno, sizeof bno);
        const bool dirty = rng.below(2) == 0;
        const std::optional<ListLru::Victim> want = model.insert(bno, data, dirty);
        std::optional<fs::DirtyBlock> got;
        const std::byte* stored =
            cache.insert(bno, std::span<const std::byte, kBlockSize>(data), &got, dirty);
        ASSERT_TRUE(same_bytes(stored, data));
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          ASSERT_EQ(got->first, want->first);
          ASSERT_TRUE(same_bytes(got->second.data(), want->second.data()));
        }
      } else if (roll < 88) {
        if (model.size() == 0) continue;
        const std::uint32_t b = model.nth_cached(rng.below(cap));
        model.mark_dirty(b);
        cache.mark_dirty(b);
      } else if (roll < 92) {
        ASSERT_EQ(cache.is_dirty(bno), model.is_dirty(bno));
      } else if (roll < 98) {
        const std::vector<ListLru::Victim> want = model.take_dirty();
        const std::vector<fs::DirtyBlock> got = cache.take_dirty();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].first, want[i].first) << "take_dirty order differs at " << i;
          ASSERT_TRUE(same_bytes(got[i].second.data(), want[i].second.data()));
        }
      } else {
        model.invalidate_all();
        cache.invalidate_all();
      }
      ASSERT_EQ(cache.size(), model.size());
      ASSERT_EQ(cache.stats().hits, model.stats.hits);
      ASSERT_EQ(cache.stats().misses, model.stats.misses);
      ASSERT_EQ(cache.stats().evictions, model.stats.evictions);
      ASSERT_EQ(cache.stats().writebacks, model.stats.writebacks);
    }
    EXPECT_GT(model.stats.writebacks, 0u) << "cap " << cap;
  }
}

// --- MiniFS ------------------------------------------------------------

TEST_F(FsFixture, MkfsProducesValidSuper) {
  EXPECT_EQ(mfs.super().magic, fs::kFsMagic);
  EXPECT_EQ(mfs.super().root_ino, fs::kRootIno);
  EXPECT_GT(mfs.free_blocks(), 0u);
}

TEST_F(FsFixture, CreateLookupRoundTrip) {
  const std::int64_t ino = mfs.create(fs::kRootIno, "file", fs::FileType::kRegular);
  ASSERT_GT(ino, 0);
  EXPECT_EQ(mfs.lookup(fs::kRootIno, "file"), ino);
  EXPECT_EQ(mfs.lookup(fs::kRootIno, "nope"), kernel::E_NOENT);
}

TEST_F(FsFixture, CreateDuplicateFails) {
  ASSERT_GT(mfs.create(fs::kRootIno, "x", fs::FileType::kRegular), 0);
  EXPECT_EQ(mfs.create(fs::kRootIno, "x", fs::FileType::kRegular), kernel::E_EXIST);
}

TEST_F(FsFixture, NameValidation) {
  EXPECT_EQ(mfs.create(fs::kRootIno, "", fs::FileType::kRegular), kernel::E_INVAL);
  EXPECT_EQ(mfs.create(fs::kRootIno, std::string(40, 'n'), fs::FileType::kRegular),
            kernel::E_NAMETOOLONG);
  EXPECT_EQ(mfs.create(fs::kRootIno, "a/b", fs::FileType::kRegular), kernel::E_INVAL);
}

TEST_F(FsFixture, ResolveWalksAbsolutePaths) {
  const std::int64_t tmp = mfs.create(fs::kRootIno, "tmp", fs::FileType::kDirectory);
  ASSERT_GT(tmp, 0);
  const std::int64_t x = mfs.create(static_cast<fs::Ino>(tmp), "x", fs::FileType::kRegular);
  ASSERT_GT(x, 0);
  const struct {
    std::string path;
    std::int64_t ino;     // resolve()
    std::int64_t parent;  // resolve_parent(): its directory on OK, else its error
  } cases[] = {
      {"", kernel::E_INVAL, kernel::E_INVAL},
      {"tmp/x", kernel::E_INVAL, kernel::E_INVAL},  // relative
      {"/", fs::kRootIno, kernel::E_INVAL},
      {"//tmp//x", x, tmp},
      {"/tmp/", kernel::E_INVAL, kernel::E_INVAL},  // trailing '/': no final name
      {"/tmp/x/y", kernel::E_NOTDIR, x},            // through a regular file
      {"/tmp/x/y/z", kernel::E_NOTDIR, kernel::E_NOTDIR},
      {"/nope/x", kernel::E_NOENT, kernel::E_NOENT},
      {"/tmp/" + std::string(fs::kNameMax + 1, 'n'), kernel::E_NAMETOOLONG, tmp},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(mfs.resolve(c.path), c.ino) << "'" << c.path << "'";
    fs::Ino dir = fs::kNoIno;
    std::string_view leaf;
    const std::int64_t r = mfs.resolve_parent(c.path, &dir, &leaf);
    if (c.parent > 0) {
      EXPECT_EQ(r, kernel::OK) << "'" << c.path << "'";
      EXPECT_EQ(dir, c.parent) << "'" << c.path << "'";
      EXPECT_EQ(leaf, std::string_view(c.path).substr(c.path.rfind('/') + 1)) << c.path;
    } else {
      EXPECT_EQ(r, c.parent) << "'" << c.path << "'";
    }
  }
}

TEST_F(FsFixture, WriteReadBack) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "f", fs::FileType::kRegular));
  const auto data = bytes("the quick brown fox");
  EXPECT_EQ(mfs.write(ino, 0, data), static_cast<std::int64_t>(data.size()));
  std::vector<std::byte> rd(data.size());
  EXPECT_EQ(mfs.read(ino, 0, rd), static_cast<std::int64_t>(data.size()));
  EXPECT_EQ(std::memcmp(rd.data(), data.data(), data.size()), 0);
}

TEST_F(FsFixture, PartialAndOffsetReads) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "f", fs::FileType::kRegular));
  mfs.write(ino, 0, bytes("0123456789"));
  std::vector<std::byte> rd(4);
  EXPECT_EQ(mfs.read(ino, 6, rd), 4);
  EXPECT_EQ(std::memcmp(rd.data(), "6789", 4), 0);
  EXPECT_EQ(mfs.read(ino, 10, rd), 0);  // at EOF
  EXPECT_EQ(mfs.read(ino, 8, rd), 2);   // clamped
}

TEST_F(FsFixture, CrossBlockWrites) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "f", fs::FileType::kRegular));
  std::vector<std::byte> big(3 * kBlockSize + 100, std::byte{0x3c});
  EXPECT_EQ(mfs.write(ino, 0, big), static_cast<std::int64_t>(big.size()));
  std::vector<std::byte> rd(big.size());
  EXPECT_EQ(mfs.read(ino, 0, rd), static_cast<std::int64_t>(big.size()));
  EXPECT_EQ(rd.back(), std::byte{0x3c});
  fs::Attr attr{};
  EXPECT_EQ(mfs.getattr(ino, &attr), kernel::OK);
  EXPECT_EQ(attr.size, big.size());
}

TEST_F(FsFixture, IndirectBlocks) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "big", fs::FileType::kRegular));
  // Past the 10 direct blocks.
  std::vector<std::byte> chunk(kBlockSize, std::byte{0x11});
  for (std::uint32_t b = 0; b < 14; ++b) {
    EXPECT_EQ(mfs.write(ino, b * kBlockSize, chunk), static_cast<std::int64_t>(kBlockSize));
  }
  std::vector<std::byte> rd(kBlockSize);
  EXPECT_EQ(mfs.read(ino, 13 * kBlockSize, rd), static_cast<std::int64_t>(kBlockSize));
  EXPECT_EQ(rd[0], std::byte{0x11});
}

TEST_F(FsFixture, HolesReadAsZeroes) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "s", fs::FileType::kRegular));
  mfs.write(ino, 3 * kBlockSize, bytes("end"));
  std::vector<std::byte> rd(16);
  EXPECT_EQ(mfs.read(ino, 0, rd), 16);
  for (auto b : rd) EXPECT_EQ(b, std::byte{0});
}

TEST_F(FsFixture, MaxFileSizeEnforced) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "f", fs::FileType::kRegular));
  std::vector<std::byte> chunk(16, std::byte{1});
  EXPECT_EQ(mfs.write(ino, fs::kMaxFileSize - 8, chunk), kernel::E_FBIG);
}

TEST_F(FsFixture, UnlinkFreesBlocks) {
  // Prime the root directory so its entry block already exists (directory
  // growth is permanent and would otherwise skew the accounting below).
  ASSERT_GT(mfs.create(fs::kRootIno, "prime", fs::FileType::kRegular), 0);
  ASSERT_EQ(mfs.unlink(fs::kRootIno, "prime"), kernel::OK);
  const std::uint32_t before = mfs.free_blocks();
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "f", fs::FileType::kRegular));
  std::vector<std::byte> chunk(4 * kBlockSize, std::byte{1});
  mfs.write(ino, 0, chunk);
  EXPECT_LT(mfs.free_blocks(), before);
  EXPECT_EQ(mfs.unlink(fs::kRootIno, "f"), kernel::OK);
  EXPECT_EQ(mfs.free_blocks(), before);
  EXPECT_EQ(mfs.lookup(fs::kRootIno, "f"), kernel::E_NOENT);
}

TEST_F(FsFixture, UnlinkDirectoryRejected) {
  ASSERT_GT(mfs.create(fs::kRootIno, "d", fs::FileType::kDirectory), 0);
  EXPECT_EQ(mfs.unlink(fs::kRootIno, "d"), kernel::E_ISDIR);
  EXPECT_EQ(mfs.rmdir(fs::kRootIno, "d"), kernel::OK);
}

TEST_F(FsFixture, RmdirNonEmptyRejected) {
  const auto dir = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "d", fs::FileType::kDirectory));
  ASSERT_GT(mfs.create(dir, "inner", fs::FileType::kRegular), 0);
  EXPECT_EQ(mfs.rmdir(fs::kRootIno, "d"), kernel::E_NOTEMPTY);
  EXPECT_EQ(mfs.unlink(dir, "inner"), kernel::OK);
  EXPECT_EQ(mfs.rmdir(fs::kRootIno, "d"), kernel::OK);
}

TEST_F(FsFixture, RenameKeepsInode) {
  const std::int64_t ino = mfs.create(fs::kRootIno, "old", fs::FileType::kRegular);
  ASSERT_GT(ino, 0);
  EXPECT_EQ(mfs.rename(fs::kRootIno, "old", "new"), kernel::OK);
  EXPECT_EQ(mfs.lookup(fs::kRootIno, "new"), ino);
  EXPECT_EQ(mfs.lookup(fs::kRootIno, "old"), kernel::E_NOENT);
  EXPECT_EQ(mfs.rename(fs::kRootIno, "missing", "x"), kernel::E_NOENT);
}

TEST_F(FsFixture, ReaddirEnumeratesAndSkipsHoles) {
  for (const char* n : {"a", "b", "c"}) {
    ASSERT_GT(mfs.create(fs::kRootIno, n, fs::FileType::kRegular), 0);
  }
  ASSERT_EQ(mfs.unlink(fs::kRootIno, "b"), kernel::OK);
  std::vector<std::string> names;
  for (std::size_t i = 0;; ++i) {
    const auto e = mfs.readdir(fs::kRootIno, i);
    if (!e) break;
    names.emplace_back(e->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a", "c"}));
}

TEST_F(FsFixture, TruncateShrinkFreesAndZeroes) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "t", fs::FileType::kRegular));
  std::vector<std::byte> chunk(12 * kBlockSize, std::byte{7});  // uses indirect too
  ASSERT_EQ(mfs.write(ino, 0, chunk), static_cast<std::int64_t>(chunk.size()));
  const std::uint32_t free_before = mfs.free_blocks();
  EXPECT_EQ(mfs.truncate(ino, 100), kernel::OK);
  EXPECT_GT(mfs.free_blocks(), free_before);
  fs::Attr attr{};
  EXPECT_EQ(mfs.getattr(ino, &attr), kernel::OK);
  EXPECT_EQ(attr.size, 100u);
}

TEST_F(FsFixture, DirEntrySlotReuse) {
  ASSERT_GT(mfs.create(fs::kRootIno, "one", fs::FileType::kRegular), 0);
  const fs::Attr before = [&] {
    fs::Attr a{};
    mfs.getattr(fs::kRootIno, &a);
    return a;
  }();
  ASSERT_EQ(mfs.unlink(fs::kRootIno, "one"), kernel::OK);
  ASSERT_GT(mfs.create(fs::kRootIno, "two", fs::FileType::kRegular), 0);
  fs::Attr after{};
  mfs.getattr(fs::kRootIno, &after);
  EXPECT_EQ(after.size, before.size);  // the freed dirent slot was reused
}

TEST_F(FsFixture, DiskFullPartialWrite) {
  const auto ino = static_cast<fs::Ino>(mfs.create(fs::kRootIno, "fill", fs::FileType::kRegular));
  std::vector<std::byte> chunk(kBlockSize, std::byte{1});
  std::int64_t written_blocks = 0;
  std::uint32_t off = 0;
  // Exhaust the disk using several files (each capped by kMaxFileSize).
  int file_no = 0;
  fs::Ino cur = ino;
  for (;;) {
    const std::int64_t n = mfs.write(cur, off, chunk);
    if (n == static_cast<std::int64_t>(kBlockSize)) {
      ++written_blocks;
      off += kBlockSize;
      if (off + kBlockSize > fs::kMaxFileSize) {
        const std::int64_t next = mfs.create(
            fs::kRootIno, "fill" + std::to_string(++file_no), fs::FileType::kRegular);
        if (next < 0) break;
        cur = static_cast<fs::Ino>(next);
        off = 0;
      }
      continue;
    }
    EXPECT_TRUE(n == kernel::E_NOSPC || (n >= 0 && n < static_cast<std::int64_t>(kBlockSize)));
    break;
  }
  EXPECT_GT(written_blocks, 0);
  EXPECT_EQ(mfs.free_blocks(), 0u);
}

TEST(MiniFsMount, RejectsUnformattedDevice) {
  VirtualClock clock;
  BlockDevice dev(clock, 64);
  DirectStore store(dev);
  MiniFs mfs(store);
  EXPECT_EQ(mfs.mount(), kernel::E_INVAL);
}
