// Unit tests: the checkpointing substrate — undo log semantics, the
// instrumented state wrappers, the three instrumentation modes, and a
// randomized check of the undo log against a snapshot model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "ckpt/cell.hpp"
#include "ckpt/context.hpp"
#include "ckpt/undo_log.hpp"

using namespace osiris;

TEST(UndoLog, RollbackRestoresSingleWrite) {
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.rollback();
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLog, RollbackIsLifo) {
  // The same location written twice must roll back to the OLDEST value.
  ckpt::UndoLog log;
  int v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.record(&v, sizeof v);
  v = 3;
  log.rollback();
  EXPECT_EQ(v, 1);
}

TEST(UndoLog, CheckpointDiscardsEntries) {
  ckpt::UndoLog log;
  int v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.checkpoint();
  EXPECT_TRUE(log.empty());
  log.rollback();  // nothing to undo
  EXPECT_EQ(v, 2);
}

TEST(UndoLog, TracksMaxLiveBytes) {
  ckpt::UndoLog log;
  std::uint64_t a = 0, b = 0;
  log.record(&a, sizeof a);
  log.record(&b, sizeof b);
  const std::size_t high = log.stats().max_log_bytes;
  EXPECT_GT(high, 0u);
  log.checkpoint();
  EXPECT_EQ(log.live_bytes(), 0u);
  EXPECT_EQ(log.stats().max_log_bytes, high);  // high-water survives reset
}

TEST(UndoLog, CountsOperations) {
  ckpt::UndoLog log;
  int v = 0;
  log.record(&v, sizeof v);
  log.rollback();
  log.checkpoint();
  EXPECT_EQ(log.stats().records, 1u);
  EXPECT_EQ(log.stats().rollbacks, 1u);
  EXPECT_EQ(log.stats().checkpoints, 1u);
}

TEST(UndoLog, DuplicateStoreLoggedOncePerWindow) {
  // Re-recording an exact (addr, len) range inside one window is elided by
  // the first-write filter: the log keeps only the oldest capture, which is
  // the one rollback needs anyway.
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.record(&v, sizeof v);
  v = 3;
  log.record(&v, sizeof v);
  v = 4;
  EXPECT_EQ(log.entry_count(), 1u);
  EXPECT_EQ(log.stats().duplicate_skips, 2u);
  log.rollback();
  EXPECT_EQ(v, 1u);
}

TEST(UndoLog, OverlappingRangeStillLogged) {
  // The filter matches exact (addr, len) only: a same-address store of a
  // different length, or an interior store, must still be captured.
  ckpt::UndoLog log;
  char buf[16];
  std::memset(buf, 'a', sizeof buf);
  log.record(buf, sizeof buf);
  std::memset(buf, 'b', sizeof buf);
  log.record(buf, 8);       // same addr, different len
  log.record(buf + 4, 4);   // interior range
  EXPECT_EQ(log.entry_count(), 3u);
  EXPECT_EQ(log.stats().duplicate_skips, 0u);
  std::memset(buf, 'c', sizeof buf);
  log.rollback();  // oldest capture applied last wins
  for (char c : buf) EXPECT_EQ(c, 'a');
}

TEST(UndoLog, FilterResetsAtCheckpoint) {
  // A new window means a new first write: the same range must be re-captured
  // after checkpoint() so rollback restores the *new* checkpoint's value.
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.checkpoint();
  log.record(&v, sizeof v);
  v = 3;
  EXPECT_EQ(log.entry_count(), 1u);
  log.rollback();
  EXPECT_EQ(v, 2u);  // the post-checkpoint capture, not the stale 1
}

TEST(UndoLog, FilterResetsAfterRollback) {
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  log.record(&v, sizeof v);
  v = 2;
  log.rollback();
  log.record(&v, sizeof v);  // must not be treated as a duplicate
  v = 5;
  EXPECT_EQ(log.entry_count(), 1u);
  log.rollback();
  EXPECT_EQ(v, 1u);
}

TEST(UndoLog, ArenaGrowthPreservesEntries) {
  // Push well past the initial arena so entry headers and saved bytes are
  // both relocated mid-log; every capture must survive the regrow.
  ckpt::UndoLog log;
  std::vector<std::uint64_t> cells(4096);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = i;
    log.record(&cells[i], sizeof cells[i]);
    cells[i] = ~i;
  }
  EXPECT_EQ(log.entry_count(), cells.size());
  EXPECT_TRUE(log.integrity_ok());
  log.rollback();
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i], i);
}

TEST(UndoLog, IntegrityCanaryOk) {
  ckpt::UndoLog log;
  EXPECT_TRUE(log.integrity_ok());
}

TEST(UndoLog, MultiByteRanges) {
  ckpt::UndoLog log;
  char buf[64];
  std::memset(buf, 'a', sizeof buf);
  log.record(buf, sizeof buf);
  std::memset(buf, 'b', sizeof buf);
  log.rollback();
  for (char c : buf) EXPECT_EQ(c, 'a');
}

namespace {

struct ScopedCtx {
  explicit ScopedCtx(ckpt::Mode mode) : ctx(mode), scope(&ctx) {}
  ckpt::Context ctx;
  ckpt::Context::Scope scope;
};

}  // namespace

TEST(Context, ModeOffNeverLogs) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Cell<int> cell;
  cell = 5;
  EXPECT_TRUE(s.ctx.log().empty());
}

TEST(Context, ModeAlwaysLogsEvenWithWindowClosed) {
  ScopedCtx s(ckpt::Mode::kAlways);
  s.ctx.set_window_open(false);
  ckpt::Cell<int> cell;
  cell = 5;
  EXPECT_EQ(s.ctx.log().entry_count(), 1u);
}

TEST(Context, ModeWindowOnlyGatesOnWindow) {
  ScopedCtx s(ckpt::Mode::kWindowOnly);
  ckpt::Cell<int> cell;
  s.ctx.set_window_open(false);
  cell = 1;
  EXPECT_TRUE(s.ctx.log().empty());
  s.ctx.set_window_open(true);
  cell = 2;
  EXPECT_EQ(s.ctx.log().entry_count(), 1u);
}

TEST(Context, NoActiveContextIsSafe) {
  ASSERT_EQ(ckpt::Context::active(), nullptr);
  ckpt::Cell<int> cell;
  cell = 3;  // must not crash: harness-side stores are uninstrumented
  EXPECT_EQ(static_cast<int>(cell), 3);
}

TEST(Context, ScopesNest) {
  ckpt::Context outer(ckpt::Mode::kAlways);
  ckpt::Context inner(ckpt::Mode::kAlways);
  ckpt::Context::Scope so(&outer);
  EXPECT_EQ(ckpt::Context::active(), &outer);
  {
    ckpt::Context::Scope si(&inner);
    EXPECT_EQ(ckpt::Context::active(), &inner);
    ckpt::Cell<int> c;
    c = 1;
    EXPECT_EQ(inner.log().entry_count(), 1u);
    EXPECT_TRUE(outer.log().empty());
  }
  EXPECT_EQ(ckpt::Context::active(), &outer);
}

TEST(Cell, RollbackRestoresValue) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Cell<std::uint32_t> cell;
  cell = 10;
  s.ctx.log().checkpoint();
  cell = 20;
  cell += 5;
  s.ctx.log().rollback();
  EXPECT_EQ(static_cast<std::uint32_t>(cell), 10u);
}

TEST(Cell, CompoundOperators) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Cell<int> cell;
  cell = 4;
  cell += 3;
  cell -= 2;
  ++cell;
  EXPECT_EQ(static_cast<int>(cell), 6);
}

TEST(Array, SetAndRollback) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Array<int, 8> arr;
  arr.set(3, 7);
  s.ctx.log().checkpoint();
  arr.set(3, 9);
  s.ctx.log().rollback();
  EXPECT_EQ(arr.at(3), 7);
}

TEST(Array, MutateLogsWholeElement) {
  ScopedCtx s(ckpt::Mode::kAlways);
  struct Pair {
    int a = 0, b = 0;
  };
  ckpt::Array<Pair, 4> arr;
  arr.mutate(1) = Pair{1, 2};
  s.ctx.log().checkpoint();
  auto& p = arr.mutate(1);
  p.a = 9;
  p.b = 9;
  s.ctx.log().rollback();
  EXPECT_EQ(arr.at(1).a, 1);
  EXPECT_EQ(arr.at(1).b, 2);
}

TEST(Array, StoreRangeFineGrained) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Array<std::uint8_t, 64> arr;
  const std::uint8_t src[4] = {1, 2, 3, 4};
  arr.store_range(10, src, 4);
  // Only 4 bytes should have been logged, not the whole array.
  EXPECT_LT(s.ctx.log().live_bytes(), 64u);
  s.ctx.log().checkpoint();
  const std::uint8_t src2[4] = {9, 9, 9, 9};
  arr.store_range(10, src2, 4);
  s.ctx.log().rollback();
  EXPECT_EQ(arr.at(10), 1);
  EXPECT_EQ(arr.at(13), 4);
}

TEST(Table, AllocFreeAndFind) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Table<int, 4> table;
  const std::size_t a = table.alloc();
  const std::size_t b = table.alloc();
  ASSERT_NE(a, decltype(table)::npos);
  ASSERT_NE(b, decltype(table)::npos);
  EXPECT_NE(a, b);
  table.mutate(a) = 10;
  table.mutate(b) = 20;
  EXPECT_EQ(table.in_use_count(), 2u);
  EXPECT_EQ(table.find([](int v) { return v == 20; }), b);
  table.free(a);
  EXPECT_EQ(table.in_use_count(), 1u);
  EXPECT_EQ(table.find([](int v) { return v == 10; }), decltype(table)::npos);
}

TEST(Table, FullTableReturnsNpos) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Table<int, 2> table;
  EXPECT_NE(table.alloc(), decltype(table)::npos);
  EXPECT_NE(table.alloc(), decltype(table)::npos);
  EXPECT_EQ(table.alloc(), decltype(table)::npos);
}

TEST(Table, AllocationRollsBack) {
  // The crash-recovery property the whole design rests on: allocation
  // bookkeeping made inside a window disappears on rollback.
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Table<int, 4> table;
  const std::size_t a = table.alloc();
  table.mutate(a) = 1;
  s.ctx.log().checkpoint();  // top of the loop
  const std::size_t b = table.alloc();
  table.mutate(b) = 2;
  table.free(a);
  s.ctx.log().rollback();
  EXPECT_TRUE(table.in_use(a));
  EXPECT_FALSE(table.in_use(b));
  EXPECT_EQ(table.at(a), 1);
}

TEST(Table, ValueInitializesReusedSlots) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Table<int, 2> table;
  const std::size_t a = table.alloc();
  table.mutate(a) = 99;
  table.free(a);
  const std::size_t again = table.alloc();
  EXPECT_EQ(again, a);
  EXPECT_EQ(table.at(again), 0);
}

TEST(Table, FreeListReusesLifo) {
  // The free list is a LIFO stack: the most recently freed slot is handed
  // out first. Pinning the order keeps allocation traces (and therefore
  // campaign results) deterministic.
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Table<int, 8> table;
  const std::size_t a = table.alloc();  // 0
  const std::size_t b = table.alloc();  // 1
  const std::size_t c = table.alloc();  // 2
  table.free(a);
  table.free(b);
  EXPECT_EQ(table.alloc(), b);  // freed last, reused first
  EXPECT_EQ(table.alloc(), a);
  EXPECT_EQ(table.alloc(), 3u);  // fresh slots resume past c
  EXPECT_TRUE(table.in_use(c));
}

TEST(Table, InUseCountStaysConsistent) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::Table<int, 4> table;
  EXPECT_EQ(table.in_use_count(), 0u);
  const std::size_t a = table.alloc();
  const std::size_t b = table.alloc();
  EXPECT_EQ(table.in_use_count(), 2u);
  table.free(a);
  EXPECT_EQ(table.in_use_count(), 1u);
  table.free(b);
  EXPECT_EQ(table.in_use_count(), 0u);
  // Drain the whole table; the cached count must match capacity exactly.
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    ASSERT_NE(table.alloc(), decltype(table)::npos);
  }
  EXPECT_EQ(table.in_use_count(), table.capacity());
  EXPECT_EQ(table.alloc(), decltype(table)::npos);
}

TEST(Table, FreeListRollsBackWithAllocator) {
  // The free-list links and cached count are recoverable state: after a
  // rollback the allocator must hand out the SAME slots it would have before
  // the rolled-back window ran, not a desynced sequence.
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Table<int, 8> table;
  const std::size_t a = table.alloc();
  const std::size_t b = table.alloc();
  table.free(a);
  s.ctx.log().checkpoint();

  // Window: churn the allocator, then crash.
  const std::size_t r1 = table.alloc();  // reuses a
  EXPECT_EQ(r1, a);
  table.free(b);
  (void)table.alloc();
  (void)table.alloc();
  s.ctx.log().rollback();

  EXPECT_EQ(table.in_use_count(), 1u);
  EXPECT_FALSE(table.in_use(a));
  EXPECT_TRUE(table.in_use(b));
  // Replaying the same operations yields the same slots as before the crash.
  EXPECT_EQ(table.alloc(), a);
}

TEST(Str, AssignAndRollback) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::Str<16> str;
  str = "before";
  s.ctx.log().checkpoint();
  str = "after";
  s.ctx.log().rollback();
  EXPECT_EQ(str.view(), "before");
}

// --- randomized rollback against a snapshot model ----------------------------
//
// A seeded script of stores and checkpoints runs through Context::log_write,
// the way instrumented wrappers store, over the whole buffer. The model
// copies the buffer at each checkpoint; the closing full rollback must
// restore the last checkpoint's copy exactly, whatever the stores overlap.
TEST(UndoLogProperty, RollbackMatchesSnapshotModel) {
  constexpr std::size_t kLen = 512;
  constexpr std::size_t kSpan = 192;  // longest store
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::byte> buf(kLen);
    for (std::size_t i = 0; i < kLen; ++i) buf[i] = static_cast<std::byte>(i * 7 + 3);
    std::vector<std::byte> at_checkpoint = buf;
    ScopedCtx s(ckpt::Mode::kAlways);
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 300; ++step) {
      if (rng() % 10 == 0) {
        s.ctx.log().checkpoint();
        at_checkpoint = buf;
        continue;
      }
      const std::size_t off = rng() % kLen;
      const std::size_t n = 1 + rng() % std::min<std::size_t>(kLen - off, kSpan);
      const auto fill = static_cast<std::uint8_t>(rng());
      ckpt::Context::log_write(buf.data() + off, n);
      std::memset(buf.data() + off, fill, n);
    }
    s.ctx.log().rollback();
    EXPECT_TRUE(s.ctx.log().integrity_ok());
    EXPECT_EQ(buf, at_checkpoint) << "seed " << seed;
  }
}
