// Microbenchmarks (google-benchmark) for the checkpointing substrate — the
// ablation behind Table V: what one instrumented store costs in each
// instrumentation mode, and what checkpoint/rollback cost at the undo-log
// sizes the servers actually produce.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ckpt/cell.hpp"
#include "ckpt/context.hpp"
#include "ckpt/undo_log.hpp"

using namespace osiris;

namespace {

void BM_UndoLogRecord(benchmark::State& state) {
  // Same address every iteration: after the first capture per window this
  // measures the duplicate-store filter hit path (the loop-heavy-handler
  // shape the filter exists for).
  ckpt::UndoLog log;
  std::uint64_t cell = 0;
  for (auto _ : state) {
    log.record(&cell, sizeof cell);
    if (log.entry_count() >= 1024) log.checkpoint();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UndoLogRecord);

void BM_UndoLogRecordDistinct(benchmark::State& state) {
  // Distinct addresses: every record misses the filter and takes the arena
  // append path (entry header + old-byte capture in one allocation).
  ckpt::UndoLog log;
  std::uint64_t cells[1024] = {};
  std::size_t i = 0;
  for (auto _ : state) {
    log.record(&cells[i], sizeof cells[i]);
    if (++i == 1024) {
      i = 0;
      log.checkpoint();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UndoLogRecordDistinct);

void BM_UndoLogRollback(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::UndoLog log;
  std::vector<std::uint64_t> cells(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      log.record(&cells[i], sizeof cells[i]);
      cells[i] = i;
    }
    log.rollback();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UndoLogRollback)->Arg(8)->Arg(64)->Arg(512);

void BM_CheckpointReset(benchmark::State& state) {
  ckpt::UndoLog log;
  std::uint64_t cell = 0;
  for (auto _ : state) {
    log.record(&cell, sizeof cell);
    log.checkpoint();
  }
}
BENCHMARK(BM_CheckpointReset);

// One instrumented store under each instrumentation mode — the per-store
// cost structure behind Table V's "without opt" vs optimized columns.
void BM_CellStore(benchmark::State& state) {
  const auto mode = static_cast<ckpt::Mode>(state.range(0));
  const bool window_open = state.range(1) != 0;
  ckpt::Context ctx(mode);
  ctx.set_window_open(window_open);
  ckpt::Context::Scope scope(&ctx);
  ckpt::Cell<std::uint64_t> cell;
  std::uint64_t v = 0;
  for (auto _ : state) {
    cell = ++v;
    if (ctx.log().entry_count() >= 4096) ctx.log().checkpoint();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellStore)
    ->ArgNames({"mode", "window"})
    ->Args({static_cast<int>(ckpt::Mode::kOff), 0})         // uninstrumented
    ->Args({static_cast<int>(ckpt::Mode::kAlways), 0})      // without opt, window closed
    ->Args({static_cast<int>(ckpt::Mode::kAlways), 1})      // without opt, window open
    ->Args({static_cast<int>(ckpt::Mode::kWindowOnly), 0})  // optimized, window closed
    ->Args({static_cast<int>(ckpt::Mode::kWindowOnly), 1});  // optimized, window open

void BM_TableAllocFree(benchmark::State& state) {
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  ctx.set_window_open(true);
  ckpt::Context::Scope scope(&ctx);
  ckpt::Table<std::uint64_t, 64> table;
  for (auto _ : state) {
    const std::size_t i = table.alloc();
    table.mutate(i) = 42;
    table.free(i);
    ctx.log().checkpoint();
  }
}
BENCHMARK(BM_TableAllocFree);

// Alloc/free cycling in a nearly full table — the fd/proc/inode-table shape
// on a busy system, where a linear first-free scan pays O(N) per alloc and
// the free-list head stays O(1).
void BM_TableAllocNearFull(benchmark::State& state) {
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  ctx.set_window_open(true);
  ckpt::Context::Scope scope(&ctx);
  ckpt::Table<std::uint64_t, 256> table;
  for (std::size_t i = 0; i < 255; ++i) (void)table.alloc();
  for (auto _ : state) {
    const std::size_t i = table.alloc();
    table.free(i);
    ctx.log().checkpoint();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableAllocNearFull);

// --- state-size sweep, 1 KB -> 256 MB ---------------------------------------
//
// One fixed per-window workload — up to 32 scattered 64 B stores — run against
// state buffers from the paper's KB scale up to 256 MB:
//
//   SweepWindowArena          steady-state logging + checkpoint cost per
//                             window: flat in S, one arena record per store.
//   SweepRecoveryFullCopy     crash cost per recovery: rollback plus the
//                             restart phase's whole-image clone copy, linear
//                             in S.

constexpr std::size_t kSweepStoreBytes = 64;

std::size_t sweep_stores(std::size_t len) {
  return std::min<std::size_t>(32, len / kSweepStoreBytes);
}

// Scattered small dirties through the active context, as instrumented
// wrappers store.
void sweep_window(std::byte* buf, std::size_t len) {
  const std::size_t n = sweep_stores(len);
  const std::size_t stride = len / n;
  for (std::size_t i = 0; i < n; ++i) {
    std::byte* p = buf + i * stride;
    ckpt::Context::log_write(p, kSweepStoreBytes);
    p[0] = static_cast<std::byte>(i);
  }
}

void BM_SweepWindowArena(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0)) << 10;
  std::vector<std::byte> buf(len);
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  ctx.set_window_open(true);
  ckpt::Context::Scope scope(&ctx);
  for (auto _ : state) {
    sweep_window(buf.data(), len);
    ctx.log().checkpoint();
  }
  state.counters["logged_bytes"] = static_cast<double>(ctx.log().stats().bytes_logged) /
                                   static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sweep_stores(len)));
}
BENCHMARK(BM_SweepWindowArena)
    ->ArgName("kb")
    ->Arg(1)->Arg(16)->Arg(256)->Arg(1 << 10)->Arg(16 << 10)->Arg(64 << 10)->Arg(256 << 10);

// A crash pays rollback plus a whole-image clone copy.
void BM_SweepRecoveryFullCopy(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0)) << 10;
  std::vector<std::byte> buf(len), clone(len);
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  ctx.set_window_open(true);
  ckpt::Context::Scope scope(&ctx);
  for (auto _ : state) {
    sweep_window(buf.data(), len);
    std::memcpy(clone.data(), buf.data(), len);  // restart phase: full image
    ctx.log().rollback();
    benchmark::DoNotOptimize(clone.data());
  }
  state.counters["restart_bytes"] = static_cast<double>(len);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
}
BENCHMARK(BM_SweepRecoveryFullCopy)
    ->ArgName("kb")
    ->Arg(1)->Arg(16)->Arg(256)->Arg(1 << 10)->Arg(16 << 10)->Arg(64 << 10)->Arg(256 << 10);

// Restart-phase state transfer at VM scale (the dominant clone copy).
void BM_StateTransfer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n), dst(n);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StateTransfer)->Arg(4 << 10)->Arg(64 << 10)->Arg(512 << 10);

}  // namespace

BENCHMARK_MAIN();
