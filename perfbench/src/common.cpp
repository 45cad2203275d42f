// Stats snapshots, deterministic per-layer counts, and the crash-handler
// timing wrapper shared by every workload.
#include <ucontext.h>

#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "fi/registry.hpp"

namespace perfbench {

using namespace osiris;

StatsSnap snapshot(os::OsInstance& inst) {
  StatsSnap s;
  s.kern = inst.kern().stats();
  s.cache = inst.vfs().cache_stats();
  s.disk = inst.disk().stats();
  s.engine = inst.engine().stats();
  const core::SystemMetrics m = core::collect_metrics(inst);
  for (const core::ComponentMetrics& c : m.components) {
    s.windows += c.windows_opened;
    s.closed_by_seep += c.closed_by_seep;
    s.closed_by_yield += c.closed_by_yield;
    s.undo_records += c.undo_records;
    s.undo_peak_bytes = std::max(s.undo_peak_bytes, c.max_undo_log_bytes);
  }
  s.weighted_coverage = m.weighted_coverage;
  for (const fi::Site* site : fi::Registry::sites()) s.probe_hits += site->hits();
  s.steps = inst.steps();
  s.vnow = inst.clock().now();
  return s;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void fill_layer_counts(Rep& rep, const StatsSnap& a, const StatsSnap& b, std::uint64_t ops) {
  std::map<std::string, double>& e = rep.exact;
  const double n = static_cast<double>(ops);
  auto per_op = [n](std::uint64_t hi, std::uint64_t lo) { return ratio(static_cast<double>(hi - lo), n); };
  const kernel::KernelStats& ka = a.kern;
  const kernel::KernelStats& kb = b.kern;
  const Tick vticks = b.vnow - a.vnow;

  e["ops"] = n;
  e["vticks"] = static_cast<double>(vticks);
  e["vops_per_ktick"] = ratio(n * 1000.0, static_cast<double>(vticks));
  e["vlat_p50_ticks"] = percentile(rep.vlat, 0.50);
  e["vlat_p99_ticks"] = percentile(rep.vlat, 0.99);

  e["kernel.msgs_per_op"] = per_op(kb.messages_queued, ka.messages_queued);
  e["kernel.nested_calls_per_op"] = per_op(kb.nested_calls, ka.nested_calls);
  e["kernel.queue_high_water"] = static_cast<double>(kb.queue_high_water);
  const double safe = static_cast<double>(kb.safecopy_bytes - ka.safecopy_bytes);
  const double bypass = static_cast<double>(kb.grant_bypass_bytes - ka.grant_bypass_bytes);
  e["kernel.copy_bytes_per_op"] = ratio(safe + bypass, n);
  e["kernel.safecopy_frac"] = ratio(safe, safe + bypass);
  e["kernel.grants_per_op"] = per_op(kb.grants_created, ka.grants_created);
  e["kernel.msgs"] = static_cast<double>(kb.messages_queued - ka.messages_queued);

  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  e["fs.cache_hit_ratio"] = ratio(hits, hits + misses);
  e["fs.evictions_per_op"] = per_op(b.cache.evictions, a.cache.evictions);
  e["fs.writebacks_per_op"] = per_op(b.cache.writebacks, a.cache.writebacks);
  e["fs.disk_reads_per_op"] = per_op(b.disk.reads, a.disk.reads);
  e["fs.disk_writes_per_op"] = per_op(b.disk.writes, a.disk.writes);

  const double windows = static_cast<double>(b.windows - a.windows);
  e["seep.windows_per_op"] = ratio(windows, n);
  e["seep.closed_by_seep_frac"] = ratio(static_cast<double>(b.closed_by_seep - a.closed_by_seep), windows);
  e["seep.closed_by_yield_frac"] =
      ratio(static_cast<double>(b.closed_by_yield - a.closed_by_yield), windows);
  e["seep.weighted_coverage"] = b.weighted_coverage;

  e["ckpt.undo_records_per_op"] = per_op(b.undo_records, a.undo_records);
  e["ckpt.undo_log_peak_bytes"] = static_cast<double>(b.undo_peak_bytes);

  e["fi.probe_hits_per_op"] = per_op(b.probe_hits, a.probe_hits);
  e["os.steps_per_op"] = per_op(b.steps, a.steps);

  const recovery::EngineStats& ea = a.engine;
  const recovery::EngineStats& eb = b.engine;
  const double crashes = static_cast<double>(eb.crashes_seen - ea.crashes_seen);
  e["recovery.crashes"] = crashes;
  e["recovery.restarts"] = static_cast<double>(eb.restarts - ea.restarts);
  e["recovery.rollbacks"] = static_cast<double>(eb.rollbacks - ea.rollbacks);
  e["recovery.transient_frac"] =
      ratio(static_cast<double>(eb.transient_crashes - ea.transient_crashes), crashes);
}

namespace {

ucontext_t g_main_ctx, g_peer_ctx;
volatile std::uint64_t g_calib_sink = 0;

void calib_peer() {
  for (;;) {
    g_calib_sink = g_calib_sink + 1;
    swapcontext(&g_peer_ctx, &g_main_ctx);
  }
}

}  // namespace

double calibration_seconds() {
  static std::vector<char> peer_stack(64 * 1024);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::uint64_t t0 = now_ns();
  std::uint64_t sink = 0;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (int i = 0; i < 40000; ++i) {
      m[next() % 8192] += static_cast<std::uint64_t>(i);
      if (i % 3 == 0) m.erase(next() % 8192);
    }
    sink += m.size();
  }
  {
    std::vector<std::vector<std::byte>> blocks(64);
    std::vector<std::byte> bulk(32 * 1024), copy(32 * 1024);
    for (int i = 0; i < 8000; ++i) {
      blocks[static_cast<std::size_t>(i) % blocks.size()] =
          std::vector<std::byte>(1024, static_cast<std::byte>(i));
      if (i % 16 == 0) {
        std::memcpy(copy.data(), bulk.data(), bulk.size());
        bulk[static_cast<std::size_t>(i) % bulk.size()] = copy[0];
      }
    }
    sink += static_cast<std::uint64_t>(bulk[7]);
  }
  {
    std::multimap<std::uint64_t, std::function<void()>> q;
    for (std::uint64_t i = 0; i < 20000; ++i) {
      q.emplace(i + next() % 64, [&sink, i] { sink += i; });
      if (q.size() > 48) {
        q.begin()->second();
        q.erase(q.begin());
      }
    }
  }
  {
    // Random touches over a working set larger than the caches, and
    // fiber-stack-sized allocations touched at the top.
    static std::vector<std::uint64_t> big(2u << 20);  // 16 MiB
    for (int i = 0; i < 200000; ++i) big[next() % big.size()] += static_cast<std::uint64_t>(i);
    for (int i = 0; i < 400; ++i) {
      std::unique_ptr<char[]> stack(new char[128 * 1024]);
      std::memset(stack.get() + 120 * 1024, i, 8 * 1024);
      sink += static_cast<std::uint64_t>(stack[127 * 1024]);
    }
  }
  getcontext(&g_peer_ctx);
  g_peer_ctx.uc_stack.ss_sp = peer_stack.data();
  g_peer_ctx.uc_stack.ss_size = peer_stack.size();
  g_peer_ctx.uc_link = nullptr;
  makecontext(&g_peer_ctx, calib_peer, 0);
  for (int i = 0; i < 4000; ++i) swapcontext(&g_main_ctx, &g_peer_ctx);
  g_calib_sink = g_calib_sink + sink;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void wrap_crash_handler(os::OsInstance& inst, Ledger& ledger, Rep& rep,
                        std::function<void(const kernel::CrashContext&)> hook) {
  recovery::Engine* engine = &inst.engine();
  inst.kern().set_crash_handler(
      [engine, &ledger, &rep, hook = std::move(hook)](const kernel::CrashContext& ctx) {
        const std::uint64_t t0 = now_ns();
        ledger.begin(Layer::kCrash);
        const kernel::CrashDecision d = engine->on_crash(ctx);
        ledger.end();
        rep.recovery_ns.emplace_back(ctx.crashed.value, now_ns() - t0);
        if (hook) hook(ctx);
        return d;
      });
}

}  // namespace perfbench
