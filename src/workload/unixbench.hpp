// Unixbench-equivalent workloads (paper SVI-C, Tables IV/V, Figure 3).
//
// Twelve workloads carrying the paper's names and exercising the same
// subsystems: pure computation (dhry2reg, whetstone-double), process
// creation (execl, spawn), filesystem throughput at three buffer sizes
// (fstime, fsbuffer, fsdisk), IPC (pipe, context1), raw syscall dispatch
// (syscall) and shell script execution at two concurrency levels (shell1,
// shell8). Every workload is written against ISys, so it runs identically
// on the OSIRIS multiserver system and on the monolithic baseline.
//
// Scores are iterations per wall-clock second (higher is better), the same
// shape as unixbench's index values.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fi/registry.hpp"
#include "os/config.hpp"
#include "os/instance.hpp"
#include "os/isys.hpp"
#include "os/programs.hpp"

namespace osiris::workload {

struct UbWorkload {
  std::string name;
  std::uint64_t default_iters;
  std::function<void(os::ISys&, std::uint64_t)> body;
};

const std::vector<UbWorkload>& ub_workloads();
const UbWorkload& ub_workload(std::string_view name);

/// Register the programs the shell workloads exec.
void register_ub_programs(os::ProgramRegistry& registry);

/// Run one workload on a fresh OSIRIS instance; returns the wall-clock
/// seconds spent inside the machine (boot excluded).
double run_ub_microkernel(const os::OsConfig& cfg, const UbWorkload& w, std::uint64_t iters);

/// Same workload on the monolithic baseline.
double run_ub_mono(const UbWorkload& w, std::uint64_t iters);

/// Figure 3's fault intervals, in PM requests per injected fault.
inline constexpr std::array<std::uint64_t, 7> kFig3Intervals = {10000, 1000, 100, 30, 10, 3, 1};

/// PM's busiest fault site (its request-loop entry probe), whose hit counter
/// advances once per PM message.
fi::Site* pm_entry_site();

struct Fig3Cell {
  os::OsInstance::Outcome outcome = os::OsInstance::Outcome::kCompleted;
  std::uint64_t completed = 0;  // work units; a unit that failed does not count
};

/// One Figure 3 cell: half of `w`'s default units, times `scale`, on a fresh
/// (enhanced-policy) machine that gets a fail-stop fault in PM's open
/// recovery window every `interval` hits of `site` (0 = no faults). It takes
/// no host time, so the cell is deterministic.
Fig3Cell run_fig3_cell(const UbWorkload& w, fi::Site* site, std::uint64_t interval,
                       double scale = 1.0);

/// iterations/second score.
inline double ub_score(std::uint64_t iters, double seconds) {
  return seconds > 0 ? static_cast<double>(iters) / seconds : 0.0;
}

}  // namespace osiris::workload
