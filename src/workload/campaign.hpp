// Large-scale fault-injection campaigns (Tables II and III, the recurring
// and storm tables).
//
// Methodology mirrors the paper's (SVI-B):
//   1. a profiling run of the prototype test suite determines which fault
//      candidates (fi:: sites) are actually triggered after boot;
//   2. an injection plan is drawn once — fail-stop-only for Table II, the
//      full EDFI software-fault mix for Table III, persistent faults for the
//      recurring and storm tables — and the *same* plan is applied to every
//      recovery policy for comparability;
//   3. each injection runs in a fresh OS instance and leaves one RunRecord;
//      each table classifies the records with its own classifier below.
//
// Campaigns are embarrassingly parallel: every injection already boots an
// isolated simulator, and the probe runtime (fi::Registry) is thread-scoped,
// so a sharded worker pool replays disjoint slices of the plan concurrently.
// Records are stored by plan index, which makes every table byte-identical
// to a --jobs=1 run.
#pragma once

#include <string>
#include <vector>

#include "fi/fault.hpp"
#include "fi/registry.hpp"
#include "kernel/kernel.hpp"
#include "os/isys.hpp"
#include "recovery/engine.hpp"
#include "seep/policy.hpp"
#include "workload/suite.hpp"

namespace osiris::workload {

/// One campaign run's fault. `site == nullptr` is a control run: the same
/// machine with nothing armed.
struct Injection {
  const fi::Site* site = nullptr;
  fi::FaultType type = fi::FaultType::kNone;
  std::uint64_t trigger_hit = 1;
  /// Persistent faults model deterministic bugs: the fault re-fires on every
  /// hit from `trigger_hit` on, so it outlives each recovery.
  bool persistent = false;
  std::int32_t victim = -1;  // kChannelFlood target endpoint (unused otherwise)
  std::uint32_t burst = 4;   // storm notes per spin fire / flood pump period
};

/// What one campaign run leaves behind: the suite's result and the
/// machine's kernel and engine counters, copied whole after the suite.
struct RunRecord {
  SuiteResult suite;
  kernel::KernelStats kernel;
  recovery::EngineStats engine;
  bool storm_fired = false;  // a storm fault (spin or flood) fired

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// Profiling run: returns the triggered, non-boot-time sites with their
/// per-run hit counts (the fault-candidate pool).
std::vector<std::pair<fi::Site*, std::uint64_t>> profile_sites();

/// Profiling run of `body` on a default machine with the suite programs:
/// the probe of `tag` with the most post-boot hits (the first registered
/// among equals), or nullptr when no probe of `tag` ran.
fi::Site* busiest_site(const char* tag, const os::ISys::ProcBody& body);

/// Draw the fail-stop plan: `points_per_site` null-deref injections per
/// triggered site, spread across its execution count.
std::vector<Injection> plan_failstop(int points_per_site = 3);

/// Draw the full-EDFI plan: a seeded mix of applicable fault types.
std::vector<Injection> plan_edfi(std::uint64_t seed = 316, int injections_per_site = 2);

/// Draw the persistent-fault plan: one mid-execution null-deref per
/// triggered site, re-firing after each recovery.
std::vector<Injection> plan_recurring();

/// Draw the storm plan: per subsystem tag, one persistent spin and one
/// persistent flood injection planted on the tag's hottest profiled site
/// (the storm should ride the component's busiest path so it engages
/// mid-suite), plus two control runs.
std::vector<Injection> plan_storm();

/// Every `every`-th injection of `plan`, plus every control run (so a
/// false-positive count is never vacuously zero); `every <= 1` keeps all.
std::vector<Injection> thin(const std::vector<Injection>& plan, int every);

/// One campaign run: a fresh default machine under `policy` boots, `inj` is
/// armed (boot-time executions cannot trigger it; plans are drawn from
/// post-boot profiles anyway), and the suite runs. Touches only
/// thread-scoped simulator state, so calls may run concurrently on distinct
/// threads. When `trace_out` is non-null (and the build has
/// OSIRIS_TRACE=ON), the run executes with event tracing enabled and the
/// merged, sequence-ordered text trace is stored there.
RunRecord run_one(seep::Policy policy, const Injection& inj, std::string* trace_out = nullptr);

struct CampaignOptions {
  /// Worker threads; 1 = serial reference run, 0 = hardware_concurrency.
  unsigned jobs = 1;
  /// When non-null, every injection runs with event tracing enabled and its
  /// merged text trace lands here, indexed by plan position. Workers write
  /// disjoint slots, so — like the records — the captured traces are
  /// byte-identical across jobs settings. Requires an OSIRIS_TRACE=ON build;
  /// otherwise the strings come back empty.
  std::vector<std::string>* traces = nullptr;
};

/// Number of workers a campaign uses for `requested` jobs (0 resolves to
/// hardware_concurrency) — exposed for benches that print it.
unsigned campaign_jobs(unsigned requested);

/// run_one for every injection of `plan`, sharded over opts.jobs workers.
/// The returned vector is indexed by plan position regardless of jobs.
std::vector<RunRecord> run_plan(seep::Policy policy, const std::vector<Injection>& plan,
                                const CampaignOptions& opts = {});

// --- per-table classifiers ---------------------------------------------------

/// Tables II and III: pass / fail / shutdown / crash, from the suite result
/// and the machine's fate.
enum class RunClass : std::uint8_t { kPass, kFail, kShutdown, kCrash };
RunClass survival_class(const RunRecord& r);

[[nodiscard]] constexpr const char* run_class_name(RunClass c) {
  switch (c) {
    case RunClass::kPass: return "pass";
    case RunClass::kFail: return "fail";
    case RunClass::kShutdown: return "shutdown";
    case RunClass::kCrash: return "crash";
  }
  return "?";
}

/// The recurring table (escalation ladder / quarantine). A persistent fault
/// re-fires after every recovery, so the interesting outcome is not
/// pass/fail but whether the machine outlives the crash loop:
///   recovered — suite finished clean and nothing was quarantined;
///   degraded  — the system survived to the end of the suite, but only by
///               quarantining a component (or with residual suite failures);
///   shutdown  — the policy shut the machine down consistently;
///   wedged    — the run crashed or hung: the worst bucket, the one the
///               ladder exists to empty.
enum class RecurringClass : std::uint8_t { kRecovered, kDegraded, kShutdown, kWedged };
RecurringClass recurring_class(const RunRecord& r);

/// The storm table (liveness faults, DESIGN.md §15). Storm faults
/// (kHandlerSpin, kChannelFlood) neither crash nor hang their host: the
/// component stays live and keeps answering heartbeats while it burns
/// dispatches or floods a peer. Crash/hang detection is structurally blind
/// to them, so a storm run is bucketed by whether the *physiological health
/// monitor* — part of every machine with recovery — caught it:
///   detected       — the ladder's storm rung engaged (throttle, possibly
///                    followed by quarantine + fault disarm);
///   starved        — the storm fired but the monitor never reacted: the
///                    workload ran starved, the worst bucket;
///   false-positive — the monitor fevered in a run where no storm ever
///                    fired (control runs are planted to measure this; the
///                    acceptance bar is zero);
///   clean          — a run where nothing stormed and the monitor stayed
///                    quiet, as it should.
enum class StormClass : std::uint8_t { kDetected, kStarved, kFalsePositive, kClean };
StormClass storm_class(const RunRecord& r);

}  // namespace osiris::workload
