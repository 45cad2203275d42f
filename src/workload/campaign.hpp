// Large-scale fault-injection campaigns (Tables II and III).
//
// Methodology mirrors the paper's (SVI-B):
//   1. a profiling run of the prototype test suite determines which fault
//      candidates (fi:: sites) are actually triggered after boot;
//   2. an injection plan is drawn once — fail-stop-only for Table II, the
//      full EDFI software-fault mix for Table III — and the *same* plan is
//      applied to every recovery policy for comparability;
//   3. each injection runs in a fresh OS instance; the run is classified as
//      pass / fail / shutdown / crash from the suite result and the
//      machine's fate.
//
// Campaigns are embarrassingly parallel: every injection already boots an
// isolated simulator, and the probe runtime (fi::Registry) is thread-scoped,
// so a sharded worker pool replays disjoint slices of the plan concurrently.
// Results are stored by plan index and merged in plan order after the join,
// which makes every table byte-identical to a --jobs=1 run.
#pragma once

#include <string>
#include <vector>

#include "fi/fault.hpp"
#include "fi/registry.hpp"
#include "os/isys.hpp"
#include "seep/policy.hpp"
#include "support/clock.hpp"

namespace osiris::workload {

enum class RunClass : std::uint8_t { kPass, kFail, kShutdown, kCrash };

[[nodiscard]] constexpr const char* run_class_name(RunClass c) {
  switch (c) {
    case RunClass::kPass: return "pass";
    case RunClass::kFail: return "fail";
    case RunClass::kShutdown: return "shutdown";
    case RunClass::kCrash: return "crash";
  }
  return "?";
}

struct Injection {
  const fi::Site* site = nullptr;
  fi::FaultType type = fi::FaultType::kNone;
  std::uint64_t trigger_hit = 1;
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

struct CampaignTotals {
  int pass = 0;
  int fail = 0;
  int shutdown = 0;
  int crash = 0;

  [[nodiscard]] int total() const { return pass + fail + shutdown + crash; }
  [[nodiscard]] double frac(int n) const {
    return total() == 0 ? 0.0 : static_cast<double>(n) / total();
  }

  friend bool operator==(const CampaignTotals& a, const CampaignTotals& b) {
    return a.pass == b.pass && a.fail == b.fail && a.shutdown == b.shutdown &&
           a.crash == b.crash;
  }
};

struct CampaignOptions {
  /// Worker threads; 1 = serial reference run, 0 = hardware_concurrency.
  unsigned jobs = 1;
  /// When non-null, every injection runs with event tracing enabled and its
  /// merged text trace lands here, indexed by plan position. Workers write
  /// disjoint slots, so — like the classifications — the captured traces are
  /// byte-identical across jobs settings. Requires an OSIRIS_TRACE=ON build;
  /// otherwise the strings come back empty.
  std::vector<std::string>* traces = nullptr;
};

/// Run one injection under a policy; returns its classification. Touches
/// only thread-scoped simulator state, so calls may run concurrently on
/// distinct threads. When `trace_out` is non-null (and the build has
/// OSIRIS_TRACE=ON), the run executes with event tracing enabled and the
/// merged, sequence-ordered text trace is stored there.
RunClass run_one_injection(seep::Policy policy, const Injection& inj,
                           std::string* trace_out = nullptr);

/// Number of workers a campaign uses for `requested` jobs (0 resolves to
/// hardware_concurrency) — exposed for benches that print it.
unsigned campaign_jobs(unsigned requested);

/// Apply a whole plan under one policy and classify every injection.
/// The returned vector is indexed by plan position regardless of jobs.
std::vector<RunClass> run_plan(seep::Policy policy, const std::vector<Injection>& plan,
                               const CampaignOptions& opts = {});

/// run_plan + order-independent merge into per-class totals.
CampaignTotals run_campaign(seep::Policy policy, const std::vector<Injection>& plan,
                            const CampaignOptions& opts = {});

// --- recurring-fault campaigns (escalation ladder / quarantine) -----------
//
// Persistent injections model deterministic bugs: the fault re-fires after
// every recovery, so the interesting outcome is not pass/fail but whether
// the machine outlives the crash loop, and at what cost. Buckets:
//   recovered — suite finished clean and nothing was quarantined;
//   degraded  — the system survived to the end of the suite, but only by
//               quarantining a component (or with residual suite failures);
//   shutdown  — the policy shut the machine down consistently;
//   wedged    — the run crashed or hung: the worst bucket, the one the
//               ladder exists to empty.
enum class RecurringClass : std::uint8_t { kRecovered, kDegraded, kShutdown, kWedged };

struct RecurringTotals {
  int recovered = 0;
  int degraded = 0;
  int shutdown = 0;
  int wedged = 0;

  [[nodiscard]] int total() const { return recovered + degraded + shutdown + wedged; }
  [[nodiscard]] double frac(int n) const {
    return total() == 0 ? 0.0 : static_cast<double>(n) / total();
  }

  friend bool operator==(const RecurringTotals& a, const RecurringTotals& b) {
    return a.recovered == b.recovered && a.degraded == b.degraded &&
           a.shutdown == b.shutdown && a.wedged == b.wedged;
  }
};

/// Draw the persistent-fault plan: one mid-execution null-deref per
/// triggered site, armed in persistent mode (re-fires after each recovery).
std::vector<Injection> plan_recurring();

/// Apply a recurring plan; the returned vector is indexed by plan position
/// regardless of jobs (same determinism contract as run_plan).
std::vector<RecurringClass> run_recurring_plan(seep::Policy policy,
                                               const std::vector<Injection>& plan,
                                               const CampaignOptions& opts = {});

/// run_recurring_plan + order-independent merge into survivability totals.
RecurringTotals run_recurring_campaign(seep::Policy policy,
                                       const std::vector<Injection>& plan,
                                       const CampaignOptions& opts = {});

// --- storm campaigns (liveness faults, DESIGN.md §15) ---------------------
//
// Storm faults (kHandlerSpin, kChannelFlood) neither crash nor hang their
// host: the component stays live and keeps answering heartbeats while it
// burns dispatches or floods a peer. Crash/hang detection is structurally
// blind to them, so a storm run is bucketed by whether the *physiological
// health monitor* — part of every machine with recovery — caught it:
//   detected       — the ladder's storm rung engaged (throttle, possibly
//                    followed by quarantine + fault disarm);
//   starved        — the storm fired but the monitor never reacted: the
//                    workload ran starved, the worst bucket;
//   false-positive — the monitor fevered in a run where no storm ever
//                    fired (control runs are planted to measure this; the
//                    acceptance bar is zero);
//   clean          — a control run that stayed quiet, as it should.
enum class StormClass : std::uint8_t { kDetected, kStarved, kFalsePositive, kClean };

/// One storm injection: a persistent storm fault at `site`, plus the storm
/// shape (flood victim endpoint and burst size). `site == nullptr` is a
/// control run — the same machine with nothing armed — whose only
/// legitimate outcome is kClean.
struct StormInjection {
  const fi::Site* site = nullptr;
  fi::FaultType type = fi::FaultType::kNone;
  std::uint64_t trigger_hit = 1;
  std::int32_t victim = -1;   // kChannelFlood target endpoint (unused for spin)
  std::uint32_t burst = 4;    // spin seed notes / flood notes per pump period
};

/// Per-run storm verdict (index-comparable for the jobs-determinism test).
struct StormResult {
  StormClass cls = StormClass::kClean;
  Tick detection_latency = 0;  // storm onset -> throttle; valid iff kDetected
  bool quarantined = false;    // fever persisted under throttle -> rung 2
  bool disarmed = false;       // quarantine disarmed the storm fault
  bool suite_clean = false;    // suite completed with zero failures
  std::uint64_t fever_onsets = 0;
  std::uint64_t throttled_drops = 0;

  friend bool operator==(const StormResult& a, const StormResult& b) {
    return a.cls == b.cls && a.detection_latency == b.detection_latency &&
           a.quarantined == b.quarantined && a.disarmed == b.disarmed &&
           a.suite_clean == b.suite_clean && a.fever_onsets == b.fever_onsets &&
           a.throttled_drops == b.throttled_drops;
  }
};

/// Draw the storm plan: per subsystem tag, one spin and one flood injection
/// planted on the tag's hottest profiled site (the storm should ride the
/// component's busiest path so it engages mid-suite), plus control runs.
std::vector<StormInjection> plan_storm();

/// Apply a storm plan and bucket each run's fate; indexed by plan position
/// regardless of jobs (same determinism contract as run_plan).
std::vector<StormResult> run_storm_plan(seep::Policy policy,
                                        const std::vector<StormInjection>& plan,
                                        const CampaignOptions& opts = {});

}  // namespace osiris::workload
