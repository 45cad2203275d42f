// Golden-trace tests: one per recovery path and ladder rung, plus trace
// determinism.
//
// Each test runs one row of the traced scenario table (tools/trace/
// scenarios.hpp, the rows osiris-trace exports) through the full OS stack,
// filters the merged timeline down to the recovery landmarks (window /
// fault / crash / ladder events), and then asserts twice:
//   1. subsequence patterns — the semantic contract, robust to added
//      instrumentation elsewhere;
//   2. a byte-exact golden file under tests/golden/ — the regression tripwire
//      that catches any reordering or silent loss of recovery steps.
// After an *intentional* change to instrumentation or recovery sequencing,
// regenerate with: OSIRIS_REGOLDEN=1 ./osiris_trace_tests && git diff
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenarios.hpp"
#include "trace_matcher.hpp"

using namespace osiris;
using os::OsInstance;
using trace::EventKind;
using trace_test::expect_absent;
using trace_test::expect_subsequence;
using trace_test::Pat;

namespace {

const std::int32_t kPm = kernel::kPmEp.value;
const std::int32_t kDs = kernel::kDsEp.value;

struct TraceRun {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::uint64_t site = 0;              // the armed probe's id
  std::vector<trace::Event> events;    // full merged timeline
  std::vector<trace::Event> landmarks; // recovery landmarks only
  std::string landmarks_text;          // unsequenced text of the landmarks
  std::string full_text;               // sequenced text of everything
  std::string ipc_text;                // unsequenced text of the IPC events
  std::uint64_t health_charges = 0;    // deliveries the health monitor charged
};

/// Run one row of the scenario table with full retention: no landmark may
/// fall out of a wrapped ring.
TraceRun run_traced(std::string_view name) {
  const scenarios::Scenario* row = scenarios::find(name);
  if (row == nullptr) throw std::runtime_error("no scenario " + std::string(name));
  const scenarios::Run run = scenarios::run(*row);

  TraceRun r;
  r.outcome = run.outcome;
  r.site = run.site != nullptr ? run.site->id : 0;
  const trace::Tracer& tracer = *run.inst->tracer();
  r.events = tracer.merged();
  r.landmarks = trace_test::recovery_landmarks(r.events);
  // A site id is the order in which the process first ran each probe, so it
  // depends on what ran before this test: every fire must name the armed
  // probe, and the golden text prints the column as 0.
  std::vector<trace::Event> golden = r.landmarks;
  for (trace::Event& e : golden) {
    if (e.kind != EventKind::kFaultFire) continue;
    EXPECT_TRUE(run.site != nullptr && e.a0 == run.site->id)
        << "scenario " << name << ": a fault fired at site " << e.a0
        << ", not at the armed probe";
    e.a0 = 0;
  }
  r.landmarks_text = trace::format_text_unsequenced(golden, tracer);
  r.full_text = trace::format_text(r.events, tracer);
  const auto ipc = trace_test::filter_events(
      r.events, {EventKind::kIpcSend, EventKind::kIpcNotify, EventKind::kIpcCall,
                 EventKind::kIpcDeliver});
  r.ipc_text = trace::format_text_unsequenced(ipc, tracer);
  r.health_charges = run.inst->kern().stats().health_charges;
  return r;
}

}  // namespace

// --- Rung 0a: transient crash under the stateless policy -> plain microreboot
TEST(TraceGolden, TransientStatelessRestart) {
  const TraceRun r = run_traced("stateless");

  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs}.with_a0(r.site),
                  Pat{EventKind::kCrash, kDs, 0, 0},  // not a hang, not recurring
                  Pat{EventKind::kRecoveryStateless, kDs},  // the policy's microreboot
                  Pat{EventKind::kRecoveryRestart, kDs},
              }));
  // The stateless policy never uses windows, and rung 0 never quarantines.
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kWindowOpen}));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryQuarantine}));
  EXPECT_TRUE(trace_test::check_golden("transient_stateless.trace", r.landmarks_text));
}

// --- Rung 0b: transient in-window crash under enhanced -> restart + rollback
TEST(TraceGolden, TransientRollbackAndErrorVirtualization) {
  const TraceRun r = run_traced("transient");

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kWindowOpen, kPm},
                  Pat{EventKind::kFaultFire, kPm}.with_a0(r.site),
                  Pat{EventKind::kCrash, kPm, 0, 0},
                  Pat{EventKind::kRecoveryRestart, kPm},   // phase 1: clone transfer
                  Pat{EventKind::kRecoveryRollback, kPm},  // phase 2: undo-log replay
              }));
  // The window was still open at the crash (that is what made the rollback
  // consistent); recovery closes it via the end-of-request path.
  EXPECT_TRUE(trace_test::expect_window_closed_by(r.events, kPm,
                                                  trace::CloseCause::kEndOfRequest));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryQuarantine}));
  EXPECT_TRUE(trace_test::check_golden("transient_rollback.trace", r.landmarks_text));
}

// --- Rung 2: crashes with no progress between them -> quarantine, then
// readmission after the cooldown
TEST(TraceGolden, LadderQuarantineParkAndReadmit) {
  const TraceRun r = run_traced("ladder");

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs}.with_a0(r.site),
                  Pat{EventKind::kCrash, kDs}.with_a1(0),                  // transient
                  Pat{EventKind::kRecoveryRollback, kDs},                  // policy recovery
                  Pat{EventKind::kCrash, kDs}.with_a1(1),                  // third in a row
                  Pat{EventKind::kRecoveryQuarantine, kDs}.with_a0(400).with_a1(0),  // rung 2
                  Pat{EventKind::kRecoveryReadmit, kDs}.with_a0(2),        // park ended
              }));
  // There is no rung between the policy and quarantine.
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryStateless}));
  EXPECT_TRUE(trace_test::check_golden("ladder_quarantine_readmit.trace", r.landmarks_text));
}

// --- Budget exhaustion: recovery budget drained -> straight to quarantine
TEST(TraceGolden, BudgetExhaustionSkipsStraightToQuarantine) {
  const TraceRun r = run_traced("budget");

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs}.with_a0(r.site),
                  Pat{EventKind::kCrash, kDs},
                  Pat{EventKind::kRecoveryQuarantine, kDs}.with_a1(1),  // budget exhaustion
              }));
  // Over budget, the ladder quarantines at the second crash, before any
  // streak of crashes could.
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryQuarantine, kDs}.with_a1(0)));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryReadmit, kDs}));
  EXPECT_TRUE(trace_test::check_golden("ladder_budget_quarantine.trace", r.landmarks_text));
}

// --- Hang: RS's heartbeat sweep catches a hung DS, which is restarted
TEST(TraceGolden, HangDetectedByHeartbeatAndRecovered) {
  const TraceRun r = run_traced("hang");

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs}.with_a0(r.site).with_a1(
                      static_cast<std::uint64_t>(fi::FaultType::kHang)),
                  Pat{EventKind::kCrash, kDs}.with_a0(1),  // hang-detected
                  Pat{EventKind::kRecoveryRestart, kDs},
              }));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryQuarantine}));
  EXPECT_TRUE(trace_test::check_golden("hang_detect.trace", r.landmarks_text));
}

// --- Storm rung: fever onset -> throttle -> escalation -> quarantine --------
// The liveness counterpart of the crash rungs: a handler-spin storm never
// crashes or hangs, so the only landmarks are the physiological ones — the
// kernel's FeverOnset, the ladder's RecoveryThrottle (carrying the detection
// latency), and the escalation to quarantine that disarms the storm fault.
TEST(TraceGolden, StormDetectionFeverThrottleQuarantine) {
  const TraceRun r = run_traced("storm");

  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs}.with_a0(r.site),
                  Pat{EventKind::kFeverOnset}.with_a0(static_cast<std::uint64_t>(kDs))
                      .with_a2(0),                          // onset, not escalation
                  Pat{EventKind::kRecoveryThrottle, kDs},   // storm rung: throttle
                  Pat{EventKind::kFeverOnset}.with_a0(static_cast<std::uint64_t>(kDs))
                      .with_a2(1),                          // still hot under throttle
                  Pat{EventKind::kRecoveryQuarantine, kDs}, // rung 2 + fault disarm
                  Pat{EventKind::kRecoveryRestart, kDs},    // reset to boot image
              }));
  // The storm is invisible to the crash/hang rungs: no crash landmark and no
  // stateless restart anywhere in the run.
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kCrash}));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryStateless}));
  EXPECT_TRUE(trace_test::check_golden("storm_detect.trace", r.landmarks_text));
}

// --- Zero false positives: the monitor must not perturb the crash goldens ---
// The rung-2 ladder scenario runs under the health monitor, as every machine
// with recovery does. The monitor must be live (it charged deliveries) and
// the landmark stream must match the same golden byte-for-byte (no
// FeverOnset, no Throttle), proving legitimate crash-recovery churn never
// reads as a storm.
TEST(TraceGolden, HealthMonitorIsSilentThroughLadderScenario) {
  const TraceRun r = run_traced("ladder");

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GT(r.health_charges, 0u) << "the monitor never sampled";
  EXPECT_TRUE(expect_subsequence(r.landmarks, {Pat{EventKind::kFaultFire, kDs}.with_a0(r.site)}));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kFeverOnset}));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryThrottle}));
  EXPECT_TRUE(trace_test::check_golden("ladder_quarantine_readmit.trace", r.landmarks_text));
}

// --- Symbolic IPC golden: the spec-driven trace naming layer ----------------
// A fault-free run, filtered to the IPC events, pins the protocol by *name*
// (PM_FORK, VFS_OPEN, RS_PING+notify, ...) end to end: a renamed, renumbered
// or misrouted spec row surfaces as a golden diff here, and an unregistered
// type would render as bare hex.
TEST(TraceGolden, SymbolicIpcNamesInFaultFreeRun) {
  const TraceRun r = run_traced("ipc");
  ASSERT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_FALSE(r.ipc_text.empty());

  // Every IPC event resolved through the spec registry: the trace text names
  // the messages symbolically and never falls back to a hex literal.
  EXPECT_NE(r.ipc_text.find("VFS_OPEN"), std::string::npos);
  EXPECT_NE(r.ipc_text.find("PM_GETPID"), std::string::npos);
  EXPECT_NE(r.ipc_text.find("DS_PUBLISH"), std::string::npos);
  EXPECT_EQ(r.ipc_text.find(" 0x"), std::string::npos);
  EXPECT_TRUE(trace_test::check_golden("ipc_symbolic.trace", r.ipc_text));
}

// --- Determinism: the full (sequenced) trace is byte-identical across runs
TEST(TraceGolden, IdenticalScenarioProducesByteIdenticalFullTrace) {
  const TraceRun a = run_traced("transient");
  const TraceRun b = run_traced("transient");
  ASSERT_FALSE(a.full_text.empty());
  EXPECT_EQ(a.full_text, b.full_text);
}
