// Golden-trace tests: one per recovery path and ladder rung, plus trace
// determinism.
//
// Each test drives a fault scenario through the full OS stack with tracing
// enabled, filters the merged timeline down to the recovery landmarks
// (window / fault / crash / ladder events), and then asserts twice:
//   1. subsequence patterns — the semantic contract, robust to added
//      instrumentation elsewhere;
//   2. a byte-exact golden file under tests/golden/ — the regression tripwire
//      that catches any reordering or silent loss of recovery steps.
// After an *intentional* change to instrumentation or recovery sequencing,
// regenerate with: OSIRIS_REGOLDEN=1 ./osiris_trace_tests && git diff
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "trace_matcher.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;
using trace::EventKind;
using trace_test::expect_absent;
using trace_test::expect_subsequence;
using trace_test::Pat;

namespace {

const std::int32_t kPm = kernel::kPmEp.value;
const std::int32_t kDs = kernel::kDsEp.value;

struct FiGuard {
  FiGuard() {
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
  }
  ~FiGuard() { fi::Registry::instance().disarm(); }
};

fi::Site* busiest_site(const char* tag, const ISys::ProcBody& body) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  inst.run(body);
  fi::Site* best = nullptr;
  for (fi::Site* s : fi::Registry::instance().sites()) {
    if (std::strcmp(s->tag, tag) == 0 && (best == nullptr || s->hits() > best->hits())) best = s;
  }
  return best;
}

struct TraceRun {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::vector<trace::Event> events;    // full merged timeline
  std::vector<trace::Event> landmarks; // recovery landmarks only
  std::string landmarks_text;          // unsequenced text of the landmarks
  std::string full_text;               // sequenced text of everything
  std::string ipc_text;                // unsequenced text of the IPC events
  std::uint64_t health_charges = 0;    // deliveries the health monitor charged
};

/// Boot a traced instance (after `tweak`), arm via `arm`, run `body`.
TraceRun run_traced(const std::function<void(os::OsConfig&)>& tweak,
                    const std::function<void(fi::Registry&)>& arm, ISys::ProcBody body) {
  fi::Registry::instance().reset_counts();
  os::OsConfig cfg;
  cfg.trace_enabled = true;
  // Golden comparisons need full retention: no landmark may fall out of a
  // wrapped ring, so these runs use far more than the cache-sized default.
  cfg.trace_ring_capacity = 1u << 16;
  if (tweak) tweak(cfg);
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  if (arm) arm(fi::Registry::instance());

  TraceRun r;
  r.outcome = inst.run(std::move(body));
  fi::Registry::instance().disarm();

  const trace::Tracer& tracer = *inst.tracer();
  r.events = tracer.merged();
  r.landmarks = trace_test::recovery_landmarks(r.events);
  r.landmarks_text = trace::format_text_unsequenced(r.landmarks, tracer);
  r.full_text = trace::format_text(r.events, tracer);
  const auto ipc = trace_test::filter_events(
      r.events, {EventKind::kIpcSend, EventKind::kIpcNotify, EventKind::kIpcCall,
                 EventKind::kIpcDeliver});
  r.ipc_text = trace::format_text_unsequenced(ipc, tracer);
  r.health_charges = inst.kern().stats().health_charges;
  return r;
}

}  // namespace

// --- Rung 0a: transient crash under the stateless policy -> plain microreboot
TEST(TraceGolden, TransientStatelessRestart) {
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
  };
  fi::Site* site = busiest_site("ds", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      [](os::OsConfig& cfg) { cfg.policy = seep::Policy::kStateless; },
      [&](fi::Registry& reg) { reg.arm(site, fi::FaultType::kNullDeref, 2); },
      [](ISys& sys) {
        for (int i = 0; i < 20; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
      });

  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs},
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
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = busiest_site("pm", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      nullptr, [&](fi::Registry& reg) { reg.arm(site, fi::FaultType::kNullDeref, 15); },
      [](ISys& sys) {
        for (int i = 0; i < 30; ++i) sys.setuid(0);
      });

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kWindowOpen, kPm},
                  Pat{EventKind::kFaultFire, kPm},
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
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
  };
  fi::Site* site = busiest_site("ds", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      [](os::OsConfig& cfg) {
        cfg.quarantine_cooldown_ticks = 400;  // short: readmission is observable
      },
      [&](fi::Registry& reg) { reg.arm_persistent(site, fi::FaultType::kNullDeref, 2); },
      [](ISys& sys) {
        for (int i = 0; i < 200; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
      });

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
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
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
  };
  fi::Site* site = busiest_site("ds", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      [](os::OsConfig& cfg) {
        cfg.max_recoveries = 1;  // one free recovery, then the budget is gone
        cfg.quarantine_cooldown_ticks = 100000;  // parked to the end
      },
      [&](fi::Registry& reg) { reg.arm_persistent(site, fi::FaultType::kNullDeref, 2); },
      [](ISys& sys) {
        for (int i = 0; i < 60; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
      });

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kCrash, kDs},
                  Pat{EventKind::kRecoveryQuarantine, kDs}.with_a1(1),  // budget exhaustion
              }));
  // Over budget, the ladder quarantines at the second crash, before any
  // streak of crashes could.
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryQuarantine, kDs}.with_a1(0)));
  EXPECT_TRUE(expect_absent(r.landmarks, Pat{EventKind::kRecoveryReadmit, kDs}));
  EXPECT_TRUE(trace_test::check_golden("ladder_budget_quarantine.trace", r.landmarks_text));
}

// --- Storm rung: fever onset -> throttle -> escalation -> quarantine --------
// The liveness counterpart of the crash rungs: a handler-spin storm never
// crashes or hangs, so the only landmarks are the physiological ones — the
// kernel's FeverOnset, the ladder's RecoveryThrottle (carrying the detection
// latency), and the escalation to quarantine that disarms the storm fault.
TEST(TraceGolden, StormDetectionFeverThrottleQuarantine) {
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
  };
  fi::Site* site = busiest_site("ds", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      nullptr,
      [&](fi::Registry& reg) {
        reg.set_storm_plan(/*victim=*/-1, /*burst=*/4);
        reg.arm_persistent(site, fi::FaultType::kHandlerSpin, 10);
      },
      [](ISys& sys) {
        for (int i = 0; i < 200; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
      });

  EXPECT_TRUE(expect_subsequence(r.landmarks, {
                  Pat{EventKind::kFaultFire, kDs},
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
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("g.key", 1);
  };
  fi::Site* site = busiest_site("ds", profile);
  ASSERT_NE(site, nullptr);

  const TraceRun r = run_traced(
      [](os::OsConfig& cfg) { cfg.quarantine_cooldown_ticks = 400; },
      [&](fi::Registry& reg) { reg.arm_persistent(site, fi::FaultType::kNullDeref, 2); },
      [](ISys& sys) {
        for (int i = 0; i < 200; ++i) sys.ds_publish("g.key", static_cast<std::uint64_t>(i));
      });

  EXPECT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GT(r.health_charges, 0u) << "the monitor never sampled";
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
  FiGuard guard;
  const TraceRun r = run_traced(nullptr, nullptr, [](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/gold", servers::O_CREAT | servers::O_RDWR);
    sys.write_str(fd, "x");
    sys.close(fd);
    (void)sys.getpid();
    sys.ds_publish("g.key", 7);
  });
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
  FiGuard guard;
  const auto profile = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = busiest_site("pm", profile);
  ASSERT_NE(site, nullptr);

  const auto scenario = [&] {
    return run_traced(
        nullptr, [&](fi::Registry& reg) { reg.arm(site, fi::FaultType::kNullDeref, 15); },
        [](ISys& sys) {
          for (int i = 0; i < 30; ++i) sys.setuid(0);
        });
  };
  const TraceRun a = scenario();
  const TraceRun b = scenario();
  ASSERT_FALSE(a.full_text.empty());
  EXPECT_EQ(a.full_text, b.full_text);
}
