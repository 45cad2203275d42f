// Integration tests: fault injection and recovery through the full OS stack
// (kernel + servers + engine + userland), including hang detection via the
// Recovery Server's heartbeats and the persistent-fault property of error
// virtualization.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace_matcher.hpp"
#endif

using namespace osiris;
using os::ISys;
using os::OsInstance;

namespace {

/// Park `ep` the way a storm that persists under its throttle does (two
/// fever decisions; the second resets it to its boot image), then run the
/// clock until the engine readmits it. False if either step failed.
bool park_and_readmit(OsInstance& inst, kernel::Endpoint ep) {
  inst.engine().on_storm(ep);
  inst.engine().on_storm(ep);
  if (!inst.engine().is_parked(ep)) return false;
  while (inst.engine().is_parked(ep) && inst.clock().advance_to_next()) {
    inst.kern().dispatch_pending();
  }
  return !inst.engine().is_parked(ep);
}

}  // namespace

TEST(RecoveryIntegration, InWindowPmCrashIsErrorVirtualized) {
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = workload::busiest_site("pm", workload);
  ASSERT_NE(site, nullptr);
  ASSERT_GT(site->hits(), 10u);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 15);
  int crash_errors = 0;
  const auto outcome = inst.run([&crash_errors](ISys& sys) {
    for (int i = 0; i < 30; ++i) {
      // getpid is read-only (NSM), so Sys::sendrec retries it; a
      // state-modifying call shows the raw E_CRASH.
      if (sys.setuid(0) == kernel::E_CRASH) ++crash_errors;
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(crash_errors, 1);  // exactly one request was error-virtualized
  EXPECT_EQ(inst.engine().recoveries_of(kernel::kPmEp), 1u);
  EXPECT_EQ(inst.engine().stats().rollbacks, 1u);
}

TEST(RecoveryIntegration, InWindowPmCrashIsRetriedForReadOnlyRequests) {
  // Sys::sendrec reissues a request answered E_CRASH once exactly when its
  // spec row is NSM: getpid never sees the error-virtualized reply that
  // setuid sees in InWindowPmCrashIsErrorVirtualized.
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = workload::busiest_site("pm", workload);
  ASSERT_NE(site, nullptr);
  ASSERT_GT(site->hits(), 10u);

  os::OsInstance inst{os::OsConfig{}};
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 15);
  std::vector<std::int64_t> pids;
  const auto outcome = inst.run([&pids](ISys& sys) {
    for (int i = 0; i < 30; ++i) pids.push_back(sys.getpid());
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(inst.kern().stats().crashes, 1u);
  ASSERT_EQ(pids.size(), 30u);
  EXPECT_GT(pids.front(), 0);
  for (const std::int64_t pid : pids) EXPECT_EQ(pid, pids.front());
  EXPECT_EQ(inst.engine().stats().rollbacks, 1u);
  EXPECT_EQ(inst.engine().stats().error_replies, 1u);  // answered E_CRASH, then retried
}

TEST(RecoveryIntegration, BootOpensTheFaultInjectionRun) {
  // A fault armed on one machine must not fire on the next one: boot()
  // disarms the thread's registry and zeroes its counters, so a machine
  // destroyed before it ran leaves nothing behind.
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = workload::busiest_site("pm", workload);
  ASSERT_NE(site, nullptr);
  const std::uint64_t profiled = site->hits();
  const std::uint64_t boot_hits = site->boot_hits();
  {
    os::OsInstance first{os::OsConfig{}};
    first.boot();
    fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 15);
  }
  const std::uint64_t fired = fi::Registry::instance().injections_fired();
  os::OsInstance second{os::OsConfig{}};
  second.boot();
  EXPECT_FALSE(fi::Registry::instance().armed());
  EXPECT_EQ(site->boot_hits(), boot_hits);
  EXPECT_EQ(second.run(workload), OsInstance::Outcome::kCompleted);
  EXPECT_EQ(fi::Registry::instance().injections_fired(), fired);
  EXPECT_EQ(second.kern().stats().crashes, 0u);
  EXPECT_EQ(site->hits(), profiled);
}

TEST(RecoveryIntegration, PersistentFaultIsNotReplayed) {
  // Error virtualization discards the crashing request instead of replaying
  // it, so a fault that would fire on every execution of the same request
  // takes the system down exactly zero more times (paper SIII-C).
  const auto workload = [](ISys& sys) { sys.ds_publish("persist.key", 1); };
  fi::Site* site = workload::busiest_site("ds", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 2);
  const auto outcome = inst.run([](ISys& sys) {
    // The same "buggy input" is submitted repeatedly; only the execution
    // that hit the trigger fails, and the system stays up throughout.
    int failures = 0;
    for (int i = 0; i < 10; ++i) {
      if (sys.ds_publish("persist.key", 7) != kernel::OK) ++failures;
    }
    if (failures > 2) sys.exit(1);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(RecoveryIntegration, OutOfWindowCrashShutsDownConsistently) {
  // A fork-heavy workload runs PM probes on both sides of its windows: the
  // PM coverage must be partial (some probes ran outside the window), which
  // is what makes out-of-window faults possible.
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 5; ++i) {
      const std::int64_t pid = sys.fork([](ISys& c) { c.exit(0); });
      std::int64_t s;
      if (pid > 0) sys.wait_pid(pid, &s);
    }
  };
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run(workload);
  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const auto& ws = inst.pm().window().stats();
  EXPECT_GT(ws.probe_hits_outside, 0u);
  EXPECT_GT(ws.probe_hits_inside, 0u);
}

TEST(RecoveryIntegration, HangIsDetectedByHeartbeatAndRecovered) {
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("hb.key", 1);
  };
  fi::Site* site = workload::busiest_site("ds", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  cfg.heartbeat_interval = 50;  // fast sweeps so the test stays quick
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kHang, 5);
  const auto outcome = inst.run([](ISys& sys) {
    int ok = 0;
    for (int i = 0; i < 30; ++i) {
      if (sys.ds_publish("hb.key", static_cast<std::uint64_t>(i)) == kernel::OK) ++ok;
    }
    if (ok < 25) sys.exit(1);  // one request may be lost to the hang
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GE(inst.rs().sweeps(), 1u);  // detection came from the sweep path
  EXPECT_GE(inst.kern().stats().hangs, 1u);
  EXPECT_GE(inst.engine().recoveries_of(kernel::kDsEp), 1u);
}

TEST(RecoveryIntegration, DisabledHeartbeatsLeaveNoSweepsOrOutstandingPings) {
  // heartbeat_interval = 0 must mean *no* heartbeat machinery at all: no
  // sweeps, no pings sent, and — crucially — no outstanding pings leaked
  // that a later sweep could misread as a hang.
  os::OsConfig cfg;
  cfg.heartbeat_interval = 0;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run([](ISys& sys) {
    for (int i = 0; i < 20; ++i) {
      sys.ds_publish("quiet.key", static_cast<std::uint64_t>(i));
      sys.getpid();
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(inst.rs().sweeps(), 0u);
  EXPECT_EQ(inst.rs().pings_sent(), 0u);
  EXPECT_EQ(inst.rs().outstanding_pings(), 0u);
  EXPECT_EQ(inst.kern().stats().hangs, 0u);
}

TEST(RecoveryIntegration, MonitorTableOverflowFailsLoudlyNotSilently) {
  // Boot monitors PM/VM/VFS/DS (4 of 8 slots); the next 4 registrations
  // succeed, the 9th must be *rejected* — a server silently dropped from
  // heartbeat coverage would hang undetectably.
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(inst.rs().monitor(kernel::Endpoint{40 + i})) << "slot " << i;
  }
  EXPECT_FALSE(inst.rs().monitor(kernel::Endpoint{50}));  // table is full
}

TEST(RecoveryIntegration, PersistentFaultClimbsLadderToQuarantineAndSystemSurvives) {
  // The tentpole end-to-end: a deterministic bug in DS re-fires after every
  // recovery. The flat policy would either crash-loop forever or wedge; the
  // ladder recovers the first crashes, sees DS complete no dispatch between
  // them, and quarantines it — while the workload (and unrelated VFS
  // service) runs to completion.
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("ladder.key", 1);
  };
  fi::Site* site = workload::busiest_site("ds", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  cfg.quarantine_cooldown_ticks = 100000;  // stays quarantined to the end
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm_persistent(site, fi::FaultType::kNullDeref, 2);
  int ds_failures = 0;
  int vfs_ok = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    for (int i = 0; i < 120; ++i) {
      if (sys.ds_publish("ladder.key", static_cast<std::uint64_t>(i)) != kernel::OK) {
        ++ds_failures;
      }
    }
    // Unrelated service must be untouched by DS's quarantine (degraded
    // mode, not shutdown): the shell-style VFS path still works.
    for (int i = 0; i < 10; ++i) {
      os::StatResult st{};
      if (sys.stat("/bin/true", &st) == kernel::OK) ++vfs_ok;
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const auto& stats = inst.engine().stats();
  EXPECT_GE(stats.transient_crashes, 1u);  // the policy recovered first...
  EXPECT_GE(stats.quarantines, 1u);        // ...then quarantine took over
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_TRUE(inst.engine().is_parked(kernel::kDsEp));
  EXPECT_TRUE(inst.kern().is_quarantined(kernel::kDsEp));
  EXPECT_GT(inst.kern().stats().quarantine_rejects, 0u);
  EXPECT_GT(ds_failures, 0);  // degraded: DS calls fail fast with E_CRASH
  EXPECT_EQ(vfs_ok, 10);      // alive: everything else is fully served
}

TEST(RecoveryIntegration, QuarantinedDsComesBackWithItsBootFacts) {
  // Quarantine resets DS to its boot image, which must hold what boot put
  // into DS, such as the sys.release fact.
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  ASSERT_TRUE(park_and_readmit(inst, kernel::kDsEp));
  std::int64_t rc = -1;
  std::uint64_t release = 0;
  const auto outcome =
      inst.run([&](ISys& sys) { rc = sys.ds_retrieve("sys.release", &release); });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(rc, kernel::OK);
  EXPECT_EQ(release, 316u);
}

TEST(RecoveryIntegration, QuarantinedRsComesBackSweeping) {
  // Quarantine resets RS to its boot image, which must hold its heartbeat
  // table; and while RS is parked the quarantine gate drops its sweep note,
  // so the sweep timer must outlive the park. After readmission RS pings
  // all four boot servers once per interval again.
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  inst.boot();
  ASSERT_TRUE(park_and_readmit(inst, kernel::kRsEp));
  const std::uint64_t sweeps = inst.rs().sweeps();
  const std::uint64_t pings = inst.rs().pings_sent();
  const Tick until = inst.clock().now() + 10 * cfg.heartbeat_interval;
  while (inst.clock().now() < until && inst.clock().advance_to_next()) {
    inst.kern().dispatch_pending();
  }
  EXPECT_GE(inst.rs().sweeps() - sweeps, 9u);
  EXPECT_GE(inst.rs().pings_sent() - pings, 4u * 9u);
  EXPECT_EQ(inst.kern().stats().hangs, 0u);
}

TEST(RecoveryIntegration, CrashInsideTheSweepDoesNotEndHeartbeats) {
  // Stateless and naive restart a crashed RS without answering anyone (a
  // sweep note cannot be error-replied), so the sweep timer must already be
  // armed when the sweep runs: a fail-stop fault at the sweep's first probe
  // after three sweeps on an idle machine must leave RS sweeping.
  for (const seep::Policy policy : {seep::Policy::kStateless, seep::Policy::kNaive}) {
    SCOPED_TRACE(seep::policy_name(policy));
    os::OsConfig cfg;
    cfg.policy = policy;
    os::OsInstance inst(cfg);
    inst.boot();
    while (inst.rs().sweeps() < 3 && inst.clock().advance_to_next()) {
      inst.kern().dispatch_pending();
    }
    ASSERT_EQ(inst.rs().sweeps(), 3u);
    // The sweep's first probe: the earliest block probe in rs.cpp that ran
    // once per sweep.
    fi::Site* first = nullptr;
    for (fi::Site* s : fi::Registry::instance().sites()) {
      if (std::string_view(s->file).ends_with("servers/rs.cpp") &&
          s->kind == fi::SiteKind::kBlock && s->hits() == 3 &&
          (first == nullptr || s->line < first->line)) {
        first = s;
      }
    }
    ASSERT_NE(first, nullptr);
    const std::uint64_t fired = fi::Registry::instance().injections_fired();
    fi::Registry::instance().arm(first, fi::FaultType::kNullDeref, 4);
    const Tick until = inst.clock().now() + 10 * cfg.heartbeat_interval;
    while (inst.clock().now() < until && inst.clock().advance_to_next()) {
      inst.kern().dispatch_pending();
    }
    EXPECT_EQ(fi::Registry::instance().injections_fired() - fired, 1u);
    EXPECT_GE(inst.engine().recoveries_of(kernel::kRsEp), 1u);
    EXPECT_EQ(inst.kern().state(), kernel::SystemState::kRunning);
    EXPECT_GE(inst.clock().now(), until) << "the clock ran out of events";
    EXPECT_GE(first->hits(), 4u + 9u) << "no sweeps after the crash";
  }
}

TEST(RecoveryIntegration, VfsWorkerCrashGetsThreadFixup) {
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 10; ++i) {
      os::StatResult st{};
      sys.stat("/bin/true", &st);
    }
  };
  fi::Site* site = workload::busiest_site("vfs", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 8);
  const auto outcome = inst.run([](ISys& sys) {
    // Hammer the worker-thread path before and after the crash: the VFS
    // thread pool must stay fully serviceable after the SIV-E fixup.
    int ok = 0;
    for (int i = 0; i < 40; ++i) {
      os::StatResult st{};
      if (sys.stat("/bin/true", &st) == kernel::OK) ++ok;
    }
    if (ok < 39) sys.exit(1);  // stat is retried: at most nothing is lost
  });
  if (outcome == OsInstance::Outcome::kCompleted) {
    EXPECT_EQ(inst.engine().recoveries_of(kernel::kVfsEp), 1u);
  } else {
    // The fault may have landed outside the window (after a disk yield).
    EXPECT_EQ(outcome, OsInstance::Outcome::kShutdown);
  }
}

TEST(RecoveryIntegration, VfsCrashDuringExecCheckAnswersTheExecingChild) {
  // PM checks an exec's binary with an asynchronous VFS_PM_EXEC and matches
  // the reply to the pending exec by its arg1 correlation pid. When VFS
  // crashes inside its window while serving that check, the E_CRASH reply
  // must carry the pid too, or PM drops it as stale: the child never returns
  // from exec and the parent's wait_pid hangs.
  const auto exec_true = [](ISys& sys) {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t pid = sys.fork([](ISys& c) {
        c.exec("/bin/true");
        c.exit(1);
      });
      std::int64_t st = 0;
      if (pid > 0) sys.wait_pid(pid, &st);
    }
  };
  fi::Site* site = workload::busiest_site("vfs", exec_true);  // VFS's request-loop probe
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::int64_t exec_rc = 0;
  std::int64_t status = -1;
  std::int64_t waited = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t pid = sys.fork([&exec_rc, site](ISys& c) {
      // The next VFS message is this exec's binary check.
      fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, site->hits() + 1);
      exec_rc = c.exec("/bin/true");
      c.exit(7);
    });
    ASSERT_GT(pid, 1);
    waited = sys.wait_pid(pid, &status);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(exec_rc, kernel::E_CRASH);
  EXPECT_GT(waited, 1);
  EXPECT_EQ(status, 7);
  EXPECT_EQ(inst.engine().recoveries_of(kernel::kVfsEp), 1u);
  EXPECT_EQ(inst.engine().stats().rollbacks, 1u);
  EXPECT_EQ(inst.engine().stats().error_replies, 1u);
}

TEST(RecoveryIntegration, UndoLogHighWaterIsBounded) {
  // The design premise (SIV-C): OS components do little work per request, so
  // per-request undo logs stay small even under the full suite.
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto suite = workload::run_suite(inst);
  ASSERT_EQ(suite.failed, 0);
  for (recovery::Recoverable* comp : inst.components()) {
    const auto& stats = comp->ckpt_context().log().stats();
    EXPECT_GT(stats.checkpoints, 0u) << comp->name();
    // Generous bound: no component's per-request log ever exceeded 256 KiB.
    EXPECT_LT(stats.max_log_bytes, 256u * 1024u) << comp->name();
  }
}

TEST(RecoveryIntegration, RecoveryDisabledMeansCrashIsFatal) {
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  };
  fi::Site* site = workload::busiest_site("pm", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  cfg.recovery_enabled = false;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 10);
  const auto outcome = inst.run(workload);
  EXPECT_EQ(outcome, OsInstance::Outcome::kCrashed);
}

TEST(RecoveryIntegration, RsItselfIsRecoverable) {
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 20; ++i) sys.rs_status(2);
  };
  fi::Site* site = workload::busiest_site("rs", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 12);
  const auto outcome = inst.run([](ISys& sys) {
    int ok = 0;
    for (int i = 0; i < 20; ++i) {
      if (sys.rs_status(2) >= 0) ++ok;
    }
    if (ok < 19) sys.exit(1);
  });
  if (outcome == OsInstance::Outcome::kCompleted) {
    EXPECT_GE(inst.engine().recoveries_of(kernel::kRsEp), 1u);
  } else {
    EXPECT_EQ(outcome, OsInstance::Outcome::kShutdown);
  }
}

#if OSIRIS_TRACE_ENABLED
// With tracing compiled in, the ladder climb is also checkable as an event
// *sequence*, not just as end-state counters: the trace must show the climb
// in order — transient crashes, recurring classification, quarantine — and
// agree with the engine's statistics event-for-event. The byte-exact
// golden-trace versions of the rungs live in the osiris_trace_tests binary
// (ctest -L trace); this cross-check keeps the tier-1 suite robust to
// formatting while still pinning the ladder's observable order.
TEST(RecoveryIntegration, LadderClimbIsVisibleInTraceAndMatchesStats) {
  using trace::EventKind;
  using trace_test::Pat;
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("ladder.key", 1);
  };
  fi::Site* site = workload::busiest_site("ds", workload);
  ASSERT_NE(site, nullptr);

  os::OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = 1u << 16;  // retain the whole climb, drop nothing
  cfg.quarantine_cooldown_ticks = 100000;  // parked to the end
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm_persistent(site, fi::FaultType::kNullDeref, 2);
  const auto outcome = inst.run([](ISys& sys) {
    for (int i = 0; i < 120; ++i) {
      (void)sys.ds_publish("ladder.key", static_cast<std::uint64_t>(i));
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  ASSERT_NE(inst.tracer(), nullptr);
  const auto events = inst.tracer()->merged();
  const std::int32_t ds = kernel::kDsEp.value;

  EXPECT_TRUE(trace_test::expect_subsequence(events, {
                  Pat{EventKind::kCrash, ds}.with_a1(0),           // first crash: transient
                  Pat{EventKind::kCrash, ds}.with_a1(1),           // then classified recurring
                  Pat{EventKind::kRecoveryQuarantine, ds}.with_a1(0),  // rung 2, not budget
              }));
  // The long cooldown means the quarantine is never lifted inside this run.
  EXPECT_TRUE(trace_test::expect_absent(events, Pat{EventKind::kRecoveryReadmit, ds}));

  // Trace and engine statistics are two views of the same history.
  const auto& stats = inst.engine().stats();
  const auto count = [&events](const Pat& p) {
    std::uint64_t n = 0;
    for (const trace::Event& e : events) {
      if (p.matches(e)) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(Pat{EventKind::kCrash, ds}.with_a1(0)), stats.transient_crashes);
  EXPECT_EQ(count(Pat{EventKind::kCrash, ds}.with_a1(1)), stats.quarantines);
  EXPECT_EQ(count(Pat{EventKind::kRecoveryQuarantine, ds}), stats.quarantines);
}
#endif  // OSIRIS_TRACE_ENABLED
