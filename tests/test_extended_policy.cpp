// Tests for the SVII composable-policy extension: requester-scoped SEEPs
// taint (rather than close) the recovery window under the extended policy,
// and reconciliation kills the requester instead of error-replying.
#include <gtest/gtest.h>

#include <cstring>

#include "core/metrics.hpp"
#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;

TEST(ExtendedPolicy, RequesterScopedSeepTaintsInsteadOfClosing) {
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  seep::Window w(seep::Policy::kExtended, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kNonStateModifying);
  EXPECT_TRUE(w.is_open());
  EXPECT_FALSE(w.is_tainted());
  w.on_outbound(seep::SeepClass::kRequesterScoped);
  EXPECT_TRUE(w.is_open());
  EXPECT_TRUE(w.is_tainted());
  EXPECT_EQ(w.stats().tainted, 1u);
  w.on_outbound(seep::SeepClass::kStateModifying);
  EXPECT_FALSE(w.is_open());
}

TEST(ExtendedPolicy, EnhancedTreatsRequesterScopedAsClosing) {
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  seep::Window w(seep::Policy::kEnhanced, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kRequesterScoped);
  EXPECT_FALSE(w.is_open());
}

TEST(ExtendedPolicy, OpenResetsTaint) {
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  seep::Window w(seep::Policy::kExtended, ctx);
  w.open();
  w.on_outbound(seep::SeepClass::kRequesterScoped);
  ASSERT_TRUE(w.is_tainted());
  w.end_of_request();
  w.open();
  EXPECT_FALSE(w.is_tainted());
}

TEST(ExtendedPolicy, SuitePassesCleanly) {
  fi::Registry::instance().disarm();
  os::OsConfig cfg;
  cfg.policy = seep::Policy::kExtended;
  OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto res = workload::run_suite(inst);
  EXPECT_EQ(res.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(res.passed, 89);
  EXPECT_EQ(res.failed, 0);
}

TEST(ExtendedPolicy, CoverageAtLeastEnhanced) {
  const core::SystemMetrics enh = core::snapshot_suite(seep::Policy::kEnhanced).metrics;
  const core::SystemMetrics ext = core::snapshot_suite(seep::Policy::kExtended).metrics;
  // Windows that survive requester-scoped SEEPs can only widen coverage.
  EXPECT_GE(ext.weighted_coverage + 1e-9, enh.weighted_coverage);
  // PM specifically gains: its brk path stays inside the window.
  double pm_enh = 0, pm_ext = 0;
  for (const auto& c : enh.components) {
    if (c.name == "pm") pm_enh = c.recovery_coverage;
  }
  for (const auto& c : ext.components) {
    if (c.name == "pm") pm_ext = c.recovery_coverage;
  }
  EXPECT_GE(pm_ext + 1e-9, pm_enh);
}

TEST(ExtendedPolicy, TaintedCrashKillsRequesterAndSystemSurvives) {
  // Find a PM probe that executes after the brk path's requester-scoped
  // SEEP (while the window is tainted but still open).
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  const auto brk_workload = [](ISys& sys) {
    const std::int64_t pid = sys.fork([](ISys& c) {
      for (int i = 1; i <= 8; ++i) c.brk(0x10000 + static_cast<std::uint64_t>(i) * 4096);
      c.exit(0);
    });
    std::int64_t s;
    if (pid > 0) sys.wait_pid(pid, &s);
  };
  // Profile under the EXTENDED policy and track which PM sites run tainted.
  // The do_brk post-call probe is the deepest PM site in this workload.
  {
    os::OsConfig cfg;
    cfg.policy = seep::Policy::kExtended;
    OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    ASSERT_EQ(inst.run(brk_workload), OsInstance::Outcome::kCompleted);
    EXPECT_GT(inst.pm().window().stats().tainted, 0u)
        << "brk must taint PM's window under the extended policy";
  }
  // Now inject: pick the busiest PM site and a trigger hit that lands inside
  // a brk request (the workload is brk-dominated, so most hits qualify).
  fi::Site* site = nullptr;
  for (fi::Site* s : fi::Registry::instance().sites()) {
    if (std::strcmp(s->tag, "pm") == 0 && (site == nullptr || s->hits() > site->hits())) site = s;
  }
  ASSERT_NE(site, nullptr);
  const std::uint64_t trigger = site->hits() * 2 / 3;
  fi::Registry::instance().reset_counts();

  os::OsConfig cfg;
  cfg.policy = seep::Policy::kExtended;
  OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, trigger);
  bool child_was_killed = false;
  const auto outcome = inst.run([&child_was_killed](ISys& sys) {
    const std::int64_t pid = sys.fork([](ISys& c) {
      for (int i = 1; i <= 8; ++i) c.brk(0x10000 + static_cast<std::uint64_t>(i) * 4096);
      c.exit(0);
    });
    std::int64_t status = -1;
    if (pid > 0 && sys.wait_pid(pid, &status) == pid) {
      child_was_killed = status == -static_cast<std::int64_t>(servers::kSigKill);
    }
    // The system itself keeps running regardless.
    for (int i = 0; i < 5; ++i) EXPECT_GT(sys.getpid(), 0);
  });
  fi::Registry::instance().disarm();

  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);
  if (inst.engine().stats().requester_kills > 0) {
    EXPECT_TRUE(child_was_killed)
        << "a tainted-window recovery must terminate the requesting process";
    EXPECT_GE(inst.engine().recoveries_of(kernel::kPmEp), 1u);
  }
}
