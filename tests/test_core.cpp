// Unit tests: the core facade (umbrella header compiles; metrics snapshot).
#include <gtest/gtest.h>

#include "core/osiris.hpp"

using namespace osiris;

TEST(Metrics, SnapshotAfterSuiteRun) {
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto suite = workload::run_suite(inst);
  ASSERT_EQ(suite.failed, 0);

  const core::SystemMetrics m = core::collect_metrics(inst);
  ASSERT_EQ(m.components.size(), 5u);
  EXPECT_GT(m.weighted_coverage, 0.3);
  EXPECT_GT(m.kernel.messages_queued, 1000u);
  EXPECT_EQ(m.kernel.crashes, 0u);
  EXPECT_EQ(m.engine.rollbacks, 0u);

  for (const auto& c : m.components) {
    EXPECT_GT(c.state_bytes, 0u) << c.name;
    EXPECT_GE(c.clone_bytes, c.state_bytes) << c.name;
    EXPECT_EQ(c.recoveries, 0u) << c.name;
  }
  // VM's clone dominates (frame map + recovery arena), as in Table VI.
  std::size_t vm_clone = 0, others_max = 0;
  for (const auto& c : m.components) {
    if (c.name == "vm") vm_clone = c.clone_bytes;
    else others_max = std::max(others_max, c.clone_bytes);
  }
  EXPECT_GT(vm_clone, others_max);

  const std::string report = m.report();
  EXPECT_NE(report.find("weighted coverage"), std::string::npos);
  EXPECT_NE(report.find("vm"), std::string::npos);
}

TEST(Metrics, RecoveryCountsAppear) {
  const auto getpids = [](os::ISys& sys) {
    for (int i = 0; i < 20; ++i) sys.getpid();
  };
  fi::Site* site = workload::busiest_site("pm", getpids);
  ASSERT_NE(site, nullptr);
  ASSERT_GT(site->hits(), 10u);

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 10);
  inst.run(getpids);

  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_EQ(m.kernel.crashes, 1u);
  EXPECT_EQ(m.engine.rollbacks, 1u);
  EXPECT_EQ(m.engine.restarts, 1u);
}

TEST(Metrics, SnapshotWithoutRecovery) {
  // The Tables IV/V baseline: no engine, but the five servers still report.
  os::OsConfig cfg;
  cfg.recovery_enabled = false;
  os::OsInstance inst(cfg);
  inst.boot();
  ASSERT_EQ(inst.run([](os::ISys& sys) { (void)sys.getpid(); }),
            os::OsInstance::Outcome::kCompleted);

  const core::SystemMetrics m = core::collect_metrics(inst);
  ASSERT_EQ(m.components.size(), 5u);
  for (const auto& c : m.components) {
    EXPECT_GT(c.state_bytes, 0u) << c.name;
    EXPECT_EQ(c.clone_bytes, 0u) << c.name;
    EXPECT_EQ(c.recoveries, 0u) << c.name;
  }
  EXPECT_EQ(m.engine.crashes_seen, 0u);
  EXPECT_EQ(m.engine.restarts, 0u);
  EXPECT_EQ(m.engine.rollbacks, 0u);
  EXPECT_EQ(m.engine.error_replies, 0u);
  EXPECT_EQ(m.engine.storm_throttles, 0u);
  EXPECT_FALSE(m.engine.storm_detected);
  EXPECT_GT(m.kernel.messages_queued, 0u);
  EXPECT_NE(m.report().find("engine: 0 restarts"), std::string::npos);
}
