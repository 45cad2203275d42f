// The 89-program prototype test suite must pass completely under every
// recovery policy and instrumentation mode when no faults are injected.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "os/instance.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using workload::run_suite;
using workload::SuiteResult;

namespace {

SuiteResult run_clean(seep::Policy policy, ckpt::Mode mode = ckpt::Mode::kWindowOnly) {
  os::OsConfig cfg;
  cfg.policy = policy;
  cfg.ckpt_mode = mode;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  return run_suite(inst);
}

void expect_all_pass(const SuiteResult& r) {
  EXPECT_EQ(r.outcome, os::OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(r.driver_completed);
  EXPECT_EQ(r.passed, 89);
  EXPECT_EQ(r.failed, 0);
  for (const auto& f : r.failures) ADD_FAILURE() << "suite test failed: " << f;
}

}  // namespace

TEST(SuiteClean, EnhancedPolicy) { expect_all_pass(run_clean(seep::Policy::kEnhanced)); }

TEST(SuiteClean, PessimisticPolicy) { expect_all_pass(run_clean(seep::Policy::kPessimistic)); }

TEST(SuiteClean, StatelessPolicy) { expect_all_pass(run_clean(seep::Policy::kStateless)); }

TEST(SuiteClean, NaivePolicy) { expect_all_pass(run_clean(seep::Policy::kNaive)); }

TEST(SuiteClean, UnoptimizedInstrumentation) {
  expect_all_pass(run_clean(seep::Policy::kEnhanced, ckpt::Mode::kAlways));
}

TEST(SuiteClean, CoverageShapeMatchesTable1) {
  const core::SystemMetrics pess = core::snapshot_suite(seep::Policy::kPessimistic).metrics;
  const core::SystemMetrics enh = core::snapshot_suite(seep::Policy::kEnhanced).metrics;
  ASSERT_EQ(pess.components.size(), 5u);
  ASSERT_EQ(enh.components.size(), 5u);
  // Enhanced coverage >= pessimistic for every server (Table I).
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GE(enh.components[i].recovery_coverage + 1e-9, pess.components[i].recovery_coverage)
        << enh.components[i].name;
  }
  EXPECT_GT(enh.weighted_coverage, pess.weighted_coverage);
  // Both means are substantial (the paper reports 57.7% and 68.4%).
  EXPECT_GT(pess.weighted_coverage, 0.30);
  EXPECT_GT(enh.weighted_coverage, 0.45);
}
