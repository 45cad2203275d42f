// Parallel campaign runner: determinism of the sharded worker pool.
//
// --jobs=N is an implementation detail: a campaign's per-run records must be
// identical to the serial reference run, because records are stored by plan
// index, not by completion order. These tests pin that guarantee on thinned
// plans (full campaigns are minutes; this is seconds).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/worker_pool.hpp"
#include "workload/campaign.hpp"

using namespace osiris;

TEST(WorkerPool, ResolveJobs) {
  EXPECT_EQ(support::WorkerPool::resolve_jobs(1), 1u);
  EXPECT_EQ(support::WorkerPool::resolve_jobs(7), 7u);
  EXPECT_GE(support::WorkerPool::resolve_jobs(0), 1u);  // hardware_concurrency
}

TEST(WorkerPool, RunIndexedCoversEveryIndexOnce) {
  constexpr std::size_t kN = 257;  // deliberately not a multiple of jobs
  std::vector<std::atomic<int>> seen(kN);
  support::WorkerPool::run_indexed(kN, 4, [&](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(WorkerPool, SerialPathRunsInOrder) {
  std::vector<std::size_t> order;
  support::WorkerPool::run_indexed(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      support::WorkerPool::run_indexed(64, 4,
                                       [&](std::size_t i) {
                                         if (i == 13) throw std::runtime_error("boom");
                                       }),
      std::runtime_error);
}

TEST(Campaign, ThinKeepsEveryNthInjectionAndEveryControl) {
  const auto plan = workload::plan_storm();
  const auto thinned = workload::thin(plan, 3);
  std::vector<workload::Injection> expect;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i % 3 == 0 || plan[i].site == nullptr) expect.push_back(plan[i]);
  }
  ASSERT_EQ(thinned.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(thinned[i].site, expect[i].site) << i;
    EXPECT_EQ(thinned[i].type, expect[i].type) << i;
  }
  EXPECT_EQ(thinned.back().site, nullptr) << "a control run was thinned away";
  EXPECT_EQ(workload::thin(plan, 1).size(), plan.size());
}

namespace {

/// Runs `plan` serially and with 4 workers and checks that the whole record
/// of every run (suite result, every kernel and engine counter, whether a
/// storm fired) matches index for index. Returns the serial records.
std::vector<workload::RunRecord> expect_jobs_do_not_change(
    const std::vector<workload::Injection>& plan) {
  workload::CampaignOptions serial;
  serial.jobs = 1;
  workload::CampaignOptions parallel;
  parallel.jobs = 4;
  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, parallel);
  EXPECT_EQ(ref.size(), plan.size());
  EXPECT_EQ(par.size(), plan.size());
  for (std::size_t i = 0; i < plan.size() && i < ref.size() && i < par.size(); ++i) {
    EXPECT_TRUE(ref[i] == par[i]) << "run " << i << " diverged under --jobs=4";
  }
  return ref;
}

}  // namespace

TEST(CampaignParallel, JobsDoNotChangeResults) {
  // A thinned EDFI plan: varied fault types and trigger points.
  const auto plan = workload::thin(workload::plan_edfi(/*seed=*/316, /*injections_per_site=*/1), 4);
  ASSERT_GE(plan.size(), 8u) << "thinned plan too small to exercise sharding";
  expect_jobs_do_not_change(plan);
}

TEST(CampaignParallel, RecurringCampaignJobsDoNotChangeResults) {
  // The recurring (persistent-fault) plan has the same contract.
  const auto plan = workload::thin(workload::plan_recurring(), 8);
  ASSERT_GE(plan.size(), 4u) << "thinned plan too small to exercise sharding";
  expect_jobs_do_not_change(plan);
}

TEST(CampaignParallel, StormCampaignJobsDoNotChangeResults) {
  // The storm (liveness-fault) plan, thinned to its bounded runs: quarantining
  // PM or VFS mid-suite orphans every process waiting on them and the run only
  // ends at the idle limit, which is slow without adding determinism coverage
  // beyond the shapes kept here. Both controls stay.
  std::vector<workload::Injection> plan;
  for (const workload::Injection& s : workload::plan_storm()) {
    const std::string_view tag = s.site != nullptr ? s.site->tag : "";
    const bool keep = s.site == nullptr ||
                      (s.type == fi::FaultType::kHandlerSpin ? (tag == "pm" || tag == "vm")
                                                             : (tag == "ds" || tag == "vm"));
    if (keep) plan.push_back(s);
  }
  ASSERT_GE(plan.size(), 6u) << "storm plan lost its expected shape";
  const auto ref = expect_jobs_do_not_change(plan);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NE(workload::storm_class(ref[i]), workload::StormClass::kFalsePositive)
        << "storm run " << i << " saw a false positive";
  }
}

#if OSIRIS_TRACE_ENABLED
TEST(CampaignParallel, CapturedTracesAreByteIdenticalAcrossJobs) {
  // The determinism contract extends to full event traces: a traced campaign
  // at --jobs=4 captures, per plan index, the exact bytes the serial
  // reference run captures. This is the strongest form of the guarantee —
  // not just the same classifications, but the same total order of IPC,
  // checkpointing, window, fault, and recovery events inside every run.
  const auto plan = workload::thin(workload::plan_failstop(/*points_per_site=*/1), 6);
  ASSERT_GE(plan.size(), 4u);

  std::vector<std::string> ref_traces;
  workload::CampaignOptions serial;
  serial.jobs = 1;
  serial.traces = &ref_traces;

  std::vector<std::string> par_traces;
  workload::CampaignOptions parallel;
  parallel.jobs = 4;
  parallel.traces = &par_traces;

  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref_traces.size(), plan.size());
  ASSERT_EQ(par_traces.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_TRUE(ref[i] == par[i]) << "injection " << i << " recorded differently";
    // Byte-for-byte, not just "similar": any nondeterminism leaking into the
    // simulation (iteration order, uninitialized state, cross-thread
    // contamination) shows up here first.
    EXPECT_EQ(ref_traces[i], par_traces[i])
        << "injection " << i << " traced differently under --jobs=4";
    // Each traced run must actually contain boot + suite traffic.
    EXPECT_NE(ref_traces[i].find("IpcSend"), std::string::npos) << "trace " << i << " is empty";
  }
}
#endif  // OSIRIS_TRACE_ENABLED
