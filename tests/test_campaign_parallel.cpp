// Parallel campaign runner: determinism of the sharded worker pool.
//
// The tentpole guarantee is that --jobs=N is an implementation detail: a
// campaign's per-injection classifications and totals must be identical to
// the serial reference run, because results merge by plan index, not by
// completion order. These tests pin that guarantee on a thinned plan (full
// campaigns are minutes; this is seconds).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "support/worker_pool.hpp"
#include "workload/campaign.hpp"

using namespace osiris;

namespace {

/// Every k-th injection of a full plan — preserves the site/type/trigger
/// variety while keeping the test seconds-scale.
std::vector<workload::Injection> thin(const std::vector<workload::Injection>& plan,
                                      std::size_t stride) {
  std::vector<workload::Injection> out;
  for (std::size_t i = 0; i < plan.size(); i += stride) out.push_back(plan[i]);
  return out;
}

}  // namespace

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

TEST(CampaignParallel, JobsDoNotChangeResults) {
  // One thinned EDFI plan (varied fault types and trigger points), applied
  // serially and with 4 workers: classifications must match index-for-index.
  const auto plan = thin(workload::plan_edfi(/*seed=*/316, /*injections_per_site=*/1), 4);
  ASSERT_GE(plan.size(), 8u) << "thinned plan too small to exercise sharding";

  workload::CampaignOptions serial;
  serial.jobs = 1;
  workload::CampaignOptions parallel;
  parallel.jobs = 4;

  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref.size(), plan.size());
  ASSERT_EQ(par.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " classified differently under --jobs=4";
  }

  // And the merged totals (what the tables print) agree with both runs.
  const workload::CampaignTotals totals =
      workload::run_campaign(seep::Policy::kEnhanced, plan, parallel);
  workload::CampaignTotals expect;
  for (const workload::RunClass c : ref) {
    switch (c) {
      case workload::RunClass::kPass: ++expect.pass; break;
      case workload::RunClass::kFail: ++expect.fail; break;
      case workload::RunClass::kShutdown: ++expect.shutdown; break;
      case workload::RunClass::kCrash: ++expect.crash; break;
    }
  }
  EXPECT_TRUE(totals == expect);
  EXPECT_EQ(totals.total(), static_cast<int>(plan.size()));
}

TEST(CampaignParallel, RecurringCampaignJobsDoNotChangeResults) {
  // The recurring (persistent-fault) campaign has the same determinism
  // contract: survivability buckets merge by plan index, so --jobs=N is
  // byte-identical to the serial reference.
  const auto plan = thin(workload::plan_recurring(), 8);
  ASSERT_GE(plan.size(), 4u) << "thinned plan too small to exercise sharding";

  workload::CampaignOptions serial;
  serial.jobs = 1;
  workload::CampaignOptions parallel;
  parallel.jobs = 4;

  const auto ref = workload::run_recurring_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_recurring_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref.size(), plan.size());
  ASSERT_EQ(par.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " bucketed differently under --jobs=4";
  }

  const workload::RecurringTotals totals =
      workload::run_recurring_campaign(seep::Policy::kEnhanced, plan, parallel);
  workload::RecurringTotals expect;
  for (const workload::RecurringClass c : ref) {
    switch (c) {
      case workload::RecurringClass::kRecovered: ++expect.recovered; break;
      case workload::RecurringClass::kDegraded: ++expect.degraded; break;
      case workload::RecurringClass::kShutdown: ++expect.shutdown; break;
      case workload::RecurringClass::kWedged: ++expect.wedged; break;
    }
  }
  EXPECT_TRUE(totals == expect);
  EXPECT_EQ(totals.total(), static_cast<int>(plan.size()));
}

TEST(CampaignParallel, StormCampaignJobsDoNotChangeResults) {
  // The storm (liveness-fault) campaign joins the same contract: detection
  // buckets and latencies merge by plan index. Thinned to the bounded runs —
  // quarantining PM or VFS mid-suite orphans every process waiting on them
  // and the run only ends at the idle limit, which is slow without adding
  // determinism coverage beyond the shapes kept here.
  std::vector<workload::StormInjection> plan;
  for (const workload::StormInjection& s : workload::plan_storm()) {
    if (s.site == nullptr) {
      plan.push_back(s);  // both controls stay: the kClean bucket must merge too
      continue;
    }
    const std::string_view tag(s.site->tag);
    const bool keep = s.type == fi::FaultType::kHandlerSpin
                          ? (tag == "pm" || tag == "vm")
                          : (tag == "ds" || tag == "vm");
    if (keep) plan.push_back(s);
  }
  ASSERT_GE(plan.size(), 6u) << "storm plan lost its expected shape";

  workload::CampaignOptions serial;
  serial.jobs = 1;
  workload::CampaignOptions parallel;
  parallel.jobs = 4;

  const auto ref = workload::run_storm_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_storm_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref.size(), plan.size());
  ASSERT_EQ(par.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "storm run " << i << " diverged under --jobs=4";
    EXPECT_NE(ref[i].cls, workload::StormClass::kFalsePositive)
        << "storm run " << i << " saw a false positive";
  }
}

TEST(CampaignParallel, ProgressIsSerializedAndMonotonic) {
  const auto plan = thin(workload::plan_failstop(/*points_per_site=*/1), 6);
  ASSERT_GE(plan.size(), 4u);

  std::mutex mu;
  int last_done = 0;
  bool monotonic = true;
  workload::CampaignOptions opts;
  opts.jobs = 4;
  opts.progress = [&](int done, int total) {
    // The campaign already serializes progress callbacks; the lock here makes
    // the test's own bookkeeping race-free under TSan.
    const std::lock_guard<std::mutex> lock(mu);
    if (done != last_done + 1 || total != static_cast<int>(plan.size())) monotonic = false;
    last_done = done;
  };
  (void)workload::run_plan(seep::Policy::kPessimistic, plan, opts);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last_done, static_cast<int>(plan.size()));
}

#if OSIRIS_TRACE_ENABLED
TEST(CampaignParallel, CapturedTracesAreByteIdenticalAcrossJobs) {
  // The determinism contract extends to full event traces: a traced campaign
  // at --jobs=4 captures, per plan index, the exact bytes the serial
  // reference run captures. This is the strongest form of the guarantee —
  // not just the same classifications, but the same total order of IPC,
  // checkpointing, window, fault, and recovery events inside every run.
  const auto plan = thin(workload::plan_failstop(/*points_per_site=*/1), 6);
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
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " classified differently";
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
