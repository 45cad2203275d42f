// Page-tier golden trace (DESIGN.md §17): the ninth golden pins the page
// checkpoint lifecycle of a traced rollback — captures as DS's blob pages go
// dirty, truncates as windows retire their epochs, the page rollback riding
// the injected crash, and the delta restart that follows — and the
// determinism tests extend the byte-identity contract to the tier: the same
// faulted scenario twice, and a traced campaign at --jobs=4, reproduce the
// serial bytes exactly with epoch/page checkpointing enabled.
// After an *intentional* change to page-tier sequencing, regenerate with:
// OSIRIS_REGOLDEN=1 ./osiris_trace_tests && git diff
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "trace_matcher.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;
using trace::EventKind;
using trace_test::expect_absent;
using trace_test::expect_subsequence;
using trace_test::Pat;

namespace {

const std::int32_t kDs = kernel::kDsEp.value;

struct FiGuard {
  FiGuard() {
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
  }
  ~FiGuard() { fi::Registry::instance().disarm(); }
};

os::OsConfig paged_cfg(bool pages_on) {
  os::OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = 1u << 16;
  cfg.ds_blob_slots = 8;
  cfg.ckpt_pages.enabled = pages_on;
  return cfg;
}

struct TraceRun {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::vector<trace::Event> events;       // full merged timeline
  std::vector<trace::Event> page_events;  // the page-tier lifecycle only
  std::string page_text;                  // unsequenced text of the page events
  std::string full_text;                  // sequenced text of everything
};

/// The rollback scenario every test here drives: blob-backed publishes with a
/// null-deref armed mid-publish (trigger derived from a deterministic
/// profiling pass — the fi trigger counts absolute hits, so boot-time hits
/// are snapshotted out), crashing DS inside the window so recovery restarts
/// the component and rolls its dirty pages back.
TraceRun run_faulted(const os::OsConfig& cfg) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  // Eight keys keep DS's post-publish maintenance scans (which run AFTER the
  // blob write inside the same window) the busiest fault candidates, so the
  // armed crash lands in a window that already dirtied blob pages.
  const auto workload = [](ISys& sys) {
    for (int i = 0; i < 16; ++i) {
      sys.ds_publish("pages.key" + std::to_string(i % 8), 40 + i);
    }
  };
  std::map<const fi::Site*, std::uint64_t> boot_hits;
  {
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    for (fi::Site* s : reg.sites()) boot_hits[s] = s->hits();
    inst.run(workload);
  }
  fi::Site* best = nullptr;
  std::uint64_t best_delta = 0;
  for (fi::Site* s : reg.sites()) {
    const std::uint64_t d = s->hits() - boot_hits[s];
    if (std::strcmp(s->tag, "ds") == 0 && d > best_delta) {
      best = s;
      best_delta = d;
    }
  }
  TraceRun r;
  EXPECT_NE(best, nullptr);
  if (best == nullptr) return r;
  const std::uint64_t trigger = boot_hits[best] + best_delta / 2 + 1;

  reg.reset_counts();
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  reg.arm(best, fi::FaultType::kNullDeref, trigger);
  r.outcome = inst.run(workload);
  reg.disarm();

  const trace::Tracer& tracer = *inst.tracer();
  r.events = tracer.merged();
  r.page_events = trace_test::filter_events(
      r.events, {EventKind::kPageCapture, EventKind::kPageTruncate, EventKind::kPageRollback,
                 EventKind::kRestartDelta, EventKind::kRecoveryRollback});
  r.page_text = trace::format_text_unsequenced(r.page_events, tracer);
  r.full_text = trace::format_text(r.events, tracer);
  return r;
}

}  // namespace

// --- The ninth golden: a traced rollback through the page tier --------------
TEST(TracePages, FaultedBlobPublishEmitsPageLifecycleGolden) {
  FiGuard guard;
  const TraceRun r = run_faulted(paged_cfg(/*pages_on=*/true));
  ASSERT_EQ(r.outcome, OsInstance::Outcome::kCompleted);

  // The lifecycle in order: a capture as a publish dirties blob pages, an
  // epoch truncation at a later checkpoint, then the crash — the engine's
  // restart phase delta-syncs DS's aux image into the clone BEFORE the
  // rollback phase undoes the open epoch's pages (engine.cpp: restart, then
  // rollback), so kRestartDelta precedes kPageRollback in the timeline.
  EXPECT_TRUE(expect_subsequence(r.events, {
                  Pat{EventKind::kPageCapture, kDs},
                  Pat{EventKind::kPageTruncate, kDs},
                  Pat{EventKind::kRestartDelta, kDs},
                  Pat{EventKind::kPageRollback, kDs},
              }));
  ASSERT_GE(r.page_events.size(), 6u);
  EXPECT_TRUE(trace_test::check_golden("pages_rollback.trace", r.page_text));
}

// --- Determinism: the page tier preserves full-trace byte-identity ----------
TEST(TracePages, IdenticalFaultedScenarioProducesByteIdenticalFullTrace) {
  FiGuard guard;
  const TraceRun a = run_faulted(paged_cfg(/*pages_on=*/true));
  const TraceRun b = run_faulted(paged_cfg(/*pages_on=*/true));
  ASSERT_FALSE(a.full_text.empty());
  EXPECT_EQ(a.full_text, b.full_text);
}

// --- Flag off: no page events, so the eight existing goldens are safe -------
TEST(TracePages, TierOffEmitsNoPageEvents) {
  FiGuard guard;
  const TraceRun r = run_faulted(paged_cfg(/*pages_on=*/false));
  ASSERT_EQ(r.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kPageCapture}));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kPageTruncate}));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kPageRollback}));
  EXPECT_TRUE(expect_absent(r.events, Pat{EventKind::kRestartDelta}));
}

// --- Campaign determinism with the page tier enabled ------------------------
// The --jobs=N contract from test_campaign_parallel.cpp, re-pinned with
// epoch/page checkpointing (plus the DS blob table) on:
// every injection's trace at --jobs=4 is the exact bytes of the serial run.
TEST(TracePages, CampaignTracesByteIdenticalAcrossJobsWithPageTier) {
  FiGuard guard;
  std::vector<workload::Injection> plan = workload::plan_failstop(/*points_per_site=*/1);
  if (plan.size() > 6) {  // thin for runtime; coverage lives in the campaign suite
    const std::size_t stride = plan.size() / 6;
    std::vector<workload::Injection> thin;
    for (std::size_t i = 0; i < plan.size(); i += stride) thin.push_back(plan[i]);
    plan.swap(thin);
  }
  ASSERT_GE(plan.size(), 4u);

  std::vector<std::string> ref_traces;
  workload::CampaignOptions serial;
  serial.jobs = 1;
  serial.traces = &ref_traces;
  serial.ckpt_pages.enabled = true;
  serial.ds_blob_slots = 4;

  std::vector<std::string> par_traces;
  workload::CampaignOptions parallel = serial;
  parallel.jobs = 4;
  parallel.traces = &par_traces;

  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, parallel);

  ASSERT_EQ(ref_traces.size(), plan.size());
  ASSERT_EQ(par_traces.size(), plan.size());
  bool any_capture = false;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " classified differently under --jobs=4";
    EXPECT_EQ(ref_traces[i], par_traces[i])
        << "injection " << i << " traced differently under --jobs=4";
    if (ref_traces[i].find("PageCapture") != std::string::npos) any_capture = true;
  }
  // The contract is only interesting if the tier actually logged: at least
  // one injection's suite traffic dirtied a page.
  EXPECT_TRUE(any_capture);
}
