// Observational equivalence of the IPC fast path (DESIGN.md §14).
//
// The arena ring and send batching are pure mechanism: they may change
// *when* work happens inside the kernel, never *what* the machine observably
// does. The deterministic tracer is the
// instrument that pins this — every IPC delivery, checkpoint, window edge,
// fault, and recovery step lands in the merged timeline, so "byte-identical
// full trace" is the strongest equivalence check the simulator can express.
//
// Three layers of the claim:
//   1. golden recovery scenarios (rollback, escalation ladder) traced with
//      the fast path on vs off -> identical timelines, even across crashes
//      that land mid-batch;
//   2. a bulk-I/O run, where both columns move every payload through grant
//      spans (the kernel counters say so) -> still identical;
//   3. a traced fault-injection campaign with batching on, at --jobs=1 and
//      --jobs=4 -> every per-injection trace matches the unbatched serial
//      reference byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fi/registry.hpp"
#include "kernel/fastpath.hpp"
#include "os/instance.hpp"
#include "trace_matcher.hpp"
#include "workload/campaign.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;
using os::OsInstance;

namespace {

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

struct FlaggedRun {
  OsInstance::Outcome outcome = OsInstance::Outcome::kCompleted;
  std::string full_text;  // sequenced text of the entire merged timeline
  kernel::KernelStats stats;
};

/// One traced run of `body` under `fastpath`, optionally armed via `arm`.
/// Returns the full sequenced trace plus the kernel counters, so tests can
/// assert both "the timelines match" and "the fast path actually engaged".
FlaggedRun run_flagged(const kernel::FastPath& fastpath,
                       const std::function<void(os::OsConfig&)>& tweak,
                       const std::function<void(fi::Registry&)>& arm, ISys::ProcBody body) {
  fi::Registry::instance().reset_counts();
  os::OsConfig cfg;
  cfg.trace_enabled = true;
  cfg.trace_ring_capacity = 1u << 16;  // full retention: equivalence is byte-exact
  cfg.fastpath = fastpath;
  if (tweak) tweak(cfg);
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  if (arm) arm(fi::Registry::instance());

  FlaggedRun r;
  r.outcome = inst.run(std::move(body));
  fi::Registry::instance().disarm();
  const trace::Tracer& tracer = *inst.tracer();
  r.full_text = trace::format_text(tracer.merged(), tracer);
  r.stats = inst.kern().stats();
  return r;
}

/// Every k-th injection of a full plan — the campaign-test thinning idiom.
std::vector<workload::Injection> thin(const std::vector<workload::Injection>& plan,
                                      std::size_t stride) {
  std::vector<workload::Injection> out;
  for (std::size_t i = 0; i < plan.size(); i += stride) out.push_back(plan[i]);
  return out;
}

}  // namespace

// --- Layer 1a: in-window crash + rollback, fast path on vs off --------------
// The crash lands while the fast path is live, so recovery interleaves with
// ring drains and (possibly) a partially delivered batch. The timeline must
// not care.
TEST(TraceFastPath, RollbackRecoveryTraceIdenticalAcrossFlags) {
  FiGuard guard;
  fi::Site* site = busiest_site("pm", [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.getpid();
  });
  ASSERT_NE(site, nullptr);

  const auto arm = [&](fi::Registry& reg) { reg.arm(site, fi::FaultType::kNullDeref, 15); };
  const ISys::ProcBody body = [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.setuid(0);
  };

  const FlaggedRun off = run_flagged(kernel::FastPath{}, nullptr, arm, body);
  const FlaggedRun on = run_flagged(kernel::FastPath::all_on(), nullptr, arm, body);

  ASSERT_EQ(off.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_EQ(on.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_FALSE(off.full_text.empty());
  EXPECT_EQ(off.full_text, on.full_text);
  // Flag-off runs must never touch the optimized paths.
  EXPECT_EQ(off.stats.arena_spills, 0u);
  EXPECT_EQ(off.stats.batches, 0u);
}

// --- Layer 1b: persistent fault climbing the ladder into quarantine ---------
// Quarantine parks and readmissions reorder *work*, not messages; the ladder
// rungs must fire at the same trace positions whichever queue implementation
// carried the traffic there.
TEST(TraceFastPath, QuarantineLadderTraceIdenticalAcrossFlags) {
  FiGuard guard;
  fi::Site* site = busiest_site("ds", [](ISys& sys) {
    for (int i = 0; i < 30; ++i) sys.ds_publish("fp.key", 1);
  });
  ASSERT_NE(site, nullptr);

  const auto tweak = [](os::OsConfig& cfg) {
    cfg.ladder.backoff_base_ticks = 50;
    cfg.ladder.quarantine_cooldown_ticks = 400;
  };
  const auto arm = [&](fi::Registry& reg) {
    reg.arm_persistent(site, fi::FaultType::kNullDeref, 2);
  };
  const ISys::ProcBody body = [](ISys& sys) {
    for (int i = 0; i < 200; ++i) sys.ds_publish("fp.key", static_cast<std::uint64_t>(i));
  };

  const FlaggedRun off = run_flagged(kernel::FastPath{}, tweak, arm, body);
  const FlaggedRun on = run_flagged(kernel::FastPath::all_on(), tweak, arm, body);

  ASSERT_EQ(off.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_EQ(on.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_FALSE(off.full_text.empty());
  EXPECT_EQ(off.full_text, on.full_text);
}

// --- Layer 2: bulk I/O with the grant span engaged in both columns ----------
// Bulk writes and reads ride grant spans whatever the flags; the kernel
// counters prove the bypass ran in both columns with nothing staged through
// safecopy, and the arena + batching column still traces identically.
TEST(TraceFastPath, BulkFileIoTraceIdenticalWhileBypassEngages) {
  FiGuard guard;
  const ISys::ProcBody body = [](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/fp_bulk", servers::O_CREAT | servers::O_RDWR);
    const std::string blob(4 * kernel::kMsgTextCap, 'z');
    for (int i = 0; i < 8; ++i) sys.write_str(fd, blob);
    sys.lseek(fd, 0, 0);
    std::vector<std::byte> buf(blob.size());
    for (int i = 0; i < 8; ++i) sys.read(fd, buf);
    sys.close(fd);
  };

  const FlaggedRun off = run_flagged(kernel::FastPath{}, nullptr, nullptr, body);
  const FlaggedRun on = run_flagged(kernel::FastPath::all_on(), nullptr, nullptr, body);

  ASSERT_EQ(off.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_EQ(on.outcome, OsInstance::Outcome::kCompleted);
  ASSERT_FALSE(off.full_text.empty());
  EXPECT_EQ(off.full_text, on.full_text);

  // The bulk payloads really did ride grants, not safecopies, in both runs.
  for (const FlaggedRun* r : {&off, &on}) {
    EXPECT_GT(r->stats.grant_bypass_bytes, 0u);
    EXPECT_GT(r->stats.grant_spans, 0u);
    EXPECT_EQ(r->stats.safecopy_bytes, 0u);
  }
}

// --- Layer 3: batched traced campaign, serial and sharded -------------------
// The strongest composite: fault injection across the whole varied plan, the
// batching fast path on, and the worker pool sharding runs across threads.
// Every captured trace must equal the unbatched serial reference — batching
// is invisible even to a byte-exact observer, and --jobs stays a pure
// implementation detail when the fast path is live.
TEST(TraceFastPath, BatchedCampaignTracesMatchUnbatchedAcrossJobs) {
  FiGuard guard;
  const auto plan = thin(workload::plan_failstop(/*points_per_site=*/1), 6);
  ASSERT_GE(plan.size(), 4u) << "thinned plan too small to exercise sharding";

  std::vector<std::string> ref_traces;
  workload::CampaignOptions reference;  // unbatched serial baseline
  reference.jobs = 1;
  reference.traces = &ref_traces;

  std::vector<std::string> serial_traces;
  workload::CampaignOptions batched_serial;
  batched_serial.jobs = 1;
  batched_serial.traces = &serial_traces;
  batched_serial.fastpath = kernel::FastPath::all_on();

  std::vector<std::string> par_traces;
  workload::CampaignOptions batched_parallel;
  batched_parallel.jobs = 4;
  batched_parallel.traces = &par_traces;
  batched_parallel.fastpath = kernel::FastPath::all_on();

  const auto ref = workload::run_plan(seep::Policy::kEnhanced, plan, reference);
  const auto ser = workload::run_plan(seep::Policy::kEnhanced, plan, batched_serial);
  const auto par = workload::run_plan(seep::Policy::kEnhanced, plan, batched_parallel);

  ASSERT_EQ(ref_traces.size(), plan.size());
  ASSERT_EQ(serial_traces.size(), plan.size());
  ASSERT_EQ(par_traces.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(ref[i], ser[i]) << "injection " << i << " classified differently when batched";
    EXPECT_EQ(ref[i], par[i]) << "injection " << i << " classified differently at --jobs=4";
    EXPECT_EQ(ref_traces[i], serial_traces[i])
        << "injection " << i << " traced differently with the fast path on";
    EXPECT_EQ(ref_traces[i], par_traces[i])
        << "injection " << i << " traced differently with the fast path on at --jobs=4";
    EXPECT_NE(ref_traces[i].find("IpcSend"), std::string::npos) << "trace " << i << " is empty";
  }
}
