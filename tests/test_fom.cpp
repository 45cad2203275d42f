// FOM executor tests (DESIGN.md §16): the state-machine lifecycle, the
// per-request undo sub-log (mark/rollback_to), mid-flight checkpoint/rollback
// equivalence against the serial fiber path, the recovery arcs with live
// FOMs (rollback, boot-image restart, quarantine), and the composition
// matrix with the health monitor (DESIGN.md §15).
//
// The interleaving harness at the bottom is the pin for the tentpole claim:
// any schedule of concurrent VFS requests — parks and resumes interleaving
// arbitrarily many requests mid-flight — must leave the filesystem in the
// state the serial reference schedule produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/context.hpp"
#include "ckpt/undo_log.hpp"
#include "core/metrics.hpp"
#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "seep/window.hpp"
#include "servers/fom.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"
#include "workload/suite.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/export.hpp"
#endif

using namespace osiris;
using os::ISys;
using os::OsInstance;
using servers::FomCore;
using servers::FomState;

namespace {

struct FiGuard {
  FiGuard() {
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
  }
  ~FiGuard() { fi::Registry::instance().disarm(); }
};

kernel::Message req(std::uint32_t type) {
  kernel::Message m{};
  m.type = type;
  m.sender = kernel::Endpoint{77};
  return m;
}

/// Find the site of `tag` whose per-run hits are maximal after a profiling
/// run of `body` under `cfg` (FOM runs profile with the executor ON so the
/// probe sites seen match the faulted run).
fi::Site* busiest_site(const char* tag, const os::OsConfig& cfg, const ISys::ProcBody& body) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
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

std::int64_t write_all(ISys& sys, std::int64_t fd, const std::vector<std::byte>& data) {
  return sys.write(fd, std::span<const std::byte>(data.data(), data.size()));
}

/// Find the "vfs" probe sites executed on every *attempt* of every
/// worker-path operation (the top of run_fs_op, plus the executor's own
/// admission probe). Only an in-attempt site can fire inside a RESUMED
/// attempt — dispatch-entry probes run before fom_run and inline-op probes
/// never run under the executor at all. Identified by differential
/// profiling: hit by a stat, a read and a write alike, and not at all by
/// inline fd bookkeeping (lseek). Sites re-hit by a cold read's resumed
/// attempts sort first, so front() is the true per-attempt site and the
/// admission probe (one hit per request, resumes invisible) comes later.
std::vector<fi::Site*> attempt_sites(const os::OsConfig& cfg) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::vector<fi::Site*> sites;
  const auto snap = [&sites] {
    std::vector<std::uint64_t> v;
    v.reserve(sites.size());
    for (fi::Site* s : sites) v.push_back(s->hits());
    return v;
  };
  std::vector<std::uint64_t> base, after_lseek, after_stat, after_read, after_write;
  std::vector<std::uint64_t> cold_base, after_cold;
  inst.run([&](ISys& sys) {
    const std::vector<std::byte> data(1024, std::byte{9});
    std::vector<std::byte> sink(data.size());
    const std::int64_t fd = sys.open("/tmp/fom-cal", servers::O_CREAT | servers::O_RDWR);
    write_all(sys, fd, data);
    sys.lseek(fd, 0, 0);
    sys.read(fd, std::span<std::byte>(sink.data(), sink.size()));  // warm every block
    // Collect the candidate list only now: sites register on first
    // execution, so the worker-path probes exist only after the warm-up ops
    // above have actually run once in this process.
    for (fi::Site* s : fi::Registry::instance().sites()) {
      if (std::strcmp(s->tag, "vfs") == 0) sites.push_back(s);
    }
    base = snap();
    sys.lseek(fd, 0, 0);
    after_lseek = snap();
    os::StatResult st{};
    sys.stat("/tmp/fom-cal", &st);
    after_stat = snap();
    sys.read(fd, std::span<std::byte>(sink.data(), sink.size()));
    after_read = snap();
    sys.lseek(fd, 0, 0);
    write_all(sys, fd, data);
    after_write = snap();
    // Cold phase: evict everything, then re-read. Per-attempt sites collect
    // one hit per park/resume cycle here; per-request ones exactly one.
    const std::vector<std::byte> filler(32 * 1024, std::byte{0xAA});
    const std::int64_t sfd = sys.open("/tmp/fom-cal-scratch",
                                      servers::O_CREAT | servers::O_RDWR | servers::O_TRUNC);
    write_all(sys, sfd, filler);
    std::vector<std::byte> ssink(filler.size());
    sys.lseek(sfd, 0, 0);
    sys.read(sfd, std::span<std::byte>(ssink.data(), ssink.size()));
    sys.close(sfd);
    cold_base = snap();
    sys.lseek(fd, 0, 0);
    sys.read(fd, std::span<std::byte>(sink.data(), sink.size()));
    after_cold = snap();
    sys.close(fd);
  });
  std::vector<std::pair<std::uint64_t, fi::Site*>> matches;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (after_lseek[i] == base[i] && after_stat[i] > after_lseek[i] &&
        after_read[i] > after_stat[i] && after_write[i] > after_read[i]) {
      matches.emplace_back(after_cold[i] - cold_base[i], sites[i]);
    }
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<fi::Site*> out;
  out.reserve(matches.size());
  for (const auto& [hits, s] : matches) out.push_back(s);
  return out;
}

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<std::uint8_t>(seed + i * 7));
  }
  return v;
}

/// Write `path` full of `data`, then evict it from the block cache by
/// streaming a scratch file through the (small) cache.
void write_and_evict(ISys& sys, const std::string& path, const std::vector<std::byte>& data,
                     const std::string& scratch) {
  std::int64_t fd = sys.open(path, servers::O_CREAT | servers::O_RDWR | servers::O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write_all(sys, fd, data), static_cast<std::int64_t>(data.size()));
  ASSERT_EQ(sys.close(fd), kernel::OK);
  const std::vector<std::byte> filler = pattern(32 * 1024, 0xAA);
  fd = sys.open(scratch, servers::O_CREAT | servers::O_RDWR | servers::O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(write_all(sys, fd, filler), static_cast<std::int64_t>(filler.size()));
  std::vector<std::byte> sink(filler.size());
  ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
  ASSERT_EQ(sys.read(fd, std::span<std::byte>(sink.data(), sink.size())),
            static_cast<std::int64_t>(sink.size()));
  ASSERT_EQ(sys.close(fd), kernel::OK);
}

std::vector<std::byte> read_back(ISys& sys, const std::string& path, std::size_t n) {
  std::vector<std::byte> v(n);
  const std::int64_t fd = sys.open(path, servers::O_RDONLY);
  if (fd < 0) return {};
  std::size_t got = 0;
  while (got < n) {
    const std::int64_t r =
        sys.read(fd, std::span<std::byte>(v.data() + got, n - got));
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  sys.close(fd);
  v.resize(got);
  return v;
}

/// Three 6 KiB files made cold, then three forked clients reading them back
/// concurrently: with 4 cache blocks the executor holds several parked
/// requests at once, and each re-run re-misses (DESIGN.md §16).
void concurrent_cold_reads(ISys& sys) {
  constexpr int kClients = 3;
  constexpr std::size_t kBytes = 6 * 1024;
  for (int c = 0; c < kClients; ++c) {
    write_and_evict(sys, "/tmp/fom-c" + std::to_string(c),
                    pattern(kBytes, static_cast<std::uint8_t>(c)), "/tmp/fom-scratch");
  }
  std::vector<std::int64_t> pids;
  for (int c = 0; c < kClients; ++c) {
    const std::int64_t pid = sys.fork([c](ISys& child) {
      const std::vector<std::byte> got =
          read_back(child, "/tmp/fom-c" + std::to_string(c), kBytes);
      child.exit(got == pattern(kBytes, static_cast<std::uint8_t>(c)) ? 0 : 1);
    });
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const std::int64_t pid : pids) {
    std::int64_t status = -1;
    ASSERT_EQ(sys.wait_pid(pid, &status), pid);
    EXPECT_EQ(status, 0) << "child data mismatch";
  }
}

}  // namespace

// --- FomCore: the state machine in isolation --------------------------------

TEST(FomCore, LifecycleAdmitParkResumeFinish) {
  FomCore core;
  const std::uint64_t id = core.admit(req(10));
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(core.in_flight(), 1u);
  EXPECT_EQ(core.get(id).state, FomState::kRunning);
  EXPECT_FALSE(core.get(id).resumed);

  core.park(id, /*now=*/100);
  EXPECT_EQ(core.get(id).state, FomState::kParked);
  EXPECT_EQ(core.get(id).retries, 1u);
  EXPECT_EQ(core.get(id).parked_at, 100u);

  core.resume(id, /*now=*/140);
  EXPECT_EQ(core.get(id).state, FomState::kRunning);
  EXPECT_TRUE(core.get(id).resumed);
  EXPECT_EQ(core.stats().wait_ticks_total, 40u);

  core.finish(id);
  EXPECT_EQ(core.in_flight(), 0u);
  EXPECT_FALSE(core.contains(id));
  EXPECT_EQ(core.stats().admitted, 1u);
  EXPECT_EQ(core.stats().parks, 1u);
  EXPECT_EQ(core.stats().resumes, 1u);
  EXPECT_EQ(core.stats().retries, 1u);
  EXPECT_EQ(core.stats().completed, 1u);
  EXPECT_EQ(core.stats().aborts, 0u);
}

TEST(FomCore, AbortDropsLiveRecord) {
  FomCore core;
  const std::uint64_t a = core.admit(req(1));
  const std::uint64_t b = core.admit(req(2));
  core.park(a, 10);
  core.abort(a);
  EXPECT_FALSE(core.contains(a));
  EXPECT_TRUE(core.contains(b));
  EXPECT_EQ(core.stats().aborts, 1u);
  EXPECT_EQ(core.stats().completed, 0u);
}

TEST(FomCore, HighWaterTracksConcurrentFoms) {
  FomCore core;
  const std::uint64_t a = core.admit(req(1));
  core.park(a, 0);
  const std::uint64_t b = core.admit(req(2));
  core.park(b, 0);
  const std::uint64_t c = core.admit(req(3));
  EXPECT_EQ(core.stats().in_flight_high_water, 3u);
  core.finish(c);
  core.resume(a, 5);
  core.finish(a);
  core.resume(b, 5);
  core.finish(b);
  EXPECT_EQ(core.in_flight(), 0u);
  EXPECT_EQ(core.stats().in_flight_high_water, 3u);
}

TEST(FomCore, LiveIterationIsAdmissionOrdered) {
  // Determinism rule: abort sweeps walk live FOMs in admission order, never
  // in pointer or hash order.
  FomCore core;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(core.admit(req(static_cast<std::uint32_t>(i))));
  std::vector<std::uint64_t> seen;
  for (const auto& [id, rec] : core.live()) seen.push_back(id);
  EXPECT_EQ(seen, ids);
}

// --- UndoLog: the per-request sub-log ---------------------------------------

TEST(UndoLog, RollbackToMarkRestoresSuffixOnly) {
  // The park-time sub-rollback: entries past the mark are undone (LIFO),
  // entries before it stay live for the full-log rollback to use later.
  ckpt::UndoLog log;
  std::uint64_t early = 1, late = 10;
  log.record(&early, sizeof early);
  early = 2;
  const ckpt::UndoLog::Mark m = log.mark();
  log.record(&late, sizeof late);
  late = 20;
  log.rollback_to(m);
  EXPECT_EQ(late, 10u);   // the attempt's store was undone...
  EXPECT_EQ(early, 2u);   // ...the pre-mark store was not
  EXPECT_EQ(log.entry_count(), 1u);
  EXPECT_EQ(log.stats().partial_rollbacks, 1u);
  log.rollback();
  EXPECT_EQ(early, 1u);   // the surviving prefix still rolls back fully
}

TEST(UndoLog, RollbackToMarkIsLifoWithinTheSuffix) {
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  const ckpt::UndoLog::Mark m = log.mark();
  log.record(&v, sizeof v);
  v = 2;
  char buf[8];
  std::memset(buf, 'a', sizeof buf);
  log.record(buf, sizeof buf);
  std::memset(buf, 'b', sizeof buf);
  log.rollback_to(m);
  EXPECT_EQ(v, 1u);
  for (char c : buf) EXPECT_EQ(c, 'a');
  EXPECT_TRUE(log.empty());
}

TEST(UndoLog, RollbackToMarkResetsFirstWriteFilter) {
  // After a sub-rollback the same range must be re-capturable: the re-run
  // of a parked request writes the same cells again, and rollback needs the
  // NEW capture, not a stale duplicate-elision.
  ckpt::UndoLog log;
  std::uint64_t v = 1;
  const ckpt::UndoLog::Mark m = log.mark();
  log.record(&v, sizeof v);
  v = 2;
  log.rollback_to(m);
  EXPECT_EQ(v, 1u);
  log.record(&v, sizeof v);  // must not be elided as a duplicate
  v = 3;
  EXPECT_EQ(log.entry_count(), 1u);
  log.rollback();
  EXPECT_EQ(v, 1u);
}

TEST(UndoLog, RollbackToCurrentMarkIsNoop) {
  ckpt::UndoLog log;
  std::uint64_t v = 7;
  log.record(&v, sizeof v);
  v = 8;
  const ckpt::UndoLog::Mark m = log.mark();
  log.rollback_to(m);  // zero-request case: nothing past the mark
  EXPECT_EQ(v, 8u);
  EXPECT_EQ(log.entry_count(), 1u);
}

TEST(UndoLog, FomParkResumeMidEpoch) {
  // The executor's window choreography (fom.hpp) splits one request across
  // two epochs with a mid-epoch partial rollback: attempt, park (rolling the
  // attempt back to its mark), resume with a fresh window, retry — then
  // crash. Pre-park durable work survives (the resume's checkpoint commits
  // it); the crashed retry does not.
  std::vector<std::byte> buf(128);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 7 + 3);
  const std::byte attempt_before = buf[64];
  ckpt::Context ctx(ckpt::Mode::kWindowOnly);
  ckpt::Context::Scope scope(&ctx);
  seep::Window win(seep::Policy::kEnhanced, ctx);

  win.open(1);
  ckpt::Context::log_write(buf.data(), 8);
  std::memset(buf.data(), 0xA1, 8);  // durable pre-attempt mutation
  const ckpt::UndoLog::Mark m = ctx.log().mark();
  ckpt::Context::log_write(buf.data() + 64, 8);  // the attempt's partial work
  std::memset(buf.data() + 64, 0xA2, 8);
  ctx.log().rollback_to(m);  // park: attempt undone exactly
  EXPECT_EQ(buf[64], attempt_before);
  win.fom_park();

  win.fom_resume(1);  // fresh window, fresh epoch
  ckpt::Context::log_write(buf.data() + 64, 8);
  std::memset(buf.data() + 64, 0xA3, 8);  // the retry
  ctx.log().rollback();                   // crash mid-retry
  win.end_of_request();

  EXPECT_TRUE(ctx.log().integrity_ok());
  EXPECT_EQ(buf[0], std::byte{0xA1});      // committed by the resume checkpoint
  EXPECT_EQ(buf[64], attempt_before);      // the retry rolled back to the resume
}

// --- executor end-to-end ----------------------------------------------------

TEST(FomExecutor, ColdCacheReadParksAndResumes) {
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;  // far below the working set: reads must miss
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const std::vector<std::byte> data = pattern(8 * 1024, 3);
  std::vector<std::byte> got;
  const auto outcome = inst.run([&](ISys& sys) {
    write_and_evict(sys, "/tmp/fom-a", data, "/tmp/fom-scratch");
    got = read_back(sys, "/tmp/fom-a", data.size());
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(got, data);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  EXPECT_GT(fs.admitted, 0u);
  EXPECT_GT(fs.parks, 0u);         // cold reads suspended mid-flight...
  EXPECT_EQ(fs.resumes, fs.parks);  // ...and every park was resumed
  EXPECT_GT(fs.wait_ticks_total, 0u);
  EXPECT_EQ(fs.completed, fs.admitted);
  EXPECT_EQ(fs.aborts, 0u);
  EXPECT_EQ(inst.vfs().fom_core().in_flight(), 0u);
  // Window accounting matched the executor's: every park suspended a window.
  const seep::WindowStats& ws = inst.vfs().window().stats();
  EXPECT_EQ(ws.fom_parks, fs.parks);
  EXPECT_EQ(ws.fom_resumes, fs.resumes);
}

TEST(FomExecutor, SuiteMatchesFiberPath) {
  // The whole 89-program suite is the serial reference model: the executor
  // must pass exactly what the fiber path passes.
  FiGuard guard;
  workload::SuiteResult fiber{};
  {
    os::OsConfig cfg;
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    fiber = workload::run_suite(inst);
  }
  workload::SuiteResult fom{};
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fom = workload::run_suite(inst);
  EXPECT_EQ(fiber.failed, 0);
  EXPECT_EQ(fom.failed, 0);
  EXPECT_EQ(fom.passed, fiber.passed);
}

TEST(FomExecutor, ConcurrentColdReadsOverlapInFlight) {
  // The non-blocking claim itself: while one request waits on the disk, the
  // server keeps serving others — multiple requests live simultaneously.
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run(concurrent_cold_reads);
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  EXPECT_GT(fs.parks, 0u);
  EXPECT_GE(fs.in_flight_high_water, 2u);  // requests genuinely overlapped
  EXPECT_EQ(fs.completed, fs.admitted);
  EXPECT_EQ(fs.aborts, 0u);
}

TEST(FomExecutor, HealthMonitorCountsResumesAsUsefulWork) {
  // VFS resumes a parked FOM from its own VFS_DEV_DONE self-notification. A
  // resume re-runs a real request, so the health monitor must neither charge
  // it as storm traffic nor drop it at the throttle gate: a dropped resume
  // strands its reader forever (the run would end kHung). The monitor comes
  // with recovery, so a default machine runs it; it must have sampled.
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run(concurrent_cold_reads);
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  EXPECT_GT(fs.parks, 0u);
  EXPECT_EQ(fs.resumes, fs.parks);
  EXPECT_EQ(fs.completed, fs.admitted);
  const kernel::KernelStats& ks = inst.kern().stats();
  EXPECT_GT(ks.health_charges, 0u) << "the monitor never sampled";
  EXPECT_EQ(ks.throttled_drops, 0u);
  EXPECT_EQ(ks.fever_onsets, 0u);
}

TEST(FomExecutor, MetricsSurfaceExecutorCounters) {
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const std::vector<std::byte> data = pattern(8 * 1024, 9);
  inst.run([&](ISys& sys) {
    write_and_evict(sys, "/tmp/fom-m", data, "/tmp/fom-scratch");
    read_back(sys, "/tmp/fom-m", data.size());
  });
  const core::SystemMetrics m = core::collect_metrics(inst);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  bool found = false;
  for (const core::ComponentMetrics& c : m.components) {
    if (c.name != "vfs") continue;
    found = true;
    EXPECT_EQ(c.fom_admitted, fs.admitted);
    EXPECT_EQ(c.fom_parks, fs.parks);
    EXPECT_EQ(c.fom_resumes, fs.resumes);
    EXPECT_EQ(c.fom_in_flight_high_water, fs.in_flight_high_water);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(m.report().find("fom[vfs]:"), std::string::npos);
}

// --- miss-regime depth sweep -------------------------------------------------
//
// The executor's measured win, as an exact fixed-work result. `depth` raw
// kernel clients (no fibers) each own a 64 KiB file, written at setup, and
// stream single-block reads and writes over it (70/30, seeded) in a closed
// loop with zero think time. The block cache holds an eighth of the working
// set, so nearly every read waits out the device's 40-tick latency: the
// fiber path overlaps at most kVfsWorkers of those waits, the executor one
// per parked request. Each client runs its own op count; with one shared
// budget, the clients whose files setup left cache-resident would spend it
// while the rest sat parked. Everything is virtual time, so every figure is
// pinned exactly.

namespace {

constexpr std::size_t kSweepFileBytes = 64 * 1024;
constexpr int kSweepOpsPerClient = 200;
constexpr std::uint64_t kSweepSeed = 42;
constexpr Tick kSweepReadTicks = 40;  // BlockDevice's default read latency

class SweepClient final : public kernel::IClient {
 public:
  SweepClient(OsInstance& inst, std::int32_t pid, Rng rng)
      : inst_(inst), pid_(pid), rng_(rng), io_(fs::kBlockSize), model_(kSweepFileBytes) {
    ep_ = inst_.kern().register_client(this);
  }

  /// Register as a boot process, then create and fill the file (the cursor
  /// ends back at 0).
  void setup() {
    inst_.pm().register_boot_proc(pid_, ep_, "sweep");
    inst_.vm().register_boot_proc(pid_);
    inst_.vfs().register_boot_proc(pid_, ep_);
    inst_.sys_task().register_boot_proc(pid_);
    const std::string path = "/tmp/sweep" + std::to_string(pid_);
    fd_ = sync_request(servers::encode_text(servers::VFS_OPEN, path,
                                            servers::O_CREAT | servers::O_RDWR));
    ASSERT_GE(fd_, 0);
    for (std::size_t i = 0; i < model_.size(); ++i) {
      model_[i] = static_cast<std::byte>((i * 131u + static_cast<unsigned>(pid_) * 7u) & 0xff);
    }
    const kernel::GrantId g = inst_.kern().make_grant(ep_, kernel::kVfsEp, model_.data(),
                                                      model_.size(), kernel::Access::kRead);
    ASSERT_EQ(sync_request(servers::encode(servers::VFS_WRITE, static_cast<std::uint64_t>(fd_),
                                           g, model_.size())),
              static_cast<std::int64_t>(model_.size()));
    inst_.kern().revoke_grant(g);
    ASSERT_EQ(sync_request(servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_),
                                           0, 0)),
              0);
  }

  /// Send the next op, or the rewind that precedes it at end of file.
  void send_next() {
    kernel::Kernel& kern = inst_.kern();
    outstanding_ = true;
    seek_ = pos_ == model_.size();
    if (seek_) {
      kern.send(ep_, kernel::kVfsEp,
                servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_), 0, 0));
      return;
    }
    read_ = rng_.below(10) < 7;
    if (!read_) {
      std::memset(io_.data(), static_cast<int>((pid_ * 29 + ++writes_) & 0xff), io_.size());
    }
    grant_ = kern.make_grant(ep_, kernel::kVfsEp, io_.data(), io_.size(),
                             read_ ? kernel::Access::kWrite : kernel::Access::kRead);
    kern.send(ep_, kernel::kVfsEp,
              servers::encode(read_ ? servers::VFS_READ : servers::VFS_WRITE,
                              static_cast<std::uint64_t>(fd_), grant_, io_.size()));
  }

  void on_reply(const kernel::Message& r) override {
    if (setup_waiting_) {
      setup_waiting_ = false;
      setup_status_ = r.sarg(0);
      return;
    }
    outstanding_ = false;
    last_reply_ = inst_.clock().now();
    if (seek_) {
      if (r.sarg(0) != 0) ++failures_;
      pos_ = 0;
      send_next();
      return;
    }
    inst_.kern().revoke_grant(grant_);
    const bool ok = r.sarg(0) == static_cast<std::int64_t>(io_.size()) &&
                    (!read_ || std::memcmp(io_.data(), model_.data() + pos_, io_.size()) == 0);
    if (!ok) {
      ++failures_;
    } else if (!read_) {
      std::memcpy(model_.data() + pos_, io_.data(), io_.size());
    }
    pos_ += io_.size();
    if (++done_ < kSweepOpsPerClient) send_next();
  }

  void on_notify(const kernel::Message&) override {}

  [[nodiscard]] bool finished() const noexcept {
    return done_ == kSweepOpsPerClient && !outstanding_;
  }
  [[nodiscard]] int failures() const noexcept { return failures_; }
  [[nodiscard]] Tick last_reply() const noexcept { return last_reply_; }

 private:
  std::int64_t sync_request(const kernel::Message& m) {
    setup_waiting_ = true;
    inst_.kern().send(ep_, kernel::kVfsEp, m);
    while (setup_waiting_) {
      if (!inst_.kern().dispatch_pending() && !inst_.clock().advance_to_next()) {
        ADD_FAILURE() << "setup request wedged";
        return -1;
      }
    }
    return setup_status_;
  }

  OsInstance& inst_;
  std::int32_t pid_;
  Rng rng_;
  kernel::Endpoint ep_{};
  std::int64_t fd_ = -1;
  std::size_t pos_ = 0;
  std::vector<std::byte> io_;
  std::vector<std::byte> model_;  // the file's expected contents
  std::uint64_t writes_ = 0;
  kernel::GrantId grant_ = 0;
  bool outstanding_ = false;
  bool seek_ = false;
  bool read_ = false;
  bool setup_waiting_ = false;
  std::int64_t setup_status_ = 0;
  int done_ = 0;
  int failures_ = 0;
  Tick last_reply_ = 0;
};

struct SweepCell {
  int depth = 0;
  Tick ticks = 0;                    // first request to last reply
  std::uint64_t high_water = 0;      // FOM in-flight high-water
  std::uint64_t sync_fallbacks = 0;  // misses served without device latency
  std::uint64_t device_reads = 0;    // reads the device timed
  int failures = 0;                  // replies that did not match a client's model

  [[nodiscard]] double ops_per_ktick() const {
    return static_cast<double>(depth * kSweepOpsPerClient) * 1000.0 / static_cast<double>(ticks);
  }
  /// Mean device reads in flight over the run.
  [[nodiscard]] double reads_in_flight() const {
    return static_cast<double>(device_reads * kSweepReadTicks) / static_cast<double>(ticks);
  }
};

/// One cell of the sweep. Sync fallbacks and device reads count the timed
/// phase only; setup is sequential, so it adds nothing to the high-water.
SweepCell run_sweep(int depth, bool fom) {
  const std::size_t file_blocks =
      static_cast<std::size_t>(depth) * kSweepFileBytes / fs::kBlockSize;
  os::OsConfig cfg;
  cfg.vfs_fom = fom;
  cfg.disk_blocks = 2 * file_blocks + 2048;
  cfg.cache_blocks = file_blocks / 8;
  OsInstance inst(cfg);
  inst.boot();
  Rng root(kSweepSeed);
  std::vector<std::unique_ptr<SweepClient>> clients;
  for (int i = 0; i < depth; ++i) {
    clients.push_back(std::make_unique<SweepClient>(inst, i + 1, root.fork()));
    clients.back()->setup();
  }

  const Tick start = inst.clock().now();
  const std::uint64_t fallbacks0 = inst.vfs().fom_stats()->sync_fallbacks;
  const std::uint64_t reads0 = inst.disk().stats().reads;
  for (auto& c : clients) c->send_next();
  const auto all_finished = [&clients] {
    return std::all_of(clients.begin(), clients.end(),
                       [](const auto& c) { return c->finished(); });
  };
  // Heartbeats keep the clock moving, so a lost reply shows as a run that
  // overshoots every cell's length by orders of magnitude.
  while (!all_finished()) {
    const bool moved = inst.kern().dispatch_pending() || inst.clock().advance_to_next();
    if (!moved || inst.clock().now() - start > 1'000'000) {
      ADD_FAILURE() << "sweep wedged at depth " << depth << (fom ? " (fom)" : " (fiber)");
      break;
    }
  }

  SweepCell cell;
  cell.depth = depth;
  for (const auto& c : clients) {
    cell.ticks = std::max(cell.ticks, c->last_reply() - start);
    cell.failures += c->failures();
  }
  cell.high_water = inst.vfs().fom_stats()->in_flight_high_water;
  cell.sync_fallbacks = inst.vfs().fom_stats()->sync_fallbacks - fallbacks0;
  cell.device_reads = inst.disk().stats().reads - reads0;
  return cell;
}

}  // namespace

TEST(FomExecutor, MissDepthSweepIsExact) {
  FiGuard guard;
  struct Pin {
    int depth;
    bool fom;
    Tick ticks;
    std::uint64_t high_water;
    std::uint64_t sync_fallbacks;
    std::uint64_t device_reads;
  };
  const Pin pins[] = {
      {1, false, 5840, 0, 0, 146},    {1, true, 5840, 1, 0, 146},
      {8, false, 11440, 0, 0, 1134},  {8, true, 6120, 8, 0, 1133},
      {32, false, 45560, 0, 0, 4556}, {32, true, 6240, 30, 0, 4120},
  };
  std::vector<SweepCell> got;
  for (const Pin& p : pins) {
    const SweepCell c = run_sweep(p.depth, p.fom);
    const std::string cell = "depth " + std::to_string(p.depth) + (p.fom ? " fom" : " fiber");
    EXPECT_EQ(c.failures, 0) << cell;
    EXPECT_EQ(c.ticks, p.ticks) << cell;
    EXPECT_EQ(c.high_water, p.high_water) << cell;
    EXPECT_EQ(c.sync_fallbacks, p.sync_fallbacks) << cell;
    EXPECT_EQ(c.device_reads, p.device_reads) << cell;
    got.push_back(c);
  }

  // The shape the pins encode. Depth 1 has nothing to overlap, so the two
  // paths tie.
  EXPECT_EQ(got[0].ticks, got[1].ticks);
  // The fiber path keeps at most kVfsWorkers reads in flight, and from depth
  // 8 on it is saturated there: throughput stays flat up to depth 32.
  const double workers = static_cast<double>(servers::kVfsWorkers);
  for (const SweepCell& fiber : {got[2], got[4]}) {
    EXPECT_LE(fiber.reads_in_flight(), workers) << "depth " << fiber.depth;
    EXPECT_GE(fiber.reads_in_flight(), 0.95 * workers) << "depth " << fiber.depth;
  }
  EXPECT_NEAR(got[4].ops_per_ktick(), got[2].ops_per_ktick(), 0.02 * got[2].ops_per_ktick());
  // The executor parks a request per miss instead, so at depth 32 it
  // outruns the worker ceiling at least fourfold.
  EXPECT_GT(got[5].reads_in_flight(), workers);
  EXPECT_GE(got[5].ops_per_ktick(), 4.0 * got[4].ops_per_ktick());
}

// --- interleaving property harness ------------------------------------------
//
// N clients each run a deterministic script of writes and reads against a
// PRIVATE file (disjoint working sets), generated from a seeded RNG. Run the
// scripts (a) serially in one process — the reference schedule — and (b) as
// concurrent forked processes whose requests park and interleave mid-flight.
// Disjoint files mean every schedule must produce the reference contents.

namespace {

struct ScriptOp {
  enum Kind : std::uint8_t { kWrite, kRead, kStat } kind;
  std::uint32_t off;
  std::uint32_t len;
  std::uint8_t fill;
};

std::vector<ScriptOp> make_script(std::mt19937& rng, std::uint32_t file_bytes) {
  std::uniform_int_distribution<std::uint32_t> off_d(0, file_bytes - 1);
  std::uniform_int_distribution<std::uint32_t> len_d(1, 2048);
  std::uniform_int_distribution<int> kind_d(0, 2);
  std::vector<ScriptOp> ops;
  for (int i = 0; i < 12; ++i) {
    ScriptOp op{};
    op.kind = static_cast<ScriptOp::Kind>(kind_d(rng));
    op.off = off_d(rng);
    op.len = std::min(len_d(rng), file_bytes - op.off);
    op.fill = static_cast<std::uint8_t>(rng() & 0xFF);
    ops.push_back(op);
  }
  return ops;
}

void run_script(ISys& sys, const std::string& path, const std::vector<ScriptOp>& ops) {
  const std::int64_t fd = sys.open(path, servers::O_RDWR);
  if (fd < 0) {
    sys.exit(2);
  }
  for (const ScriptOp& op : ops) {
    if (sys.lseek(fd, op.off, 0) != op.off) sys.exit(3);
    if (op.kind == ScriptOp::kWrite) {
      const std::vector<std::byte> buf(op.len, static_cast<std::byte>(op.fill));
      if (sys.write(fd, std::span<const std::byte>(buf.data(), buf.size())) !=
          static_cast<std::int64_t>(op.len)) {
        sys.exit(4);
      }
    } else if (op.kind == ScriptOp::kRead) {
      std::vector<std::byte> buf(op.len);
      if (sys.read(fd, std::span<std::byte>(buf.data(), buf.size())) < 0) sys.exit(5);
    } else {
      os::StatResult st{};
      if (sys.fstat(fd, &st) != kernel::OK) sys.exit(6);
    }
  }
  sys.close(fd);
}

/// Final contents of every client file after running all scripts under `cfg`.
/// `concurrent` forks one process per client; otherwise one process runs the
/// scripts back to back (the serial reference schedule).
std::vector<std::vector<std::byte>> interleave_run(
    const os::OsConfig& cfg, const std::vector<std::vector<ScriptOp>>& scripts,
    std::uint32_t file_bytes, bool concurrent, servers::FomStats* stats_out = nullptr) {
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::vector<std::vector<std::byte>> contents(scripts.size());
  const auto outcome = inst.run([&](ISys& sys) {
    for (std::size_t c = 0; c < scripts.size(); ++c) {
      write_and_evict(sys, "/tmp/il" + std::to_string(c),
                      pattern(file_bytes, static_cast<std::uint8_t>(c * 31)),
                      "/tmp/il-scratch");
    }
    if (concurrent) {
      std::vector<std::int64_t> pids;
      for (std::size_t c = 0; c < scripts.size(); ++c) {
        const std::int64_t pid = sys.fork([c, &scripts](ISys& child) {
          run_script(child, "/tmp/il" + std::to_string(c), scripts[c]);
          child.exit(0);
        });
        if (pid <= 0) sys.exit(9);
        pids.push_back(pid);
      }
      for (const std::int64_t pid : pids) {
        std::int64_t status = -1;
        if (sys.wait_pid(pid, &status) != pid || status != 0) sys.exit(10);
      }
    } else {
      for (std::size_t c = 0; c < scripts.size(); ++c) {
        run_script(sys, "/tmp/il" + std::to_string(c), scripts[c]);
      }
    }
    for (std::size_t c = 0; c < scripts.size(); ++c) {
      contents[c] = read_back(sys, "/tmp/il" + std::to_string(c), file_bytes);
    }
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  if (stats_out != nullptr) *stats_out = *inst.vfs().fom_stats();
  return contents;
}

}  // namespace

TEST(FomInterleaving, RandomSchedulesMatchSerialReference) {
  FiGuard guard;
  constexpr std::uint32_t kFileBytes = 6 * 1024;
  constexpr std::size_t kClients = 3;
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    std::mt19937 rng(seed);
    std::vector<std::vector<ScriptOp>> scripts;
    for (std::size_t c = 0; c < kClients; ++c) scripts.push_back(make_script(rng, kFileBytes));

    os::OsConfig serial_cfg;
    serial_cfg.cache_blocks = 4;
    const auto reference =
        interleave_run(serial_cfg, scripts, kFileBytes, /*concurrent=*/false);

    os::OsConfig fom_cfg = serial_cfg;
    fom_cfg.vfs_fom = true;
    servers::FomStats stats{};
    const auto interleaved =
        interleave_run(fom_cfg, scripts, kFileBytes, /*concurrent=*/true, &stats);

    EXPECT_EQ(interleaved, reference) << "seed " << seed;
    EXPECT_GT(stats.parks, 0u) << "seed " << seed << ": schedule never interleaved";
    EXPECT_EQ(stats.completed, stats.admitted) << "seed " << seed;

    // The fiber path run concurrently is a second reference: the executor
    // changes scheduling, never filesystem semantics.
    os::OsConfig fiber_cfg = serial_cfg;
    const auto fiber =
        interleave_run(fiber_cfg, scripts, kFileBytes, /*concurrent=*/true);
    EXPECT_EQ(fiber, reference) << "seed " << seed;
  }
}

// --- recovery with live FOMs ------------------------------------------------

TEST(FomRecovery, RollbackWithParkedFomsCompletesEveryRequest) {
  // A fail-stop fault while N requests are parked: rollback recovery restores
  // the checkpoint, the crashed request is error-virtualized, and — the
  // epoch-occupancy invariant made real — every parked FOM still completes
  // from its queued disk completion.
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  constexpr int kClients = 3;
  const std::size_t kBytes = 6 * 1024;
  const auto workload = [&](ISys& sys) {
    for (int c = 0; c < kClients; ++c) {
      write_and_evict(sys, "/tmp/fr" + std::to_string(c),
                      pattern(kBytes, static_cast<std::uint8_t>(c + 1)), "/tmp/fr-scratch");
    }
    std::vector<std::int64_t> pids;
    for (int c = 0; c < kClients; ++c) {
      const std::int64_t pid = sys.fork([c, kBytes](ISys& child) {
        // Tolerate one E_CRASH (the error-virtualized request) and retry.
        for (int attempt = 0; attempt < 3; ++attempt) {
          const std::vector<std::byte> got =
              read_back(child, "/tmp/fr" + std::to_string(c), kBytes);
          if (got == pattern(kBytes, static_cast<std::uint8_t>(c + 1))) child.exit(0);
        }
        child.exit(1);
      });
      if (pid <= 0) sys.exit(9);
      pids.push_back(pid);
    }
    for (const std::int64_t pid : pids) {
      std::int64_t status = -1;
      if (sys.wait_pid(pid, &status) != pid || status != 0) sys.exit(10);
    }
  };
  fi::Site* site = busiest_site("vfs", cfg, workload);
  ASSERT_NE(site, nullptr);
  ASSERT_GT(site->hits(), 3u);
  const std::uint64_t mid_run = site->hits() / 2;

  fi::Registry::instance().reset_counts();
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  // Fire mid-run: by then the concurrent readers keep several FOMs in flight.
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, mid_run);
  const auto outcome = inst.run(workload);
  if (outcome != OsInstance::Outcome::kCompleted) {
    // The chosen site can land outside the window (post-mutation); that arm
    // is covered by OutOfWindowCrashShutsDownConsistently. Here we only
    // accept the controlled form.
    EXPECT_EQ(outcome, OsInstance::Outcome::kShutdown);
    return;
  }
  EXPECT_EQ(inst.engine().recoveries_of(kernel::kVfsEp), 1u);
  EXPECT_EQ(inst.engine().stats().rollbacks, 1u);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  // The crashed request was dropped (≤1 abort); everything else completed.
  EXPECT_LE(fs.aborts, 1u);
  EXPECT_EQ(fs.completed + fs.aborts, fs.admitted);
  EXPECT_EQ(inst.vfs().fom_core().in_flight(), 0u);
}

TEST(FomRecovery, ResumedAttemptCrashIsReconciledByExecutor) {
  // A crash during a RESUMED attempt arrives via the disk-completion notify,
  // which the engine cannot answer — without the executor's self-
  // reconciliation this arc was a controlled shutdown. Now the executor
  // sends E_CRASH to the parked request's real requester and the system
  // keeps running.
  //
  // Aiming the fault: arm *mid-run* (the body shares the registry's thread)
  // just before a guaranteed-cold read, two hits past the live counter of an
  // in-attempt site. Hit +1 is the read's initial attempt — it parks on the
  // miss — and hit +2 is the first resumed attempt. The executor's own
  // admission probe shares the calibration signature but is never re-hit on
  // resume; sweeping the candidates finds the true per-attempt site (a
  // no-fire candidate just completes cleanly).
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  const std::size_t kBytes = 6 * 1024;
  const std::vector<fi::Site*> candidates = attempt_sites(cfg);
  ASSERT_FALSE(candidates.empty());

  bool reconciled = false;
  for (fi::Site* site : candidates) {
    if (reconciled) break;
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    std::int64_t read_ret = 0;
    bool ok = false;
    const auto outcome = inst.run([&](ISys& sys) {
      write_and_evict(sys, "/tmp/rc", pattern(kBytes, 5), "/tmp/rc-scratch");
      const std::int64_t fd = sys.open("/tmp/rc", servers::O_RDONLY);
      if (fd < 0) {
        read_ret = fd;
        return;
      }
      fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, site->hits() + 2);
      std::vector<std::byte> buf(kBytes);
      read_ret = sys.read(fd, std::span<std::byte>(buf.data(), buf.size()));
      ok = read_ret == static_cast<std::int64_t>(kBytes) && buf == pattern(kBytes, 5);
      sys.close(fd);
    });
    if (outcome != OsInstance::Outcome::kCompleted) continue;
    if (inst.engine().stats().fom_reconciles > 0) {
      reconciled = true;
      // The requester observed plain error virtualization: E_CRASH, not a hang.
      EXPECT_EQ(read_ret, kernel::E_CRASH);
      EXPECT_FALSE(ok);
      EXPECT_EQ(inst.engine().stats().rollbacks, 1u);
      EXPECT_EQ(inst.vfs().fom_stats()->aborts, 1u);
      EXPECT_EQ(inst.vfs().fom_core().in_flight(), 0u);
    } else if (inst.engine().stats().crashes_seen > 0 && !ok) {
      // Fault fired in the initial attempt instead: ordinary reconciliation.
      EXPECT_EQ(read_ret, kernel::E_CRASH);
    }
  }
  EXPECT_TRUE(reconciled) << "no candidate site landed the fault inside a resumed attempt";
}

TEST(FomRecovery, QuarantineWithLiveFomsAbortsThemAndSystemSurvives) {
  // Persistent VFS fault under concurrent cold readers: the ladder climbs to
  // quarantine while requests are parked mid-flight. Live FOMs of every
  // boot-image restart are aborted with E_CRASH (no requester may hang on a
  // request the reborn server never heard of), and the machine completes.
  FiGuard guard;
  os::OsConfig cfg;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  cfg.ladder.backoff_base_ticks = 50;
  cfg.ladder.quarantine_cooldown_ticks = 1000000;  // parked to the end
  constexpr int kClients = 3;
  const std::size_t kBytes = 6 * 1024;
  // Target an in-attempt site: a dispatch-entry probe would also crash the
  // PM fork/exit bookkeeping messages, killing the clients before a single
  // read runs. The in-attempt probes fire only for worker-path operations.
  const std::vector<fi::Site*> candidates = attempt_sites(cfg);
  ASSERT_FALSE(candidates.empty());
  fi::Site* site = candidates.front();

  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  int failures = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    for (int c = 0; c < kClients; ++c) {
      write_and_evict(sys, "/tmp/q" + std::to_string(c),
                      pattern(kBytes, static_cast<std::uint8_t>(c)), "/tmp/q-scratch");
    }
    std::vector<std::int64_t> pids;
    for (int c = 0; c < kClients; ++c) {
      const std::int64_t pid = sys.fork([c, kBytes](ISys& child) {
        // Enough iterations to carry the virtual clock through the rung-1
        // backoff parks: readmission must happen (and re-crash) twice before
        // the ladder gives up on microreboots and quarantines.
        int errors = 0;
        for (int i = 0; i < 100; ++i) {
          const std::vector<std::byte> got =
              read_back(child, "/tmp/q" + std::to_string(c), kBytes);
          if (got.size() != kBytes) ++errors;
        }
        child.exit(errors);
      });
      if (pid <= 0) sys.exit(99);
      pids.push_back(pid);
    }
    // Arm mid-run, once the forks are done (the body shares the registry's
    // thread, so the live counter aims the trigger exactly): hit +1 is the
    // first reader attempt — cold, so it parks — and from +2 on every
    // attempt crashes, with parked FOMs live across the ladder's climb.
    fi::Registry::instance().arm_persistent(site, fi::FaultType::kNullDeref,
                                            site->hits() + 2);
    for (const std::int64_t pid : pids) {
      std::int64_t status = -1;
      sys.wait_pid(pid, &status);
      failures += static_cast<int>(status);
    }
  });
  // Degraded, never wedged: every reader ran its loop to completion.
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GT(failures, 0);  // the fault really did take VFS down
  const auto& stats = inst.engine().stats();
  EXPECT_GE(stats.recurring_crashes, 1u);
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_TRUE(inst.engine().is_parked(kernel::kVfsEp));
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  // Live FOMs really were aborted — and none leaked: every admitted request
  // either completed or was aborted (boot-image restarts answer parked
  // requesters with E_CRASH).
  EXPECT_GT(fs.aborts, 0u);
  EXPECT_EQ(fs.completed + fs.aborts, fs.admitted);
  EXPECT_EQ(inst.vfs().fom_core().in_flight(), 0u);
}

// --- composition matrix: health monitor x FOM executor -----------------------
//
// Every combination of the health monitor and the FOM executor runs the full
// suite and the three-reader cold-read scenario, each on a fresh machine
// with a cache small enough that the FOM cells really park. The monitor runs
// exactly on machines with recovery, so a health-off cell is a recovery-off
// machine. No storm is armed, so any fever in a health-on cell is a false
// positive.

namespace {

struct CellRun {
  workload::SuiteResult suite;
  OsInstance::Outcome cold = OsInstance::Outcome::kCompleted;
  servers::FomStats fom;          // summed over both machines
  std::uint64_t health_charges = 0;
  std::uint64_t fever_onsets = 0;
  std::uint64_t throttled_drops = 0;
  std::string trace;  // both machines' merged text traces; empty unless traced
};

/// Boot one machine of the cell, run `drive` on it, and fold its counters
/// into `r`.
template <typename Drive>
void run_machine(bool health, bool fom, bool traced, CellRun& r, Drive drive) {
  fi::Registry::instance().reset_counts();
  os::OsConfig cfg;
  cfg.recovery_enabled = health;
  cfg.vfs_fom = fom;
  cfg.cache_blocks = 4;
  cfg.trace_enabled = traced;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  drive(inst);
  const servers::FomStats& fs = *inst.vfs().fom_stats();
  r.fom.admitted += fs.admitted;
  r.fom.completed += fs.completed;
  r.fom.parks += fs.parks;
  r.fom.resumes += fs.resumes;
  r.health_charges += inst.kern().stats().health_charges;
  r.fever_onsets += inst.kern().stats().fever_onsets;
  r.throttled_drops += inst.kern().stats().throttled_drops;
#if OSIRIS_TRACE_ENABLED
  if (const trace::Tracer* t = inst.tracer()) r.trace += trace::format_text(t->merged(), *t);
#endif
}

CellRun run_cell(bool health, bool fom, bool traced) {
  CellRun r;
  run_machine(health, fom, traced, r,
              [&r](OsInstance& inst) { r.suite = workload::run_suite(inst); });
  run_machine(health, fom, traced, r,
              [&r](OsInstance& inst) { r.cold = inst.run(concurrent_cold_reads); });
  return r;
}

}  // namespace

class HealthFomMatrixP : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(HealthFomMatrixP, SuiteAndColdReadsComplete) {
  FiGuard guard;
  const auto [health, fom] = GetParam();
  const CellRun r = run_cell(health, fom, /*traced=*/false);
  EXPECT_EQ(r.suite.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(r.suite.driver_completed);
  EXPECT_EQ(r.suite.failed, 0) << (r.suite.failures.empty() ? "" : r.suite.failures.front());
  EXPECT_EQ(r.cold, OsInstance::Outcome::kCompleted);
  if (fom) {
    EXPECT_GT(r.fom.parks, 0u);
    EXPECT_EQ(r.fom.resumes, r.fom.parks);
    EXPECT_EQ(r.fom.completed, r.fom.admitted);
  }
  if (health) {
    EXPECT_GT(r.health_charges, 0u) << "the monitor never sampled";
  } else {
    EXPECT_EQ(r.health_charges, 0u) << "a machine without recovery sampled";
  }
  EXPECT_EQ(r.fever_onsets, 0u);
  EXPECT_EQ(r.throttled_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Compose, HealthFomMatrixP, ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "health_on" : "health_off") +
             (std::get<1>(info.param) ? "_fom_on" : "_fom_off");
    });

#if OSIRIS_TRACE_ENABLED
TEST(HealthFomMatrix, TracedCellIsByteIdentical) {
  // The corner cell, traced twice: both extensions on must keep the
  // determinism contract the goldens rely on.
  FiGuard guard;
  const CellRun a = run_cell(/*health=*/true, /*fom=*/true, /*traced=*/true);
  const CellRun b = run_cell(/*health=*/true, /*fom=*/true, /*traced=*/true);
  ASSERT_NE(a.trace.find("FomPark"), std::string::npos);
  EXPECT_EQ(a.trace, b.trace);
}
#endif  // OSIRIS_TRACE_ENABLED
