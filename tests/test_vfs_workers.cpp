// VFS worker-fiber tests: requests that touch the disk run on kVfsWorkers
// cooperative fibers, and a cache miss yields the worker until the device
// completion resumes it (paper SIV-E).
//
// The depth sweep pins the miss regime exactly in virtual time: at most
// kVfsWorkers disk reads overlap, however many clients wait. The
// interleaving harness checks that concurrent fibers leave the filesystem in
// the state the serial schedule produces, and the health matrix runs the
// suite and concurrent cold reads with and without the health monitor
// (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "os/instance.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"
#include "workload/suite.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/export.hpp"
#endif

using namespace osiris;
using os::ISys;
using os::OsInstance;

namespace {

std::int64_t write_all(ISys& sys, std::int64_t fd, const std::vector<std::byte>& data) {
  return sys.write(fd, std::span<const std::byte>(data.data(), data.size()));
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
/// concurrently: with 4 cache blocks several workers wait on the disk at once.
void concurrent_cold_reads(ISys& sys) {
  constexpr int kClients = 3;
  constexpr std::size_t kBytes = 6 * 1024;
  for (int c = 0; c < kClients; ++c) {
    write_and_evict(sys, "/tmp/cold" + std::to_string(c),
                    pattern(kBytes, static_cast<std::uint8_t>(c)), "/tmp/cold-scratch");
  }
  std::vector<std::int64_t> pids;
  for (int c = 0; c < kClients; ++c) {
    const std::int64_t pid = sys.fork([c](ISys& child) {
      const std::vector<std::byte> got =
          read_back(child, "/tmp/cold" + std::to_string(c), kBytes);
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

// --- miss-regime depth sweep -------------------------------------------------
//
// `depth` raw kernel clients (no fibers) each own a 64 KiB file, written at
// setup, and stream single-block reads and writes over it (70/30, seeded) in
// a closed loop with zero think time. The block cache holds an eighth of the
// working set, so nearly every read waits out the device's 40-tick latency,
// and the worker fibers overlap at most kVfsWorkers of those waits. Each
// client runs its own op count. Everything is virtual time, so every figure
// is pinned exactly.

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
  Tick ticks = 0;                  // first request to last reply
  std::uint64_t device_reads = 0;  // reads the device timed
  int failures = 0;                // replies that did not match a client's model

  [[nodiscard]] double ops_per_ktick() const {
    return static_cast<double>(depth * kSweepOpsPerClient) * 1000.0 / static_cast<double>(ticks);
  }
  /// Mean device reads in flight over the run.
  [[nodiscard]] double reads_in_flight() const {
    return static_cast<double>(device_reads * kSweepReadTicks) / static_cast<double>(ticks);
  }
};

/// One cell of the sweep. Device reads count the timed phase only.
SweepCell run_sweep(int depth) {
  const std::size_t file_blocks =
      static_cast<std::size_t>(depth) * kSweepFileBytes / fs::kBlockSize;
  os::OsConfig cfg;
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
      ADD_FAILURE() << "sweep wedged at depth " << depth;
      break;
    }
  }

  SweepCell cell;
  cell.depth = depth;
  for (const auto& c : clients) {
    cell.ticks = std::max(cell.ticks, c->last_reply() - start);
    cell.failures += c->failures();
  }
  cell.device_reads = inst.disk().stats().reads - reads0;
  return cell;
}

}  // namespace

TEST(VfsWorkers, MissDepthSweepIsExact) {
  struct Pin {
    int depth;
    Tick ticks;
    std::uint64_t device_reads;
  };
  const Pin pins[] = {{1, 5840, 146}, {8, 11440, 1134}, {32, 45560, 4556}};
  std::vector<SweepCell> got;
  for (const Pin& p : pins) {
    const SweepCell c = run_sweep(p.depth);
    const std::string cell = "depth " + std::to_string(p.depth);
    EXPECT_EQ(c.failures, 0) << cell;
    EXPECT_EQ(c.ticks, p.ticks) << cell;
    EXPECT_EQ(c.device_reads, p.device_reads) << cell;
    got.push_back(c);
  }

  // The shape the pins encode: the workers keep at most kVfsWorkers reads in
  // flight, and from depth 8 on they are saturated there, so throughput
  // stays flat up to depth 32.
  const double workers = static_cast<double>(servers::kVfsWorkers);
  for (const SweepCell& c : {got[1], got[2]}) {
    EXPECT_LE(c.reads_in_flight(), workers) << "depth " << c.depth;
    EXPECT_GE(c.reads_in_flight(), 0.95 * workers) << "depth " << c.depth;
  }
  EXPECT_NEAR(got[2].ops_per_ktick(), got[1].ops_per_ktick(), 0.02 * got[1].ops_per_ktick());
}

// --- interleaving property harness ------------------------------------------
//
// N clients each run a deterministic script of writes and reads against a
// PRIVATE file (disjoint working sets), generated from a seeded RNG. Run the
// scripts (a) serially in one process — the reference schedule — and (b) as
// concurrent forked processes whose requests yield on the disk and
// interleave. Disjoint files mean every schedule must produce the reference
// contents.

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
    std::uint32_t file_bytes, bool concurrent) {
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
  return contents;
}

}  // namespace

TEST(VfsWorkers, ConcurrentSchedulesMatchSerialReference) {
  constexpr std::uint32_t kFileBytes = 6 * 1024;
  constexpr std::size_t kClients = 3;
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    std::mt19937 rng(seed);
    std::vector<std::vector<ScriptOp>> scripts;
    for (std::size_t c = 0; c < kClients; ++c) scripts.push_back(make_script(rng, kFileBytes));

    os::OsConfig cfg;
    cfg.cache_blocks = 4;
    const auto reference = interleave_run(cfg, scripts, kFileBytes, /*concurrent=*/false);
    const auto concurrent = interleave_run(cfg, scripts, kFileBytes, /*concurrent=*/true);
    EXPECT_EQ(concurrent, reference) << "seed " << seed;
  }
}

// --- composition matrix: health monitor x worker fibers ----------------------
//
// With and without the health monitor, the full suite and the three-reader
// cold-read scenario each run on a fresh machine whose cache is small enough
// that the workers really wait on the disk. The monitor runs exactly on
// machines with recovery, so a health-off cell is a recovery-off machine. No
// storm is armed, so any fever in the health-on cell is a false positive.

namespace {

struct CellRun {
  workload::SuiteResult suite;
  OsInstance::Outcome cold = OsInstance::Outcome::kCompleted;
  std::uint64_t vfs_yields = 0;  // VFS windows closed by a worker's disk wait
  std::uint64_t health_charges = 0;
  std::uint64_t fever_onsets = 0;
  std::uint64_t throttled_drops = 0;
  std::string trace;  // both machines' merged text traces; empty unless traced
};

/// Boot one machine of the cell, run `drive` on it, and fold its counters
/// into `r`.
template <typename Drive>
void run_machine(bool health, bool traced, CellRun& r, Drive drive) {
  os::OsConfig cfg;
  cfg.recovery_enabled = health;
  cfg.cache_blocks = 4;
  cfg.trace_enabled = traced;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  drive(inst);
  r.vfs_yields += inst.vfs().window().stats().closed_by_yield;
  r.health_charges += inst.kern().stats().health_charges;
  r.fever_onsets += inst.kern().stats().fever_onsets;
  r.throttled_drops += inst.kern().stats().throttled_drops;
#if OSIRIS_TRACE_ENABLED
  if (const trace::Tracer* t = inst.tracer()) r.trace += trace::format_text(t->merged(), *t);
#endif
}

CellRun run_cell(bool health, bool traced) {
  CellRun r;
  run_machine(health, traced, r,
              [&r](OsInstance& inst) { r.suite = workload::run_suite(inst); });
  run_machine(health, traced, r,
              [&r](OsInstance& inst) { r.cold = inst.run(concurrent_cold_reads); });
  return r;
}

}  // namespace

class HealthMatrixP : public ::testing::TestWithParam<bool> {};

TEST_P(HealthMatrixP, SuiteAndColdReadsComplete) {
  const bool health = GetParam();
  const CellRun r = run_cell(health, /*traced=*/false);
  EXPECT_EQ(r.suite.outcome, OsInstance::Outcome::kCompleted);
  EXPECT_TRUE(r.suite.driver_completed);
  EXPECT_EQ(r.suite.failed, 0) << (r.suite.failures.empty() ? "" : r.suite.failures.front());
  EXPECT_EQ(r.cold, OsInstance::Outcome::kCompleted);
  EXPECT_GT(r.vfs_yields, 0u) << "no worker ever waited on the disk";
  if (health) {
    EXPECT_GT(r.health_charges, 0u) << "the monitor never sampled";
  } else {
    EXPECT_EQ(r.health_charges, 0u) << "a machine without recovery sampled";
  }
  EXPECT_EQ(r.fever_onsets, 0u);
  EXPECT_EQ(r.throttled_drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Compose, HealthMatrixP, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "health_on" : "health_off");
                         });

#if OSIRIS_TRACE_ENABLED
TEST(HealthMatrix, TracedCellIsByteIdentical) {
  // The health-on cell, traced twice: the monitor and the workers' disk
  // waits together must keep the determinism contract the goldens rely on.
  const CellRun a = run_cell(/*health=*/true, /*traced=*/true);
  const CellRun b = run_cell(/*health=*/true, /*traced=*/true);
  ASSERT_GT(a.vfs_yields, 0u);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}
#endif  // OSIRIS_TRACE_ENABLED

// --- a completed miss never overwrites a newer cached copy -------------------
//
// Two raw kernel clients share one file whose data block is cold. At the same
// tick, A reads the block (its worker misses and waits on the disk) and B
// overwrites the whole block (a full-block write needs no read, so B's
// worker dirties the cached block at once). When A's read lands, the fetched
// copy is older than the cached one and must not replace it: a later read
// must see B's data.

namespace {

class RawClient final : public kernel::IClient {
 public:
  RawClient(OsInstance& inst, std::int32_t pid) : inst_(inst) {
    ep_ = inst_.kern().register_client(this);
    inst_.pm().register_boot_proc(pid, ep_, "raw");
    inst_.vm().register_boot_proc(pid);
    inst_.vfs().register_boot_proc(pid, ep_);
    inst_.sys_task().register_boot_proc(pid);
  }

  void send(const kernel::Message& m) {
    replied_ = false;
    inst_.kern().send(ep_, kernel::kVfsEp, m);
  }

  /// Send `m` and run the machine until its reply arrives.
  std::int64_t call(const kernel::Message& m) {
    send(m);
    while (!replied_) {
      if (!inst_.kern().dispatch_pending() && !inst_.clock().advance_to_next()) {
        ADD_FAILURE() << "request wedged";
        return -1;
      }
    }
    return status_;
  }

  /// A VFS_READ or VFS_WRITE of `buf` at `fd`'s cursor, through a fresh grant
  /// that the reply revokes.
  kernel::Message io(std::uint32_t type, std::int64_t fd, std::vector<std::byte>& buf) {
    grant_ = inst_.kern().make_grant(
        ep_, kernel::kVfsEp, buf.data(), buf.size(),
        type == servers::VFS_READ ? kernel::Access::kWrite : kernel::Access::kRead);
    return servers::encode(type, static_cast<std::uint64_t>(fd), grant_, buf.size());
  }

  void on_reply(const kernel::Message& r) override {
    replied_ = true;
    status_ = r.sarg(0);
    if (grant_ != 0) inst_.kern().revoke_grant(grant_);
    grant_ = 0;
  }
  void on_notify(const kernel::Message&) override {}

  [[nodiscard]] bool replied() const noexcept { return replied_; }

 private:
  OsInstance& inst_;
  kernel::Endpoint ep_{};
  kernel::GrantId grant_ = 0;
  bool replied_ = true;
  std::int64_t status_ = 0;
};

kernel::Message seek0(std::int64_t fd) {
  return servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd), 0, 0);
}

}  // namespace

TEST(VfsWorkers, CompletedMissKeepsBlockDirtiedDuringTheWait) {
  os::OsConfig cfg;
  cfg.cache_blocks = 8;
  OsInstance inst(cfg);
  inst.boot();
  RawClient a(inst, 1);
  RawClient b(inst, 2);
  const std::vector<std::byte> before(fs::kBlockSize, std::byte{0x11});
  const std::vector<std::byte> after(fs::kBlockSize, std::byte{0x22});
  std::vector<std::byte> buf = before;

  const std::int64_t fa = a.call(servers::encode_text(
      servers::VFS_OPEN, "/tmp/stale", servers::O_CREAT | servers::O_RDWR));
  ASSERT_GE(fa, 0);
  ASSERT_EQ(a.call(a.io(servers::VFS_WRITE, fa, buf)), static_cast<std::int64_t>(buf.size()));
  const std::int64_t fb =
      b.call(servers::encode_text(servers::VFS_OPEN, "/tmp/stale", servers::O_RDWR));
  ASSERT_GE(fb, 0);
  // Push the data block out of the cache: write it back, then stream a
  // scratch file twice the cache's size through it.
  ASSERT_EQ(a.call(servers::encode(servers::VFS_SYNC)), kernel::OK);
  const std::int64_t fs = a.call(servers::encode_text(
      servers::VFS_OPEN, "/tmp/stale-scratch", servers::O_CREAT | servers::O_RDWR));
  ASSERT_GE(fs, 0);
  for (std::size_t i = 0; i < 2 * cfg.cache_blocks; ++i) {
    ASSERT_EQ(a.call(a.io(servers::VFS_WRITE, fs, buf)), static_cast<std::int64_t>(buf.size()));
  }
  // Warm the file's inode again, so that only the data block is cold (fstat
  // answers with the file size).
  ASSERT_EQ(b.call(servers::encode(servers::VFS_FSTAT, static_cast<std::uint64_t>(fb))),
            static_cast<std::int64_t>(fs::kBlockSize));
  ASSERT_EQ(a.call(seek0(fa)), 0);
  const std::uint64_t reads0 = inst.disk().stats().reads;

  std::vector<std::byte> got(fs::kBlockSize);
  std::vector<std::byte> update = after;
  a.send(a.io(servers::VFS_READ, fa, got));
  b.send(b.io(servers::VFS_WRITE, fb, update));
  while (!a.replied() || !b.replied()) {
    ASSERT_TRUE(inst.kern().dispatch_pending() || inst.clock().advance_to_next());
  }
  ASSERT_EQ(inst.disk().stats().reads - reads0, 1u) << "A's read must have missed";

  ASSERT_EQ(b.call(seek0(fb)), 0);
  std::vector<std::byte> reread(fs::kBlockSize);
  ASSERT_EQ(b.call(b.io(servers::VFS_READ, fb, reread)),
            static_cast<std::int64_t>(reread.size()));
  EXPECT_EQ(reread, after) << "the completed miss replaced B's write in the cache";
}
