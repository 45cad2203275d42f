// proc-faulted: fiber user processes under OsInstance::run, with fail-stop
// faults injected inside open recovery windows (the paper's Fig. 3 setting).
//
// Init runs a fixed script of unixbench-style bodies for a fixed number of
// rounds: a getpid/getuid loop, fork+exit+wait, fork+exec+wait, pipe
// ping-pong with a child, a 1 KiB file write and read-back plus a DS
// publish/retrieve, and an 8-way shell fan-out. Every process reaches the
// system through TimedSys, an ISys decorator that times each syscall (one
// op), tracks user/system mode for the ledger, and, after each reply, models
// an exponential virtual think time (mean 6 ticks) by spinning the virtual
// clock. Syscalls answered E_CRASH are retried, so a work unit completes
// unless the system really lost it.
//
// Faults rotate over PM, VFS and DS: the next component's busiest probe site
// is armed with fi::Registry::arm_periodic_window_crash only once the clock
// is kFaultGapTicks past the previous crash, which keeps every component's
// crashes far enough apart for the ladder to classify each one transient.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>

#include "bench.hpp"
#include "fi/registry.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace osiris;
using os::ISys;
using os::StatResult;

constexpr int kWarmupRounds = 2;
constexpr int kRounds = 300;
constexpr int kFiles = 8;
constexpr int kFanout = 8;
constexpr int kPingPongs = 16;
constexpr int kRetries = 64;
constexpr double kThinkMeanTicks = 6.0;
/// Virtual ticks from one crash to arming the next fault. Faults rotate over
/// three components, so one component's crashes are >= 3x this apart; the
/// default ladder calls a crash recurring at 3 crashes inside 2000 ticks.
constexpr Tick kFaultGapTicks = 400;
/// A run must inject at least this many faults.
constexpr std::uint64_t kMinFaults = 100;

std::array<fi::Site*, 3> g_sites{};  // PM, VFS, DS request-loop probes

/// Shared state of one repetition (all processes run on one host thread).
struct Ctx {
  Ctx(os::OsInstance& i, Ledger& l, Rep& r, std::uint64_t seed)
      : inst(i), ledger(l), rep(r), rng(seed) {}

  os::OsInstance& inst;
  Ledger& ledger;
  Rep& rep;
  Rng rng;
  bool recording = false;
  bool faults_on = false;
  bool armed = false;
  Tick next_arm = 0;
  std::uint64_t rotation = 0;
  std::uint64_t req = 0;
  std::uint64_t inflight = 0;
  std::uint64_t ecrash = 0;
  std::uint64_t op_failures = 0;
  std::uint64_t procs = 0;
  std::map<std::int32_t, Tick> crashed_at;  // component -> crash tick, until it answers
  std::vector<Tick> disruption;
  std::vector<double> inflight_at_crash;
  std::uint64_t timed_start_ns = 0;
  std::uint64_t timed_end_ns = 0;
  StatsSnap start, end;
  // The benchmark's model of the state its scripts leave behind.
  std::array<std::vector<std::byte>, kFiles> files;
  std::array<std::uint64_t, kFiles> ds_vals{};

  void maybe_arm() {
    if (!faults_on || armed || inst.clock().now() < next_arm) return;
    fi::Site* s = g_sites[rotation % g_sites.size()];
    fi::Registry::instance().arm_periodic_window_crash(s, s->hits() + 1 + rng.below(4));
    armed = true;
  }

  void on_crash(const kernel::CrashContext& ctx) {
    fi::Registry::instance().disarm();
    armed = false;
    ++rotation;
    next_arm = inst.clock().now() + kFaultGapTicks;
    crashed_at[ctx.crashed.value] = inst.clock().now();
    inflight_at_crash.push_back(static_cast<double>(inflight));
  }

  void stop_faults() {
    faults_on = false;
    if (armed) fi::Registry::instance().disarm();
    armed = false;
  }

  void think() {
    inst.clock().spin(static_cast<Tick>(-std::log(1.0 - rng.uniform()) * kThinkMeanTicks + 0.5));
  }

  void record(OpKind k, kernel::Endpoint target, std::uint64_t id, std::uint64_t t0,
              std::uint64_t t1, Tick v0, Tick v1, std::int64_t r) {
    rep.lat_ns.push_back(t1 - t0);
    rep.op_kind.push_back(static_cast<std::uint8_t>(k));
    rep.vlat.push_back(v1 - v0);
    fnv(rep.fingerprint, (v1 - v0) * 64 + static_cast<std::uint64_t>(k));
    fnv(rep.fingerprint, static_cast<std::uint64_t>(r));
    ledger.op_span(t0, t1 - t0, k, target.value, id);
    if (r == kernel::E_CRASH) ++ecrash;
    if (r < 0) {
      ++op_failures;
      return;
    }
    if (auto it = crashed_at.find(target.value); it != crashed_at.end()) {
      disruption.push_back(v1 - it->second);
      crashed_at.erase(it);
    }
  }

  void unit(const char* what, bool ok) {
    if (!recording) return;
    ++rep.attempted;
    if (!ok) fail_check(rep, std::string("work unit did not complete: ") + what);
  }
};

/// Reissue a syscall the system answered with a recovery error: E_CRASH
/// from the crashed component itself, or E_AGAIN from a server whose nested
/// call into it was error-virtualized (PM's fork fan-out into VM and VFS).
template <class F>
std::int64_t retry(F&& f) {
  std::int64_t r = kernel::E_CRASH;
  for (int i = 0; i < kRetries && (r == kernel::E_CRASH || r == kernel::E_AGAIN); ++i) r = f();
  return r;
}

/// The ISys every benchmark process sees: times each syscall from the
/// outside and forwards it unchanged.
class TimedSys final : public ISys {
 public:
  TimedSys(Ctx& c, ISys& in, std::set<std::int64_t> pipe_fds = {})
      : c_(c), in_(in), pipe_fds_(std::move(pipe_fds)) {}

  std::int64_t fork(ProcBody body) override {
    Ctx* c = &c_;
    return op(OpKind::kFork, kernel::kPmEp, [&] {
      return in_.fork([c, pipes = pipe_fds_, body = std::move(body)](ISys& child) {
        TimedSys t(*c, child, pipes);
        c->ledger.switch_to(Layer::kGen);
        if (c->recording) ++c->procs;
        body(t);
        c->ledger.switch_to(Layer::kSystem);
      });
    });
  }
  std::int64_t exec(std::string_view path) override {
    c_.ledger.switch_to(Layer::kSystem);
    const std::int64_t r = in_.exec(path);
    c_.ledger.switch_to(Layer::kGen);
    return r;
  }
  [[noreturn]] void exit(std::int64_t status) override {
    c_.ledger.switch_to(Layer::kSystem);
    in_.exit(status);
    std::abort();  // ISys::exit never returns
  }
  std::int64_t wait_pid(std::int64_t pid, std::int64_t* status) override {
    return op(OpKind::kOtherPm, kernel::kPmEp, [&] { return in_.wait_pid(pid, status); });
  }
  std::int64_t getpid() override {
    return op(OpKind::kGetpid, kernel::kPmEp, [&] { return in_.getpid(); });
  }
  std::int64_t getppid() override { return pm([&] { return in_.getppid(); }); }
  std::int64_t kill(std::int64_t pid, std::uint64_t sig) override {
    return pm([&] { return in_.kill(pid, sig); });
  }
  std::int64_t sigaction(std::uint64_t sig, bool handle) override {
    return pm([&] { return in_.sigaction(sig, handle); });
  }
  std::int64_t sigpending(std::uint64_t* mask) override { return pm([&] { return in_.sigpending(mask); }); }
  std::int64_t procstat(std::int64_t pid) override { return pm([&] { return in_.procstat(pid); }); }
  std::int64_t getuid() override { return pm([&] { return in_.getuid(); }); }
  std::int64_t setuid(std::uint64_t uid) override { return pm([&] { return in_.setuid(uid); }); }
  std::int64_t brk(std::uint64_t addr) override { return pm([&] { return in_.brk(addr); }); }
  std::int64_t mmap(std::uint64_t length) override {
    return op(OpKind::kOtherPm, kernel::kVmEp, [&] { return in_.mmap(length); });
  }
  std::int64_t munmap(std::int64_t region) override {
    return op(OpKind::kOtherPm, kernel::kVmEp, [&] { return in_.munmap(region); });
  }
  std::int64_t getmeminfo(std::uint64_t* free_pages, std::uint64_t* total_pages) override {
    return pm([&] { return in_.getmeminfo(free_pages, total_pages); });
  }

  std::int64_t open(std::string_view path, std::uint64_t flags) override {
    return vfs([&] { return in_.open(path, flags); });
  }
  std::int64_t close(std::int64_t fd) override {
    const std::int64_t r = vfs([&] { return in_.close(fd); });
    if (r == kernel::OK) pipe_fds_.erase(fd);
    return r;
  }
  std::int64_t read(std::int64_t fd, std::span<std::byte> buf) override {
    return op(pipe_fds_.contains(fd) ? OpKind::kPipe : OpKind::kRead, kernel::kVfsEp,
              [&] { return in_.read(fd, buf); });
  }
  std::int64_t write(std::int64_t fd, std::span<const std::byte> buf) override {
    return op(pipe_fds_.contains(fd) ? OpKind::kPipe : OpKind::kWrite, kernel::kVfsEp,
              [&] { return in_.write(fd, buf); });
  }
  std::int64_t lseek(std::int64_t fd, std::int64_t offset, int whence) override {
    return op(OpKind::kSeek, kernel::kVfsEp, [&] { return in_.lseek(fd, offset, whence); });
  }
  std::int64_t stat(std::string_view path, StatResult* out) override {
    return op(OpKind::kStat, kernel::kVfsEp, [&] { return in_.stat(path, out); });
  }
  std::int64_t fstat(std::int64_t fd, StatResult* out) override {
    return op(OpKind::kStat, kernel::kVfsEp, [&] { return in_.fstat(fd, out); });
  }
  std::int64_t unlink(std::string_view path) override { return vfs([&] { return in_.unlink(path); }); }
  std::int64_t mkdir(std::string_view path) override { return vfs([&] { return in_.mkdir(path); }); }
  std::int64_t rmdir(std::string_view path) override { return vfs([&] { return in_.rmdir(path); }); }
  std::int64_t rename(std::string_view path, std::string_view new_leaf) override {
    return vfs([&] { return in_.rename(path, new_leaf); });
  }
  std::int64_t readdir(std::string_view path, std::uint64_t index, std::string* name) override {
    return vfs([&] { return in_.readdir(path, index, name); });
  }
  std::int64_t pipe(std::int64_t fds[2]) override {
    const std::int64_t r = op(OpKind::kPipe, kernel::kVfsEp, [&] { return in_.pipe(fds); });
    if (r == kernel::OK) pipe_fds_.insert({fds[0], fds[1]});
    return r;
  }
  std::int64_t dup(std::int64_t fd) override { return vfs([&] { return in_.dup(fd); }); }
  std::int64_t truncate(std::string_view path, std::uint64_t size) override {
    return vfs([&] { return in_.truncate(path, size); });
  }
  std::int64_t fsync() override { return vfs([&] { return in_.fsync(); }); }
  std::int64_t access(std::string_view path) override { return vfs([&] { return in_.access(path); }); }

  std::int64_t ds_publish(std::string_view key, std::uint64_t value) override {
    return ds([&] { return in_.ds_publish(key, value); });
  }
  std::int64_t ds_retrieve(std::string_view key, std::uint64_t* value) override {
    return ds([&] { return in_.ds_retrieve(key, value); });
  }
  std::int64_t ds_delete(std::string_view key) override { return ds([&] { return in_.ds_delete(key); }); }
  std::int64_t ds_subscribe(std::string_view prefix) override {
    return ds([&] { return in_.ds_subscribe(prefix); });
  }
  std::int64_t ds_check(std::uint64_t* events) override { return ds([&] { return in_.ds_check(events); }); }

  std::int64_t times(std::uint64_t* ticks) override { return pm([&] { return in_.times(ticks); }); }
  std::int64_t uname(std::string* name) override { return pm([&] { return in_.uname(name); }); }
  std::int64_t rs_status(std::int32_t endpoint) override {
    return op(OpKind::kOtherPm, kernel::kRsEp, [&] { return in_.rs_status(endpoint); });
  }

 private:
  template <class F>
  std::int64_t op(OpKind k, kernel::Endpoint target, F&& f) {
    Ctx& c = c_;
    if (!c.recording) return f();
    c.maybe_arm();
    c.ledger.switch_to(Layer::kSystem);
    const std::uint64_t id = c.req++;
    VirtualClock& clock = c.inst.clock();
    const Tick v0 = clock.now();
    const std::uint64_t t0 = now_ns();
    ++c.inflight;
    const std::int64_t r = f();
    const std::uint64_t t1 = now_ns();
    --c.inflight;
    c.record(k, target, id, t0, t1, v0, clock.now(), r);
    c.ledger.switch_to(Layer::kGen);
    c.think();
    return r;
  }
  template <class F>
  std::int64_t pm(F&& f) { return op(OpKind::kOtherPm, kernel::kPmEp, std::forward<F>(f)); }
  template <class F>
  std::int64_t vfs(F&& f) { return op(OpKind::kOtherVfs, kernel::kVfsEp, std::forward<F>(f)); }
  template <class F>
  std::int64_t ds(F&& f) { return op(OpKind::kDs, kernel::kDsEp, std::forward<F>(f)); }

  Ctx& c_;
  ISys& in_;
  std::set<std::int64_t> pipe_fds_;
};

std::span<const std::byte> bytes_of(const char& b) { return std::as_bytes(std::span<const char>(&b, 1)); }

std::string file_path(int k) { return "/tmp/pf" + std::to_string(k); }
std::string ds_key(int k) { return "pf." + std::to_string(k); }

[[noreturn]] void exec_or_exit(ISys& ch, std::string_view path) {
  (void)retry([&] { return ch.exec(path); });
  ch.exit(90);  // exec failed for good
  std::abort();
}

bool wait_for(ISys& sys, std::int64_t pid, std::int64_t want) {
  std::int64_t st = -1;
  const std::int64_t w = retry([&] { return sys.wait_pid(pid, &st); });
  return w > 0 && (pid == 0 || w == pid) && st == want;
}

void round(Ctx& c, ISys& sys, int r, std::int64_t pid, std::int64_t uid) {
  // 1. getpid/getuid loop.
  {
    bool ok = true;
    for (int i = 0; i < 16 && ok; ++i) {
      ok = retry([&] { return sys.getpid(); }) == pid;
      if (ok && i % 8 == 0) ok = retry([&] { return sys.getuid(); }) == uid;
    }
    c.unit("getpid/getuid loop", ok);
  }
  // 2. fork + exit + wait.
  for (int j = 0; j < 2; ++j) {
    const std::int64_t code = (r * 2 + j) % 50 + 1;
    const std::int64_t child = retry([&] { return sys.fork([code](ISys& ch) { ch.exit(code); }); });
    c.unit("fork+exit+wait", child > 0 && wait_for(sys, child, code));
  }
  // 3. fork + exec + wait.
  {
    const std::int64_t child =
        retry([&] { return sys.fork([](ISys& ch) { exec_or_exit(ch, "/bin/pb_true"); }); });
    c.unit("fork+exec+wait", child > 0 && wait_for(sys, child, 0));
  }
  // 4. Pipe ping-pong with an echoing child.
  {
    std::int64_t up[2] = {-1, -1}, down[2] = {-1, -1};
    bool ok = retry([&] { return sys.pipe(up); }) == kernel::OK &&
              retry([&] { return sys.pipe(down); }) == kernel::OK;
    std::int64_t child = -1;
    if (ok) {
      child = retry([&] {
        return sys.fork([up, down](ISys& ch) {
          (void)retry([&] { return ch.close(up[1]); });
          (void)retry([&] { return ch.close(down[0]); });
          char b = 0;
          for (;;) {
            if (retry([&] { return ch.read(up[0], std::as_writable_bytes(std::span<char>(&b, 1))); }) != 1) {
              ch.exit(0);
            }
            if (retry([&] { return ch.write(down[1], bytes_of(b)); }) != 1) ch.exit(1);
          }
        });
      });
      ok = child > 0 && retry([&] { return sys.close(up[0]); }) == kernel::OK &&
           retry([&] { return sys.close(down[1]); }) == kernel::OK;
    }
    for (int i = 0; i < kPingPongs && ok; ++i) {
      const char out = static_cast<char>('a' + (r + i) % 26);
      char in = 0;
      ok = retry([&] { return sys.write(up[1], bytes_of(out)); }) == 1 &&
           retry([&] { return sys.read(down[0], std::as_writable_bytes(std::span<char>(&in, 1))); }) == 1 &&
           in == out;
    }
    if (up[1] >= 0) ok = retry([&] { return sys.close(up[1]); }) == kernel::OK && ok;
    if (child > 0) ok = wait_for(sys, child, 0) && ok;
    if (down[0] >= 0) ok = retry([&] { return sys.close(down[0]); }) == kernel::OK && ok;
    c.unit("pipe ping-pong", ok);
  }
  // 5. 1 KiB file write + read-back, and a DS publish/retrieve.
  {
    const int k = r % kFiles;
    std::vector<std::byte> buf(1024), back(1024);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::byte>((static_cast<std::size_t>(r) * 7 + i * 13 + static_cast<std::size_t>(k)) & 0xff);
    }
    const std::int64_t fd = retry([&] { return sys.open(file_path(k), servers::O_CREAT | servers::O_RDWR); });
    bool ok = fd >= 0 && retry([&] { return sys.write(fd, buf); }) == 1024;
    if (ok) c.files[k] = buf;
    ok = ok && retry([&] { return sys.lseek(fd, 0, 0); }) == 0 &&
         retry([&] { return sys.read(fd, back); }) == 1024 && back == buf;
    if (fd >= 0) ok = retry([&] { return sys.close(fd); }) == kernel::OK && ok;
    const std::uint64_t val = static_cast<std::uint64_t>(r) * 1000 + static_cast<std::uint64_t>(k) + 1;
    std::uint64_t got = 0;
    const bool published = retry([&] { return sys.ds_publish(ds_key(k), val); }) >= 0;
    if (published) c.ds_vals[k] = val;
    ok = ok && published && retry([&] { return sys.ds_retrieve(ds_key(k), &got); }) == kernel::OK &&
         got == val;
    c.unit("file write/read-back + DS", ok);
  }
  // 6. 8-way shell fan-out.
  {
    int started = 0;
    for (int j = 0; j < kFanout; ++j) {
      if (retry([&] { return sys.fork([](ISys& ch) { exec_or_exit(ch, "/bin/pb_sh"); }); }) > 0) ++started;
    }
    bool ok = started == kFanout;
    for (int j = 0; j < started; ++j) ok = wait_for(sys, 0, 0) && ok;
    c.unit("shell fan-out", ok);
  }
}

/// Post-run probe: the system's view of every file and key must match the
/// benchmark's model.
void probe(Ctx& c, ISys& sys) {
  for (int k = 0; k < kFiles; ++k) {
    if (c.files[k].empty()) continue;
    StatResult st;
    std::vector<std::byte> back(c.files[k].size());
    const std::int64_t fd = sys.open(file_path(k), servers::O_RDWR);
    const bool ok = sys.stat(file_path(k), &st) == kernel::OK && st.size == c.files[k].size() &&
                    fd >= 0 && sys.read(fd, back) == static_cast<std::int64_t>(back.size()) &&
                    back == c.files[k] && sys.close(fd) == kernel::OK;
    if (!ok) fail_check(c.rep, "post-run probe: " + file_path(k) + " differs from the model");
    std::uint64_t v = 0;
    if (sys.ds_retrieve(ds_key(k), &v) != kernel::OK || v != c.ds_vals[k]) {
      fail_check(c.rep, "post-run probe: DS key " + ds_key(k) + " differs from the model");
    }
  }
}

void init_body(Ctx& c, ISys& raw) {
  TimedSys sys(c, raw);
  c.ledger.switch_to(Layer::kGen);
  const std::int64_t pid = sys.getpid();
  const std::int64_t uid = sys.getuid();
  for (int r = 0; r < kWarmupRounds; ++r) round(c, sys, r, pid, uid);

  c.start = snapshot(c.inst);
  c.recording = true;
  c.faults_on = true;
  c.next_arm = c.inst.clock().now() + kFaultGapTicks;
  c.timed_start_ns = now_ns();
  c.ledger.start();
  for (int r = 0; r < kRounds; ++r) {
    // The last rounds run fault-free so every crash sees its component answer again.
    if (r == kRounds - 2) c.stop_faults();
    round(c, sys, kWarmupRounds + r, pid, uid);
  }
  c.ledger.stop();
  c.timed_end_ns = now_ns();
  c.recording = false;
  c.end = snapshot(c.inst);
  probe(c, sys);
  c.ledger.switch_to(Layer::kSystem);
}

/// Per-site hit counts of one untimed machine running `body`.
std::vector<std::uint64_t> profile(const ISys::ProcBody& body) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  {
    os::OsInstance inst{os::OsConfig{}};
    inst.programs().add("pb_true", [](ISys&) -> std::int64_t { return 0; });
    inst.boot();
    inst.run(body);
  }
  std::vector<std::uint64_t> hits;
  for (const fi::Site* s : fi::Registry::sites()) {
    if (s->id >= hits.size()) hits.resize(s->id + 1);
    hits[s->id] = s->hits();
  }
  return hits;
}

}  // namespace

void proc_prepare() {
  // Fault sites are the busiest probes each component executes for the
  // scripts' own requests (getpid/getuid, file and DS calls) but never for
  // fork/exit/exec traffic. With VFS's request-loop probe, a fault while VFS
  // served PM's VFS_PM_EXEC binary check left the exec'ing process without
  // a reply, its parent's wait never returned, and the run hung.
  const std::vector<std::uint64_t> user = profile([](ISys& s) {
    std::vector<std::byte> buf(1024);
    for (int i = 0; i < 50; ++i) {
      (void)s.getpid();
      (void)s.getuid();
      StatResult st;
      (void)s.stat("/tmp", &st);
      const std::int64_t fd = s.open("/tmp/pb.profile", servers::O_CREAT | servers::O_RDWR);
      (void)s.write(fd, buf);
      (void)s.lseek(fd, 0, 0);
      (void)s.read(fd, buf);
      (void)s.close(fd);
      std::uint64_t v = 0;
      (void)s.ds_publish("pb.profile", static_cast<std::uint64_t>(i));
      (void)s.ds_retrieve("pb.profile", &v);
    }
  });
  const std::vector<std::uint64_t> lifecycle = profile([](ISys& s) {
    for (int i = 0; i < 10; ++i) {
      std::int64_t st = 0;
      s.wait_pid(s.fork([](ISys& ch) { ch.exit(0); }), &st);
      s.wait_pid(s.fork([](ISys& ch) {
                   ch.exec("/bin/pb_true");
                   ch.exit(1);
                 }),
                 &st);
    }
  });
  auto at = [](const std::vector<std::uint64_t>& v, std::uint32_t id) { return id < v.size() ? v[id] : 0; };
  const char* tags[] = {"pm", "vfs", "ds"};
  for (std::size_t i = 0; i < g_sites.size(); ++i) {
    for (fi::Site* s : fi::Registry::sites()) {
      if (std::strcmp(s->tag, tags[i]) != 0 || at(lifecycle, s->id) != 0) continue;
      if (g_sites[i] == nullptr || at(user, s->id) > at(user, g_sites[i]->id)) g_sites[i] = s;
    }
    OSIRIS_ASSERT(g_sites[i] != nullptr && at(user, g_sites[i]->id) > 0);
  }
  fi::Registry::instance().reset_counts();
}

Rep run_proc_faulted(const RepConfig& rc, Ledger& ledger) {
  Rep rep;
  rep.fingerprint = 14695981039346656037ULL;
  const std::uint64_t t0 = now_ns();
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();

  os::OsConfig cfg;  // Enhanced policy, kWindowOnly checkpointing, default disk and cache
  cfg.ckpt_mode = rc.ckpt_mode;
  cfg.max_recoveries = 1u << 30;  // sustain the fault influx (the recovery budget)
  os::OsInstance inst(cfg);
  Ctx c(inst, ledger, rep, rc.seed);
  inst.programs().add("pb_true", [&c](ISys&) -> std::int64_t {
    c.ledger.switch_to(Layer::kSystem);
    return 0;
  });
  inst.programs().add("pb_sh", [&c](ISys& raw) -> std::int64_t {
    TimedSys sys(c, raw);
    c.ledger.switch_to(Layer::kGen);
    StatResult st;
    std::uint64_t v = 0;
    const bool ok = retry([&] { return sys.getpid(); }) > 0 &&
                    retry([&] { return sys.stat("/tmp", &st); }) == kernel::OK &&
                    retry([&] { return sys.ds_retrieve("sys.release", &v); }) == kernel::OK && v == 316;
    c.ledger.switch_to(Layer::kSystem);
    return ok ? 0 : 1;
  });
  inst.boot();
  wrap_crash_handler(inst, ledger, rep, [&c](const kernel::CrashContext& ctx) { c.on_crash(ctx); });

  const os::OsInstance::Outcome outcome = inst.run([&c](ISys& s) { init_body(c, s); });
  fi::Registry::instance().disarm();

  if (outcome != os::OsInstance::Outcome::kCompleted) {
    fail_check(rep, std::string("run ended ") + os::OsInstance::outcome_name(outcome));
    return rep;
  }
  rep.setup_s = static_cast<double>(c.timed_start_ns - t0) * 1e-9;
  rep.timed_s = static_cast<double>(c.timed_end_ns - c.timed_start_ns) * 1e-9;
  rep.procs_created = c.procs;
  const std::uint64_t ops = rep.lat_ns.size();
  fill_layer_counts(rep, c.start, c.end, ops);

  std::map<std::string, double>& e = rep.exact;
  const double faults = static_cast<double>(rep.recovery_ns.size());
  e["fail_frac"] = ops > 0 ? static_cast<double>(c.op_failures) / static_cast<double>(ops) : 0.0;
  e["recovery.faults"] = faults;
  e["recovery.ecrash_per_fault"] = faults > 0 ? static_cast<double>(c.ecrash) / faults : 0.0;
  double inflight = 0.0;
  for (const double x : c.inflight_at_crash) inflight += x;
  e["recovery.inflight_at_crash_mean"] = faults > 0 ? inflight / faults : 0.0;
  e["disruption_p50_ticks"] = percentile(c.disruption, 0.50);
  e["disruption_max_ticks"] = percentile(c.disruption, 1.0);
  e["disruption.samples"] = static_cast<double>(c.disruption.size());
  e["os.procs"] = static_cast<double>(c.procs);

  if (rep.recovery_ns.size() < kMinFaults) fail_check(rep, "fewer faults injected than the run requires");
  if (c.disruption.size() != rep.recovery_ns.size()) {
    fail_check(rep, "a crashed component never answered a benchmark op again");
  }
  if (e["recovery.transient_frac"] != 1.0) fail_check(rep, "a crash was not classified transient");
  return rep;
}

}  // namespace perfbench
