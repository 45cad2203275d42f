// Open-loop multi-client serving benchmark (DESIGN.md §14, EXPERIMENTS.md).
//
// N raw kernel clients (no fibers: each is a lightweight IClient registered
// with PM/VM/VFS/SYS as a boot process) fire requests at the servers with
// Poisson-ish arrivals drawn on the virtual clock, mixing bulk VFS I/O with
// VFS/PM/DS metadata traffic. Arrivals are open-loop: a client that is still
// waiting for a reply banks the arrival stamp and issues the request the
// moment the reply lands, so queueing delay is charged to the system, not
// silently absorbed by the load generator (no coordinated omission).
//
// Each run reports steady-state msgs/sec and p50/p99/p999 reply latency in
// host wall time (bulk payloads ride grant spans, DESIGN.md §14). A faulted
// phase arms periodic fail-stop faults on VFS's busiest probe site and
// reports the recovery-induced latency-spike width on top of the same load.
//
// A final miss-regime sweep (DESIGN.md §16) shrinks the block cache to an
// eighth of the working set and runs the VFS fiber path vs the FOM executor
// across an in-flight-depth axis (1, N/4, N clients): the executor overlaps
// the 40-tick disk waits the fiber path serializes, and the per-run
// fom_stats (parks, in_flight_high_water) land in the JSON so the overlap is
// auditable, not inferred.
//
// Usage: serving_load [--clients N] [--seconds S] [--interval TICKS]
//                     [--payload BYTES] [--seed S] [--profile mixed|bulk|meta]
//                     [--fault-interval N] [--out FILE.json]
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "servers/fom.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"

using namespace osiris;
using servers::O_CREAT;
using servers::O_RDWR;

namespace {

using HostClock = std::chrono::steady_clock;

double to_sec(HostClock::duration d) { return std::chrono::duration<double>(d).count(); }
std::uint64_t to_ns(HostClock::duration d) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

struct Options {
  int clients = 32;
  double seconds = 2.0;       // timed window per run
  int reps = 3;               // repetitions per steady / miss-sweep point (median wins)
  double mean_interval = 6.0; // mean inter-arrival per client, virtual ticks
  std::size_t payload = 32 * 1024;  // bulk op size; well past the inline-text cap
  std::uint64_t seed = 42;
  std::string profile = "mixed";
  std::uint64_t fault_interval = 25000;  // VFS probe hits between injected faults
  std::string out;
};

enum class Op { kRead, kWrite, kStat, kRetrieve, kPublish, kGetPid };

struct OpMix {
  // Cumulative per-mille thresholds, indexed by Op.
  std::array<int, 6> cum;
};

OpMix profile_mix(const std::string& name) {
  // Weights in per-mille: read, write, stat, retrieve, publish, getpid.
  std::array<int, 6> w{};
  if (name == "bulk") {
    w = {600, 300, 50, 0, 0, 50};
  } else if (name == "meta") {
    w = {0, 0, 400, 250, 100, 250};
  } else {  // mixed (default): bulk-heavy serving with a metadata tail
    w = {450, 200, 150, 80, 40, 80};
  }
  OpMix m{};
  int acc = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += w[i];
    m.cum[i] = acc;
  }
  OSIRIS_ASSERT(acc == 1000);
  return m;
}

/// Latency/throughput accumulator shared by all clients of one run.
struct RunAccum {
  std::uint64_t completed = 0;  // replies with status >= 0
  std::uint64_t errors = 0;     // replies with status < 0 (incl. E_CRASH)
  std::vector<std::uint64_t> latencies_ns;
  std::vector<std::uint64_t> completion_off_ns;  // reply time - phase start
  HostClock::time_point phase_start;
  bool stopped = false;  // deadline hit: no new arrivals, drain only
};

class BenchClient final : public kernel::IClient {
 public:
  BenchClient(os::OsInstance& inst, int id, Rng rng, const OpMix& mix, std::size_t payload,
              RunAccum& acc)
      : inst_(inst), id_(id), rng_(rng), mix_(mix), payload_(payload), acc_(acc) {
    io_.resize(payload_);
    for (std::size_t i = 0; i < io_.size(); ++i) {
      io_[i] = static_cast<std::byte>((i * 131u + static_cast<unsigned>(id)) & 0xff);
    }
    path_ = "/tmp/cli" + std::to_string(id);
    key_ = "bench.cli" + std::to_string(id);
    ep_ = inst_.kern().register_client(this);
  }

  [[nodiscard]] kernel::Endpoint ep() const { return ep_; }
  [[nodiscard]] bool outstanding() const { return outstanding_; }

  // --- setup-phase synchronous request ---------------------------------
  kernel::Message sync_request(kernel::Endpoint dst, kernel::Message m) {
    setup_waiting_ = true;
    inst_.kern().send(ep_, dst, m);
    while (setup_waiting_) {
      if (!inst_.kern().dispatch_pending() && !inst_.clock().advance_to_next()) {
        OSIRIS_PANIC("serving_load: setup request wedged");
      }
    }
    return setup_reply_;
  }

  void setup(std::size_t file_bytes) {
    kernel::Message r =
        sync_request(kernel::kVfsEp, servers::encode_text(servers::VFS_OPEN, path_,
                                                          O_CREAT | O_RDWR));
    OSIRIS_ASSERT(r.sarg(0) >= 0);
    fd_ = r.sarg(0);
    file_bytes_ = file_bytes;
    std::vector<std::byte> init(file_bytes, std::byte{0x5a});
    const kernel::GrantId g = inst_.kern().make_grant(ep_, kernel::kVfsEp, init.data(),
                                                      init.size(), kernel::Access::kRead);
    r = sync_request(kernel::kVfsEp,
                     servers::encode(servers::VFS_WRITE, static_cast<std::uint64_t>(fd_), g,
                                     init.size()));
    inst_.kern().revoke_grant(g);
    OSIRIS_ASSERT(r.sarg(0) == static_cast<std::int64_t>(file_bytes));
    r = sync_request(kernel::kVfsEp,
                     servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_), 0, 0));
    OSIRIS_ASSERT(r.sarg(0) == 0);
    pos_ = 0;
    r = sync_request(kernel::kDsEp, servers::encode_text(servers::DS_PUBLISH, key_, 1));
    OSIRIS_ASSERT(r.sarg(0) >= 0);
  }

  // --- open-loop arrivals ----------------------------------------------
  void on_arrival() {
    const HostClock::time_point stamp = HostClock::now();
    if (outstanding_) {
      backlog_.push_back(stamp);
    } else {
      issue(stamp);
    }
  }

  void on_reply(const kernel::Message& r) override {
    if (setup_waiting_) {
      setup_reply_ = r;
      setup_waiting_ = false;
      return;
    }
    if (grant_ != 0) {
      inst_.kern().revoke_grant(grant_);
      grant_ = 0;
    }
    const std::int64_t status = r.sarg(0);
    const HostClock::time_point now = HostClock::now();
    if (status >= 0) {
      ++acc_.completed;
      if (last_op_ == Op::kRead || last_op_ == Op::kWrite) pos_ += static_cast<std::size_t>(status);
      if (was_lseek_) pos_ = static_cast<std::size_t>(status);
    } else {
      ++acc_.errors;
      if (last_op_ == Op::kRead || last_op_ == Op::kWrite) pos_ = file_bytes_;  // force rewind
    }
    acc_.latencies_ns.push_back(to_ns(now - stamp_));
    acc_.completion_off_ns.push_back(to_ns(now - acc_.phase_start));
    outstanding_ = false;
    if (acc_.stopped) {
      backlog_.clear();
      return;
    }
    if (!backlog_.empty()) {
      const HostClock::time_point next = backlog_.front();
      backlog_.pop_front();
      issue(next);
    }
  }

  void on_notify(const kernel::Message&) override {}

 private:
  void issue(HostClock::time_point stamp) {
    outstanding_ = true;
    stamp_ = stamp;
    was_lseek_ = false;
    kernel::Kernel& kern = inst_.kern();
    const Op op = pick_op();
    last_op_ = op;
    switch (op) {
      case Op::kRead:
      case Op::kWrite: {
        if (pos_ + payload_ > file_bytes_) {
          // Wrap the file cursor; counts as one more (cheap, SM) VFS message.
          was_lseek_ = true;
          kern.send(ep_, kernel::kVfsEp,
                    servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_), 0, 0));
          return;
        }
        const bool rd = op == Op::kRead;
        grant_ = kern.make_grant(ep_, kernel::kVfsEp, io_.data(), payload_,
                                 rd ? kernel::Access::kWrite : kernel::Access::kRead);
        kern.send(ep_, kernel::kVfsEp,
                  servers::encode(rd ? servers::VFS_READ : servers::VFS_WRITE,
                                  static_cast<std::uint64_t>(fd_), grant_, payload_));
        return;
      }
      case Op::kStat:
        kern.send(ep_, kernel::kVfsEp, servers::encode_text(servers::VFS_STAT, path_));
        return;
      case Op::kRetrieve:
        kern.send(ep_, kernel::kDsEp, servers::encode_text(servers::DS_RETRIEVE, key_));
        return;
      case Op::kPublish:
        kern.send(ep_, kernel::kDsEp,
                  servers::encode_text(servers::DS_PUBLISH, key_, ++publish_val_));
        return;
      case Op::kGetPid:
        kern.send(ep_, kernel::kPmEp, servers::encode(servers::PM_GETPID));
        return;
    }
  }

  Op pick_op() {
    const int roll = static_cast<int>(rng_.below(1000));
    for (std::size_t i = 0; i < mix_.cum.size(); ++i) {
      if (roll < mix_.cum[i]) return static_cast<Op>(i);
    }
    return Op::kGetPid;
  }

  os::OsInstance& inst_;
  int id_;
  Rng rng_;
  OpMix mix_;
  std::size_t payload_;
  RunAccum& acc_;
  kernel::Endpoint ep_{};
  std::string path_;
  std::string key_;
  std::vector<std::byte> io_;
  std::int64_t fd_ = -1;
  std::size_t pos_ = 0;
  std::size_t file_bytes_ = 0;
  kernel::GrantId grant_ = 0;
  std::uint64_t publish_val_ = 1;
  bool outstanding_ = false;
  bool was_lseek_ = false;
  Op last_op_ = Op::kGetPid;
  HostClock::time_point stamp_{};
  std::deque<HostClock::time_point> backlog_;
  bool setup_waiting_ = false;
  kernel::Message setup_reply_{};
};

/// VFS's busiest fault site (its request-loop probe): hit once per message.
fi::Site* vfs_entry_site() {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  {
    os::OsConfig cfg;
    os::OsInstance inst(cfg);
    inst.boot();
    RunAccum acc;
    BenchClient cli(inst, 1, Rng(1), profile_mix("meta"), 64, acc);
    inst.pm().register_boot_proc(1, cli.ep(), "bench");
    inst.vm().register_boot_proc(1);
    inst.vfs().register_boot_proc(1, cli.ep());
    inst.sys_task().register_boot_proc(1);
    for (int i = 0; i < 50; ++i) {
      (void)cli.sync_request(kernel::kVfsEp,
                             servers::encode_text(servers::VFS_STAT, "/tmp"));
    }
  }
  fi::Site* best = nullptr;
  for (fi::Site* s : fi::Registry::instance().sites()) {
    if (std::strcmp(s->tag, "vfs") == 0 && (best == nullptr || s->hits() > best->hits())) best = s;
  }
  OSIRIS_ASSERT(best != nullptr);
  return best;
}

struct RunResult {
  std::string config;
  std::string phase;
  double msgs_per_sec = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;  // clients still blocked when the drain cap hit
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_us = 0.0;
  double spike_width_ms = -1.0;  // faulted runs only
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  kernel::KernelStats kstats;
  // Miss-regime rows only: the in-flight-depth axis (depth = clients) and
  // the executor's own accounting — parks/resumes prove the stall was real,
  // in_flight_high_water that the executor actually overlapped it. The
  // disk's 40-tick wait exists in virtual time, so the stall shows up in
  // virtual-time throughput (msgs per kilotick), not host msgs/sec.
  int depth = 0;
  bool fom_enabled = false;
  double msgs_per_ktick = 0.0;
  servers::FomStats fom{};
};

double percentile_us(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1000.0;
}

/// Widest contiguous wall-time span (5 ms buckets) whose mean latency
/// exceeds 4x the steady-state mean — the recovery-induced spike.
double spike_width_ms(const RunAccum& acc, double steady_mean_ns) {
  if (acc.latencies_ns.empty() || steady_mean_ns <= 0.0) return 0.0;
  constexpr std::uint64_t kBucketNs = 5'000'000;
  std::uint64_t span_ns = 0;
  for (std::uint64_t off : acc.completion_off_ns) span_ns = std::max(span_ns, off);
  const std::size_t buckets = static_cast<std::size_t>(span_ns / kBucketNs) + 1;
  std::vector<double> sum(buckets, 0.0);
  std::vector<std::uint64_t> cnt(buckets, 0);
  for (std::size_t i = 0; i < acc.latencies_ns.size(); ++i) {
    const std::size_t b = static_cast<std::size_t>(acc.completion_off_ns[i] / kBucketNs);
    sum[b] += static_cast<double>(acc.latencies_ns[i]);
    ++cnt[b];
  }
  const double threshold = 4.0 * steady_mean_ns;
  std::size_t best = 0, cur = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const bool hot = cnt[b] > 0 && sum[b] / static_cast<double>(cnt[b]) > threshold;
    cur = hot ? cur + 1 : 0;
    best = std::max(best, cur);
  }
  return static_cast<double>(best) * 5.0;
}

RunResult run_serving(const Options& opt, const std::string& config_name, fi::Site* fault_site,
                      double steady_mean_ns, bool fom = false, bool miss_regime = false) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();

  os::OsConfig cfg;
  cfg.policy = seep::Policy::kEnhanced;
  cfg.max_recoveries = 1u << 30;  // sustain the fault influx indefinitely
  if (fault_site != nullptr) {
    // Disable the crash-rate classifier (see the arming comment below).
    cfg.ladder.crash_window_ticks = 1;
  }
  // Size the disk for every client's working file and keep the whole working
  // set block-cache-resident: a cache miss parks the VFS worker on a 40-tick
  // virtual disk read, and an open-loop generator saturates a disk-bound
  // system in virtual time no matter how fast the host is. The steady and
  // faulted phases measure host work per message, so they run in the
  // cache-hit regime (the setup writes below warm the cache).
  // 8x the payload per file (clamped to the FS max) keeps the rewind lseek —
  // a cheap non-FS message — a small fraction of the bulk op stream. Miss
  // runs stream 64x so every depth's working set dwarfs the shrunken cache.
  const std::size_t file_bytes =
      std::min<std::size_t>((miss_regime ? 64 : 8) * opt.payload, fs::kMaxFileSize);
  const std::size_t file_blocks =
      static_cast<std::size_t>(opt.clients) * file_bytes / fs::kBlockSize;
  cfg.disk_blocks = 2 * file_blocks + 2048;
  cfg.cache_blocks = file_blocks + 256;
  if (miss_regime) {
    // Miss regime: the cache holds an eighth of the working set, so the bulk
    // stream is disk-bound and nearly every read crosses the 40-tick device
    // wait. The fiber path pays that wait serially per request; the FOM
    // executor parks the request and keeps serving, which is the stall this
    // phase exists to show removed.
    cfg.cache_blocks = std::max<std::size_t>(file_blocks / 8, 16);
  }
  cfg.vfs_fom = fom;
  os::OsInstance inst(cfg);
  inst.boot();

  RunAccum acc;
  OpMix mix = profile_mix(opt.profile);
  Rng root(opt.seed);
  std::vector<std::unique_ptr<BenchClient>> clients;
  clients.reserve(static_cast<std::size_t>(opt.clients));
  for (int i = 0; i < opt.clients; ++i) {
    clients.push_back(
        std::make_unique<BenchClient>(inst, i + 1, root.fork(), mix, opt.payload, acc));
    BenchClient& c = *clients.back();
    inst.pm().register_boot_proc(i + 1, c.ep(), "bench");
    inst.vm().register_boot_proc(i + 1);
    inst.vfs().register_boot_proc(i + 1, c.ep());
    inst.sys_task().register_boot_proc(i + 1);
    c.setup(file_bytes);
  }

  if (fault_site != nullptr) {
    // The faulted phase measures steady per-crash recovery cost (restart +
    // rollback + error virtualization), not the escalation ladder: at host
    // speed the open loop packs virtual time so densely that the default
    // crash-rate classifier would park VFS in quarantine, and the run would
    // degenerate into measuring E_CRASH reply throughput.
    fi::Registry::instance().arm_periodic_window_crash(fault_site, opt.fault_interval);
  }

  // Self-rescheduling Poisson arrival chain per client. Inter-arrival gaps
  // are exponential in virtual ticks; clamping to >= 1 keeps the clock
  // strictly advancing. Multiple clients landing on the same tick is what
  // feeds multi-message dispatch rounds.
  Rng arrivals(opt.seed ^ 0x9e3779b9u);
  std::function<void(BenchClient*)> chain = [&](BenchClient* c) {
    if (acc.stopped) return;
    c->on_arrival();
    const double u = arrivals.uniform();
    const Tick dt = std::max<Tick>(
        1, static_cast<Tick>(-std::log(1.0 - u) * opt.mean_interval + 0.5));
    inst.clock().call_after(dt, [&chain, c] { chain(c); });
  };
  for (auto& c : clients) {
    const Tick dt = 1 + static_cast<Tick>(arrivals.below(
                            static_cast<std::uint64_t>(opt.mean_interval) + 1));
    inst.clock().call_after(dt, [&chain, c = c.get()] { chain(c); });
  }

  kernel::Kernel& kern = inst.kern();
  const Tick virt_start = inst.clock().now();
  acc.phase_start = HostClock::now();
  const auto deadline =
      acc.phase_start + std::chrono::duration_cast<HostClock::duration>(
                            std::chrono::duration<double>(opt.seconds));
  while (HostClock::now() < deadline) {
    if (!kern.dispatch_pending() && !inst.clock().advance_to_next()) break;
  }
  const double elapsed = to_sec(HostClock::now() - acc.phase_start);
  const std::uint64_t at_deadline = acc.completed + acc.errors;
  const Tick virt_elapsed = inst.clock().now() - virt_start;
  acc.stopped = true;

  // Drain in-flight requests (bounded: a fault resolved as no-reply can
  // orphan a client; those count as lost, not as latency samples).
  const auto drain_cap = HostClock::now() + std::chrono::seconds(2);
  auto any_outstanding = [&clients] {
    for (const auto& c : clients) {
      if (c->outstanding()) return true;
    }
    return false;
  };
  while (any_outstanding() && HostClock::now() < drain_cap) {
    if (!kern.dispatch_pending() && !inst.clock().advance_to_next()) break;
  }
  fi::Registry::instance().disarm();

  RunResult r;
  r.config = config_name;
  r.phase = fault_site != nullptr ? "faulted" : (miss_regime ? "miss" : "steady");
  if (miss_regime) {
    r.depth = opt.clients;
    r.fom_enabled = fom;
    r.fom = *inst.vfs().fom_stats();
    r.msgs_per_ktick = virt_elapsed > 0
                           ? static_cast<double>(at_deadline) * 1000.0 /
                                 static_cast<double>(virt_elapsed)
                           : 0.0;
  }
  r.completed = acc.completed;
  r.errors = acc.errors;
  for (const auto& c : clients) {
    if (c->outstanding()) ++r.lost;
  }
  r.msgs_per_sec = elapsed > 0 ? static_cast<double>(at_deadline) / elapsed : 0.0;
  double sum = 0.0;
  for (std::uint64_t ns : acc.latencies_ns) sum += static_cast<double>(ns);
  r.mean_us = acc.latencies_ns.empty()
                  ? 0.0
                  : sum / static_cast<double>(acc.latencies_ns.size()) / 1000.0;
  if (fault_site != nullptr) r.spike_width_ms = spike_width_ms(acc, steady_mean_ns);
  std::vector<std::uint64_t> lat = acc.latencies_ns;
  r.p50_us = percentile_us(lat, 0.50);
  r.p99_us = percentile_us(lat, 0.99);
  r.p999_us = percentile_us(lat, 0.999);
  r.kstats = kern.stats();
  r.crashes = kern.stats().crashes;
  r.restarts = inst.engine().stats().restarts;
  r.rollbacks = inst.engine().stats().rollbacks;
  return r;
}

void json_run(std::FILE* f, const RunResult& r, bool last) {
  const kernel::KernelStats& k = r.kstats;
  std::fprintf(f,
               "    {\"config\": \"%s\", \"phase\": \"%s\", \"msgs_per_sec\": %.1f,\n"
               "     \"completed\": %llu, \"errors\": %llu, \"lost\": %llu,\n"
               "     \"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, \"mean_us\": %.2f,\n",
               r.config.c_str(), r.phase.c_str(), r.msgs_per_sec,
               static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.errors),
               static_cast<unsigned long long>(r.lost), r.p50_us, r.p99_us, r.p999_us, r.mean_us);
  if (r.spike_width_ms >= 0.0) {
    std::fprintf(f, "     \"spike_width_ms\": %.1f, \"crashes\": %llu, \"restarts\": %llu, "
                    "\"rollbacks\": %llu,\n",
                 r.spike_width_ms, static_cast<unsigned long long>(r.crashes),
                 static_cast<unsigned long long>(r.restarts),
                 static_cast<unsigned long long>(r.rollbacks));
  }
  if (r.depth > 0) {
    std::fprintf(f,
                 "     \"depth\": %d, \"fom\": %s, \"msgs_per_ktick\": %.2f,\n"
                 "     \"fom_stats\": {\"admitted\": %llu, "
                 "\"parks\": %llu, \"resumes\": %llu, \"aborts\": %llu, "
                 "\"sync_fallbacks\": %llu, \"in_flight_high_water\": %llu, "
                 "\"wait_ticks_total\": %llu},\n",
                 r.depth, r.fom_enabled ? "true" : "false", r.msgs_per_ktick,
                 static_cast<unsigned long long>(r.fom.admitted),
                 static_cast<unsigned long long>(r.fom.parks),
                 static_cast<unsigned long long>(r.fom.resumes),
                 static_cast<unsigned long long>(r.fom.aborts),
                 static_cast<unsigned long long>(r.fom.sync_fallbacks),
                 static_cast<unsigned long long>(r.fom.in_flight_high_water),
                 static_cast<unsigned long long>(r.fom.wait_ticks_total));
  }
  std::fprintf(f,
               "     \"kernel\": {\"messages_queued\": %llu, \"queue_high_water\": %llu,\n"
               "                \"safecopy_bytes\": %llu, \"grant_bypass_bytes\": %llu, "
               "\"grant_spans\": %llu}}%s\n",
               static_cast<unsigned long long>(k.messages_queued),
               static_cast<unsigned long long>(k.queue_high_water),
               static_cast<unsigned long long>(k.safecopy_bytes),
               static_cast<unsigned long long>(k.grant_bypass_bytes),
               static_cast<unsigned long long>(k.grant_spans), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      OSIRIS_ASSERT(i + 1 < argc);
      return argv[++i];
    };
    if (a == "--clients") {
      opt.clients = std::atoi(next());
    } else if (a == "--seconds") {
      opt.seconds = std::atof(next());
    } else if (a == "--reps") {
      opt.reps = std::atoi(next());
    } else if (a == "--interval") {
      opt.mean_interval = std::atof(next());
    } else if (a == "--payload") {
      opt.payload = static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--profile") {
      opt.profile = next();
    } else if (a == "--fault-interval") {
      opt.fault_interval = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--out") {
      opt.out = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return 2;
    }
  }
  const int max_clients = static_cast<int>(servers::kMaxProcs);
  if (opt.clients > max_clients) {
    std::fprintf(stderr, "serving_load: clamping --clients %d to process-table capacity %d\n",
                 opt.clients, max_clients);
    opt.clients = max_clients;
  }
  OSIRIS_ASSERT(opt.clients >= 1);
  OSIRIS_ASSERT(opt.payload >= 1);

  fi::Site* vfs_site = vfs_entry_site();

  std::printf("serving_load: %d clients, %.1fs/run, profile=%s, payload=%zu, seed=%llu\n",
              opt.clients, opt.seconds, opt.profile.c_str(), opt.payload,
              static_cast<unsigned long long>(opt.seed));
  std::printf("%-10s %-8s %12s %10s %10s %10s %10s\n", "config", "phase", "msgs/sec", "p50us",
              "p99us", "p999us", "spike ms");

  // Untimed warm-up: the first run otherwise pays CPU-frequency ramp, page
  // faults, and cold allocator state.
  {
    Options warm = opt;
    warm.seconds = std::min(0.3, opt.seconds);
    (void)run_serving(warm, "warmup", nullptr, 0.0);
  }

  auto median_rep = [](std::vector<RunResult>& reps) -> RunResult {
    std::sort(reps.begin(), reps.end(),
              [](const RunResult& a, const RunResult& b) { return a.msgs_per_sec < b.msgs_per_sec; });
    return reps[reps.size() / 2];
  };

  std::vector<RunResult> results;
  std::vector<RunResult> steady_reps;
  for (int rep = 0; rep < opt.reps; ++rep) {
    steady_reps.push_back(run_serving(opt, "baseline", nullptr, 0.0));
  }
  const RunResult steady = median_rep(steady_reps);
  std::printf("%-10s %-8s %12.1f %10.2f %10.2f %10.2f %10s\n", steady.config.c_str(),
              steady.phase.c_str(), steady.msgs_per_sec, steady.p50_us, steady.p99_us,
              steady.p999_us, "-");
  std::fflush(stdout);
  results.push_back(steady);
  // Faulted phase after the steady reps, so fault influx never warps them.
  const RunResult faulted = run_serving(opt, "baseline", vfs_site, steady.mean_us * 1000.0);
  std::printf("%-10s %-8s %12.1f %10.2f %10.2f %10.2f %10.1f\n", faulted.config.c_str(),
              faulted.phase.c_str(), faulted.msgs_per_sec, faulted.p50_us, faulted.p99_us,
              faulted.p999_us, faulted.spike_width_ms);
  std::fflush(stdout);
  results.push_back(faulted);

  // Miss-regime sweep over in-flight depth (DESIGN.md §16): fiber path vs
  // FOM executor, with the cache shrunk to an eighth of the working set.
  // Depth = concurrent clients: at depth 1 the two paths tie (nothing to
  // overlap), and the executor's advantage grows with depth because parked
  // requests stop serializing the disk waits.
  std::printf("\n%-14s %-6s %6s %12s %12s %10s %9s %8s\n", "config", "phase", "depth",
              "msgs/ktick", "msgs/sec", "p50us", "inflight", "parks");
  std::vector<int> depths;
  for (const int d : {1, opt.clients / 4, opt.clients}) {
    if (d >= 1 && (depths.empty() || d > depths.back())) depths.push_back(d);
  }
  double fiber_miss = 0.0, fom_miss = 0.0;  // msgs/ktick at max depth
  for (const int depth : depths) {
    Options miss_opt = opt;
    miss_opt.clients = depth;
    // Block-sized ops: the serving-miss workload is random single-block
    // reads over a cold set. Bulk multi-block ops would re-run the handler
    // once per missing block under the executor (the documented re-execution
    // amplification, EXPERIMENTS.md), which measures re-run cost, not the
    // stall; one block per op isolates the overlap the axis is after.
    miss_opt.payload = fs::kBlockSize;
    for (const bool fom : {false, true}) {
      std::vector<RunResult> reps;
      for (int rep = 0; rep < opt.reps; ++rep) {
        reps.push_back(run_serving(miss_opt, fom ? "fom" : "fiber", nullptr, 0.0, fom,
                                   /*miss_regime=*/true));
      }
      RunResult miss = median_rep(reps);
      std::printf("%-14s %-6s %6d %12.2f %12.1f %10.2f %9llu %8llu\n", miss.config.c_str(),
                  miss.phase.c_str(), miss.depth, miss.msgs_per_ktick, miss.msgs_per_sec,
                  miss.p50_us, static_cast<unsigned long long>(miss.fom.in_flight_high_water),
                  static_cast<unsigned long long>(miss.fom.parks));
      std::fflush(stdout);
      if (depth == depths.back()) (fom ? fom_miss : fiber_miss) = miss.msgs_per_ktick;
      results.push_back(miss);
    }
  }
  const double fom_speedup = fiber_miss > 0 ? fom_miss / fiber_miss : 0.0;
  std::printf("\nmiss-regime virtual-time speedup at depth %d (fom / fiber): %.2fx\n",
              depths.back(), fom_speedup);

  std::FILE* f = stdout;
  if (!opt.out.empty()) {
    f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serving_load: cannot open %s\n", opt.out.c_str());
      return 1;
    }
  } else {
    std::printf("\n");
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serving_load\",\n  \"clients\": %d,\n  \"seconds\": %.2f,\n"
               "  \"profile\": \"%s\",\n  \"payload_bytes\": %zu,\n  \"seed\": %llu,\n"
               "  \"mean_interval_ticks\": %.1f,\n  \"fault_interval\": %llu,\n"
               "  \"speedup_miss_fom\": %.3f,\n"
               "  \"spike_width_ms\": %.1f,\n"
               "  \"runs\": [\n",
               opt.clients, opt.seconds, opt.profile.c_str(), opt.payload,
               static_cast<unsigned long long>(opt.seed), opt.mean_interval,
               static_cast<unsigned long long>(opt.fault_interval), fom_speedup,
               faulted.spike_width_ms);
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_run(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
  return 0;
}
