// serve-hit and serve-miss: closed-loop raw kernel clients.
//
// 32 clients, each a kernel::IClient registered as a boot process, keep one
// request outstanding at a time. A reply is checked against the client's
// own model (read-back bytes equal what it last wrote there, stat sizes, DS
// values, pids), then the client waits an exponential virtual think time
// (mean 6 ticks) and issues its next op. A repetition is a fixed, seeded op
// count: the first warmup_ops belong to setup, the next timed_ops are timed.
// Virtual-time results therefore repeat bit for bit and only host speed
// varies between repetitions.
#include <cmath>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "servers/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace osiris;

constexpr int kClients = 32;
constexpr double kThinkMeanTicks = 6.0;
/// A client whose op has made no progress for this long has lost its reply.
constexpr Tick kStallTicks = 200'000;

enum class Pick : std::uint8_t { kRead, kWrite, kStat, kRetrieve, kPublish, kGetpid };

struct ServeSpec {
  std::array<int, 6> mix;  // per-mille, indexed by Pick
  std::size_t payload;     // bytes per read/write
  std::size_t file_bytes;  // per client
  bool cache_all;          // false: the cache holds 1/8 of the working set
  std::uint64_t warmup_ops;
  std::uint64_t timed_ops;
};

// serving_load's `mixed` profile: 32 KiB bulk I/O with a metadata tail, the
// whole working set cache-resident.
constexpr ServeSpec kHit{{450, 200, 150, 80, 40, 80}, 32 * 1024, 256 * 1024, true, 4000, 60000};
// Single-block streaming I/O over a working set eight times the cache.
constexpr ServeSpec kMiss{{700, 300, 0, 0, 0, 0}, fs::kBlockSize, 256 * 1024, false, 4000, 200000};

struct Run;

class Client final : public kernel::IClient {
 public:
  Client(Run& run, int id, Rng rng);

  void setup();
  void issue();
  void on_reply(const kernel::Message& r) override;
  void on_notify(const kernel::Message&) override {}

  [[nodiscard]] bool outstanding() const noexcept { return outstanding_; }

 private:
  kernel::Message sync_request(kernel::Endpoint dst, kernel::Message m);
  [[nodiscard]] Pick pick();
  void check(const kernel::Message& r);

  Run& run_;
  int id_;
  Rng rng_;
  kernel::Endpoint ep_{};
  std::string path_;
  std::string key_;
  std::int64_t fd_ = -1;
  std::size_t pos_ = 0;
  std::vector<std::byte> io_;
  std::vector<std::byte> model_;  // the file's expected contents
  std::uint64_t published_ = 1;   // the DS value last acknowledged
  std::uint64_t writes_ = 0;
  kernel::GrantId grant_ = 0;
  bool outstanding_ = false;
  bool setup_waiting_ = false;
  kernel::Message setup_reply_{};
  // The op in flight.
  Pick op_ = Pick::kGetpid;
  bool seek_ = false;
  bool timed_ = false;
  std::uint64_t req_ = 0;
  std::uint64_t issue_ns_ = 0;
  Tick issue_tick_ = 0;
};

/// Shared state of one repetition.
struct Run {
  Run(const ServeSpec& s, os::OsInstance& i, Ledger& l, Rep& r) : spec(s), inst(i), ledger(l), rep(r) {}

  const ServeSpec& spec;
  os::OsInstance& inst;
  Ledger& ledger;
  Rep& rep;
  std::uint64_t issued = 0;      // global op index
  std::uint64_t timed_done = 0;  // timed ops answered
  std::uint64_t timed_start_ns = 0;
  std::uint64_t timed_end_ns = 0;
  Tick last_reply_tick = 0;
  StatsSnap start;

  void begin_timed() {
    start = snapshot(inst);
    timed_start_ns = now_ns();
    ledger.start();
  }
};

Client::Client(Run& run, int id, Rng rng) : run_(run), id_(id), rng_(rng) {
  io_.resize(run_.spec.payload);
  path_ = "/tmp/cli" + std::to_string(id);
  key_ = "bench.cli" + std::to_string(id);
  ep_ = run_.inst.kern().register_client(this);
}

kernel::Message Client::sync_request(kernel::Endpoint dst, kernel::Message m) {
  os::OsInstance& inst = run_.inst;
  setup_waiting_ = true;
  inst.kern().send(ep_, dst, m);
  while (setup_waiting_) {
    if (!inst.kern().dispatch_pending() && !inst.clock().advance_to_next()) {
      OSIRIS_PANIC("perfbench: setup request wedged");
    }
  }
  return setup_reply_;
}

void Client::setup() {
  os::OsInstance& inst = run_.inst;
  inst.pm().register_boot_proc(id_, ep_, "bench");
  inst.vm().register_boot_proc(id_);
  inst.vfs().register_boot_proc(id_, ep_);
  inst.sys_task().register_boot_proc(id_);

  kernel::Message r = sync_request(
      kernel::kVfsEp, servers::encode_text(servers::VFS_OPEN, path_, servers::O_CREAT | servers::O_RDWR));
  OSIRIS_ASSERT(r.sarg(0) >= 0);
  fd_ = r.sarg(0);
  model_.resize(run_.spec.file_bytes);
  for (std::size_t i = 0; i < model_.size(); ++i) {
    model_[i] = static_cast<std::byte>((i * 131u + static_cast<unsigned>(id_) * 7u) & 0xff);
  }
  const kernel::GrantId g = inst.kern().make_grant(ep_, kernel::kVfsEp, model_.data(),
                                                   model_.size(), kernel::Access::kRead);
  r = sync_request(kernel::kVfsEp, servers::encode(servers::VFS_WRITE, static_cast<std::uint64_t>(fd_),
                                                   g, model_.size()));
  inst.kern().revoke_grant(g);
  OSIRIS_ASSERT(r.sarg(0) == static_cast<std::int64_t>(model_.size()));
  r = sync_request(kernel::kVfsEp,
                   servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_), 0, 0));
  OSIRIS_ASSERT(r.sarg(0) == 0);
  r = sync_request(kernel::kDsEp, servers::encode_text(servers::DS_PUBLISH, key_, published_));
  OSIRIS_ASSERT(r.sarg(0) >= 0);
}

Pick Client::pick() {
  const int roll = static_cast<int>(rng_.below(1000));
  int acc = 0;
  for (std::size_t i = 0; i < run_.spec.mix.size(); ++i) {
    acc += run_.spec.mix[i];
    if (roll < acc) return static_cast<Pick>(i);
  }
  return Pick::kGetpid;
}

void Client::issue() {
  const ServeSpec& spec = run_.spec;
  if (run_.issued == spec.warmup_ops + spec.timed_ops) return;  // the fixed budget is spent
  const std::uint64_t idx = run_.issued++;
  if (idx == spec.warmup_ops) run_.begin_timed();
  timed_ = idx >= spec.warmup_ops;
  req_ = idx;
  op_ = pick();
  seek_ = false;
  outstanding_ = true;
  kernel::Kernel& kern = run_.inst.kern();
  Ledger& ledger = run_.ledger;
  issue_tick_ = run_.inst.clock().now();
  issue_ns_ = now_ns();

  kernel::Message m;
  kernel::Endpoint dst = kernel::kVfsEp;
  switch (op_) {
    case Pick::kRead:
    case Pick::kWrite: {
      if (pos_ + spec.payload > spec.file_bytes) {
        // Wrap the file cursor; one more (small-message) VFS op.
        seek_ = true;
        m = servers::encode(servers::VFS_LSEEK, static_cast<std::uint64_t>(fd_), 0, 0);
        break;
      }
      const bool rd = op_ == Pick::kRead;
      if (!rd) std::memset(io_.data(), static_cast<int>((id_ * 29 + ++writes_) & 0xff), io_.size());
      {
        Scope g(ledger, Layer::kGrant);
        grant_ = kern.make_grant(ep_, kernel::kVfsEp, io_.data(), io_.size(),
                                 rd ? kernel::Access::kWrite : kernel::Access::kRead);
      }
      m = servers::encode(rd ? servers::VFS_READ : servers::VFS_WRITE,
                          static_cast<std::uint64_t>(fd_), grant_, io_.size());
      break;
    }
    case Pick::kStat:
      m = servers::encode_text(servers::VFS_STAT, path_);
      break;
    case Pick::kRetrieve:
      dst = kernel::kDsEp;
      m = servers::encode_text(servers::DS_RETRIEVE, key_);
      break;
    case Pick::kPublish:
      dst = kernel::kDsEp;
      m = servers::encode_text(servers::DS_PUBLISH, key_, published_ + 1);
      break;
    case Pick::kGetpid:
      dst = kernel::kPmEp;
      m = servers::encode(servers::PM_GETPID);
      break;
  }
  Scope s(ledger, Layer::kSend);
  kern.send(ep_, dst, m);
}

void Client::check(const kernel::Message& r) {
  const std::int64_t st = r.sarg(0);
  const std::size_t n = io_.size();
  bool ok = st >= 0;
  if (seek_) {
    ok = st == 0;
    if (ok) pos_ = 0;
  } else {
    switch (op_) {
      case Pick::kRead:
        ok = st == static_cast<std::int64_t>(n) && std::memcmp(io_.data(), model_.data() + pos_, n) == 0;
        if (ok) pos_ += n;
        break;
      case Pick::kWrite:
        ok = st == static_cast<std::int64_t>(n);
        if (ok) {
          std::memcpy(model_.data() + pos_, io_.data(), n);
          pos_ += n;
        }
        break;
      case Pick::kStat:
        ok = ok && r.arg[0] == run_.spec.file_bytes;
        break;
      case Pick::kRetrieve:
        ok = st == kernel::OK && r.arg[1] == published_;
        break;
      case Pick::kPublish:
        if (ok) ++published_;
        break;
      case Pick::kGetpid:
        ok = st == id_;
        break;
    }
  }
  if (!ok) {
    fail_check(run_.rep, "client " + std::to_string(id_) + " op " + std::to_string(req_) +
                             " status " + std::to_string(st) + ": reply does not match the model");
    pos_ = run_.spec.file_bytes;  // force a rewind before the next bulk op
  }
}

OpKind kind_of(Pick p, bool seek) {
  if (seek) return OpKind::kSeek;
  switch (p) {
    case Pick::kRead: return OpKind::kRead;
    case Pick::kWrite: return OpKind::kWrite;
    case Pick::kStat: return OpKind::kStat;
    case Pick::kRetrieve:
    case Pick::kPublish: return OpKind::kDs;
    case Pick::kGetpid: return OpKind::kGetpid;
  }
  return OpKind::kOtherVfs;
}

void Client::on_reply(const kernel::Message& r) {
  if (setup_waiting_) {
    setup_reply_ = r;
    setup_waiting_ = false;
    return;
  }
  const std::uint64_t t = now_ns();
  const Tick vt = run_.inst.clock().now();
  Ledger& ledger = run_.ledger;
  Scope gen(ledger, Layer::kGen);
  if (grant_ != 0) {
    Scope g(ledger, Layer::kGrant);
    run_.inst.kern().revoke_grant(grant_);
    grant_ = 0;
  }
  check(r);
  outstanding_ = false;
  run_.last_reply_tick = vt;
  if (timed_) {
    Rep& rep = run_.rep;
    const OpKind k = kind_of(op_, seek_);
    rep.lat_ns.push_back(t - issue_ns_);
    rep.op_kind.push_back(static_cast<std::uint8_t>(k));
    rep.vlat.push_back(vt - issue_tick_);
    fnv(rep.fingerprint, (vt - issue_tick_) * 64 + static_cast<std::uint64_t>(k));
    fnv(rep.fingerprint, static_cast<std::uint64_t>(r.sarg(0)));
    ledger.op_span(issue_ns_, t - issue_ns_, k,
                   op_ == Pick::kGetpid ? kernel::kPmEp.value
                   : (op_ == Pick::kRetrieve || op_ == Pick::kPublish) && !seek_ ? kernel::kDsEp.value
                                                                                 : kernel::kVfsEp.value,
                   req_);
    if (++run_.timed_done == run_.spec.timed_ops) {
      run_.timed_end_ns = t;
    }
  }
  const Tick think =
      static_cast<Tick>(-std::log(1.0 - rng_.uniform()) * kThinkMeanTicks + 0.5);
  if (think == 0) {
    issue();
  } else {
    run_.inst.clock().call_after(think, [this] {
      Scope g(run_.ledger, Layer::kGen);
      issue();
    });
  }
}

Rep run_serve(const ServeSpec& spec, const RepConfig& rc, Ledger& ledger) {
  Rep rep;
  rep.fingerprint = 14695981039346656037ULL;
  const std::uint64_t t0 = now_ns();
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();

  const std::size_t file_blocks = kClients * spec.file_bytes / fs::kBlockSize;
  os::OsConfig cfg;  // Enhanced policy, kWindowOnly checkpointing, no fast path
  cfg.ckpt_mode = rc.ckpt_mode;
  cfg.max_recoveries = 1u << 30;
  cfg.disk_blocks = 2 * file_blocks + 2048;
  cfg.cache_blocks = spec.cache_all ? file_blocks + 256 : file_blocks / 8;
  os::OsInstance inst(cfg);
  inst.boot();
  Run run(spec, inst, ledger, rep);
  wrap_crash_handler(inst, ledger, rep, nullptr);

  Rng root(rc.seed);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(run, i + 1, root.fork()));
    clients.back()->setup();
  }
  // Stagger the first issues over one mean think time.
  for (auto& c : clients) {
    inst.clock().call_after(1 + root.below(static_cast<std::uint64_t>(kThinkMeanTicks)), [&run, c = c.get()] {
      Scope g(run.ledger, Layer::kGen);
      c->issue();
    });
  }

  kernel::Kernel& kern = inst.kern();
  VirtualClock& clock = inst.clock();
  run.last_reply_tick = clock.now();
  while (run.timed_done < spec.timed_ops) {
    bool did;
    {
      Scope s(ledger, Layer::kDispatch);
      did = kern.dispatch_pending();
    }
    if (did) continue;
    bool advanced;
    {
      Scope s(ledger, Layer::kAdvance);
      advanced = clock.advance_to_next();
    }
    if (!advanced || clock.now() - run.last_reply_tick > kStallTicks) {
      fail_check(rep, "serving loop stalled with replies outstanding");
      break;
    }
  }
  ledger.stop();
  const StatsSnap end = snapshot(inst);

  rep.setup_s = static_cast<double>(run.timed_start_ns - t0) * 1e-9;
  rep.timed_s = static_cast<double>(run.timed_end_ns - run.timed_start_ns) * 1e-9;
  rep.attempted = spec.timed_ops;
  for (const auto& c : clients) {
    if (c->outstanding()) fail_check(rep, "an op was never answered");
  }
  const std::uint64_t ops = rep.lat_ns.size();
  if (ops != spec.timed_ops) fail_check(rep, "timed op count short of the fixed budget");
  fill_layer_counts(rep, run.start, end, ops);
  rep.exact["fail_frac"] = ops > 0 ? static_cast<double>(rep.failed) / static_cast<double>(ops) : 0.0;
  return rep;
}

}  // namespace

Rep run_serve_hit(const RepConfig& rc, Ledger& ledger) { return run_serve(kHit, rc, ledger); }
Rep run_serve_miss(const RepConfig& rc, Ledger& ledger) { return run_serve(kMiss, rc, ledger); }

}  // namespace perfbench
