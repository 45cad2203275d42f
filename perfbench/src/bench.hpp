// Shared pieces of the benchmark driver: host timing, the outside-in layer
// ledger, the per-repetition result record, and small statistics helpers.
//
// Every figure is taken from outside the system: the driver times its own
// calls into the public APIs (Kernel::dispatch_pending/send/make_grant,
// VirtualClock::advance_to_next, the ISys syscalls, and the crash handler it
// installs around recovery::Engine::on_crash) and reads the public stats
// structs. No program code is changed to take these measurements.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "os/instance.hpp"

namespace perfbench {

using osiris::Tick;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Host-time layers of the ledger. kNone is time no span covers (the
/// driver's loop itself): the residual that keeps the ledger honest.
/// kGen is the load generator's own code (the serving clients, or the user
/// programs' bodies on proc-faulted); kSystem is proc-faulted's system mode,
/// where OsInstance::run owns the dispatch loop and kernel dispatch,
/// scheduler and clock cannot be told apart from outside.
enum class Layer : std::uint8_t { kNone, kDispatch, kAdvance, kSend, kGrant, kCrash, kGen, kSystem, kCount };
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Op types the per-server latency metrics are keyed by.
enum class OpKind : std::uint8_t {
  kRead, kWrite, kStat, kSeek, kPipe, kDs, kGetpid, kFork, kOtherPm, kOtherVfs, kCount
};
inline constexpr std::size_t kOpKinds = static_cast<std::size_t>(OpKind::kCount);

/// One recorded span. Call spans carry their Layer in `kind`; op spans carry
/// 100 + OpKind, the target server endpoint and the request id.
struct Span {
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t kind;
  std::int32_t target;
  std::uint64_t req;
};

/// Exclusive-time accounting over a stack of open spans: every transition
/// charges the time since the previous one to the layer on top of the
/// stack, so nested layers (a client callback inside dispatch_pending, a
/// crash handler inside a dispatch) are never counted twice and the layers
/// sum to the timed phase by construction minus what no span saw (kNone).
/// Inactive unless the repetition is traced; outside the timed phase the
/// stack is still maintained so spans may straddle its start.
class Ledger {
 public:
  /// Spans kept for the written trace; aggregates cover every span.
  static constexpr std::size_t kSpanCap = 1u << 18;

  explicit Ledger(bool traced) : traced_(traced) {
    stack_.push_back(Layer::kNone);
    if (traced_) spans_.reserve(kSpanCap);  // no reallocation inside the timed phase
  }

  void start() {
    if (!traced_) return;
    mark_ = start_ = now_ns();
    active_ = true;
  }
  void stop() {
    if (!active_) return;
    charge(now_ns());
    total_ns_ = mark_ - start_;
    active_ = false;
  }

  void begin(Layer l) {
    if (!traced_) return;
    const std::uint64_t t = now_ns();
    charge(t);
    stack_.push_back(l);
    opened_.push_back(t);
  }
  void end() {
    if (!traced_) return;
    const std::uint64_t t = now_ns();
    charge(t);
    const Layer l = stack_.back();
    const std::uint64_t t0 = opened_.back();
    stack_.pop_back();
    opened_.pop_back();
    if (active_) {
      ++calls_[static_cast<std::size_t>(l)];
      incl_ns_[static_cast<std::size_t>(l)] += t - t0;
      if (spans_.size() < kSpanCap) spans_.push_back({t0, t - t0, static_cast<std::uint32_t>(l), 0, 0});
    }
  }
  /// Replace the top of the stack (proc-faulted's user/system mode switch:
  /// fibers interleave, so modes are a state, not a nesting).
  void switch_to(Layer l) {
    if (!traced_ || stack_.back() == l) return;
    charge(now_ns());
    stack_.back() = l;
  }

  void op_span(std::uint64_t start, std::uint64_t dur, OpKind k, std::int32_t target,
               std::uint64_t req) {
    if (active_ && spans_.size() < kSpanCap) {
      spans_.push_back({start, dur, 100u + static_cast<std::uint32_t>(k), target, req});
    }
  }

  [[nodiscard]] std::uint64_t excl_ns(Layer l) const { return excl_ns_[static_cast<std::size_t>(l)]; }
  [[nodiscard]] std::uint64_t incl_ns(Layer l) const { return incl_ns_[static_cast<std::size_t>(l)]; }
  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[static_cast<std::size_t>(l)]; }
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return total_ns_; }
  [[nodiscard]] std::vector<Span>& spans() noexcept { return spans_; }

 private:
  void charge(std::uint64_t t) {
    if (active_) excl_ns_[static_cast<std::size_t>(stack_.back())] += t - mark_;
    mark_ = t;
  }

  bool traced_;
  bool active_ = false;
  std::uint64_t start_ = 0;
  std::uint64_t mark_ = 0;
  std::uint64_t total_ns_ = 0;
  std::vector<Layer> stack_;
  std::vector<std::uint64_t> opened_;
  std::array<std::uint64_t, kLayers> excl_ns_{};
  std::array<std::uint64_t, kLayers> incl_ns_{};
  std::array<std::uint64_t, kLayers> calls_{};
  std::vector<Span> spans_;
};

/// RAII call span.
class Scope {
 public:
  Scope(Ledger& l, Layer layer) : l_(l) { l_.begin(layer); }
  ~Scope() { l_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& l_;
};

/// How one repetition runs.
struct RepConfig {
  std::uint64_t seed = 1;
  osiris::ckpt::Mode ckpt_mode = osiris::ckpt::Mode::kWindowOnly;
};

/// Result of one fixed-work repetition.
struct Rep {
  double setup_s = 0.0;  // boot + clients/files + warm-up, host seconds
  double timed_s = 0.0;  // the fixed op count, host seconds
  // Per timed op (parallel vectors).
  std::vector<std::uint64_t> lat_ns;
  std::vector<std::uint8_t> op_kind;
  std::vector<Tick> vlat;
  /// Crash-handler host time per fault: (crashed endpoint, ns).
  std::vector<std::pair<std::int32_t, std::uint64_t>> recovery_ns;
  /// Deterministic figures — counts and virtual-time results — keyed by
  /// their output metric name. Must be bit-identical across repetitions of
  /// one seed (the determinism guard).
  std::map<std::string, double> exact;
  std::uint64_t fingerprint = 0;  // hash over every op's virtual latency and status
  std::uint64_t attempted = 0;    // work units
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks (first few)
  std::uint64_t procs_created = 0;
};

/// FNV-1a step for the fingerprint.
inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

/// Nearest-rank percentile (p in [0,1]); 0 for an empty sample.
template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Public stats of one machine, snapshotted at the edges of the timed phase
/// so every count covers exactly the fixed op count.
struct StatsSnap {
  osiris::kernel::KernelStats kern;
  osiris::fs::CacheStats cache;
  osiris::fs::BlockDevStats disk;
  osiris::recovery::EngineStats engine;
  std::uint64_t windows = 0, closed_by_seep = 0, closed_by_yield = 0;
  std::uint64_t undo_records = 0;
  std::size_t undo_peak_bytes = 0;
  double weighted_coverage = 0.0;
  std::uint64_t probe_hits = 0;
  std::uint64_t steps = 0;
  Tick vnow = 0;
};
StatsSnap snapshot(osiris::os::OsInstance& inst);

/// Fill `rep.exact` with the deterministic per-layer figures (kernel, fs,
/// seep, ckpt, fi, recovery counts) over the timed phase [a, b].
void fill_layer_counts(Rep& rep, const StatsSnap& a, const StatsSnap& b, std::uint64_t ops);

/// Install the timing wrapper around recovery::Engine::on_crash. `hook`
/// runs after each recovery (the driver's fault bookkeeping).
void wrap_crash_handler(osiris::os::OsInstance& inst, Ledger& ledger, Rep& rep,
                        std::function<void(const osiris::kernel::CrashContext&)> hook);

/// Host seconds one fixed reference computation takes now. The computation
/// lives in the benchmark, not in the system, and mixes the kinds of host
/// work the simulator does (hash-map churn, block copies, small and
/// fiber-stack-sized allocations, an ordered timer queue, random touches
/// over a working set larger than the caches, user-context switches), so its
/// time tracks how fast the shared machine runs at the moment without moving
/// when the system's code changes.
double calibration_seconds();

/// Record an output-check failure (the first few are kept for the report).
inline void fail_check(Rep& rep, const std::string& what) {
  ++rep.failed;
  if (rep.errors.size() < 8) rep.errors.push_back(what);
}

// --- workloads ------------------------------------------------------------

Rep run_serve_hit(const RepConfig& rc, Ledger& ledger);
Rep run_serve_miss(const RepConfig& rc, Ledger& ledger);
/// One-time site discovery for proc-faulted (profiles an untimed machine).
void proc_prepare();
Rep run_proc_faulted(const RepConfig& rc, Ledger& ledger);

}  // namespace perfbench
