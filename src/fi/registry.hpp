// Fault-site registry and probe runtime.
//
// FI_BLOCK / FI_VALUE / FI_BRANCH probes are placed throughout the system
// servers (and nowhere in the RCB), standing in for EDFI's compile-time
// fault candidates. Each probe serves three roles:
//
//   1. coverage: it reports a basic-block execution to the current
//      component's recovery window (the Table I numerator/denominator);
//   2. profiling: it counts per-site executions, which the campaign driver
//      uses to select triggered, non-boot-time fault candidates (SVI-B);
//   3. injection: when the campaign has armed this site, the probe triggers
//      the planted fault at the configured execution number.
//
// Identity vs. state split (parallel campaigns): a Site is an immutable
// process-wide *descriptor* — function-local statics register once, under a
// mutex, with the global SiteDirectory, so identities are stable across the
// thousands of runs in a campaign and across worker threads. All *mutable*
// probe state (execution counters, armed-fault state, component attribution)
// lives in a per-thread Registry, mirroring how ckpt::Context::active_ is
// thread-scoped: every campaign worker owns a fully isolated simulator, so
// concurrent injection runs cannot observe each other's counters or faults.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fi/fault.hpp"
#include "kernel/faults.hpp"
#include "seep/window.hpp"

namespace osiris::fi {

struct Site {
  const char* file;
  int line;
  const char* tag;    // subsystem tag, e.g. "pm", "vfs"
  SiteKind kind;
  std::uint32_t id = 0;  // dense index assigned by the SiteDirectory

  Site(const char* f, int l, const char* t, SiteKind k);

  /// Executions since the last reset — on the *calling thread's* registry.
  [[nodiscard]] std::uint64_t hits() const;
  /// Executions during boot (excluded fault candidates), same scoping.
  [[nodiscard]] std::uint64_t boot_hits() const;
};

/// Process-global, append-only directory of probe sites. Registration happens
/// on first execution of each probe, possibly from a campaign worker thread,
/// so the directory is the one piece of fi:: state that stays shared — and
/// the only one that needs a lock.
class SiteDirectory {
 public:
  static SiteDirectory& instance();

  std::uint32_t register_site(Site* site);

  /// Stable snapshot of all registered sites (copy taken under the lock:
  /// workers may be registering late-bound recovery-path probes).
  [[nodiscard]] std::vector<Site*> snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  SiteDirectory() = default;

  mutable std::mutex mu_;
  std::vector<Site*> sites_;
};

/// Per-component probe attribution, installed by ServerBase around dispatch.
struct ActiveComponent {
  seep::Window* window = nullptr;
  int endpoint = -1;
};

/// Per-thread probe runtime: execution counters, attribution, and the armed
/// injection. `instance()` returns the calling thread's registry, so each
/// campaign worker (one OS instance per thread) is isolated by construction.
class Registry {
 public:
  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The calling thread's registry (created on first use per thread).
  static Registry& instance();

  // --- site management --------------------------------------------------
  /// Snapshot of the global directory (identities are process-wide even
  /// though counters are per-thread).
  [[nodiscard]] static std::vector<Site*> sites() { return SiteDirectory::instance().snapshot(); }

  /// Zero all per-run execution counters. OsInstance::boot() calls it, after
  /// disarm(), so every machine starts a fresh run.
  void reset_counts();

  /// Snapshot current counts into boot_hits and zero them: everything
  /// executed so far is boot-time and excluded from fault candidacy.
  void mark_boot_complete();

  [[nodiscard]] std::uint64_t hits(const Site* site) const;
  [[nodiscard]] std::uint64_t boot_hits(const Site* site) const;

  // --- probe attribution --------------------------------------------------
  void set_active(ActiveComponent ac) noexcept { active_ = ac; }
  [[nodiscard]] ActiveComponent active() const noexcept { return active_; }

  // --- injection plan -----------------------------------------------------
  /// Arm one fault: `site` triggers `type` on its `trigger_hit`-th execution
  /// (1-based, counted from the last reset). kDelayedCrash additionally
  /// crashes `delay` executions after triggering.
  void arm(const Site* site, FaultType type, std::uint64_t trigger_hit,
           std::uint64_t delay = 3);
  /// Persistent-bug model (escalation-ladder campaigns): the fault re-fires
  /// on *every* execution of `site` at or after `trigger_hit` — recovery
  /// does not clear it, exactly like a deterministic bug in a hot path.
  void arm_persistent(const Site* site, FaultType type, std::uint64_t trigger_hit);
  /// Figure 3 driver: realize a fail-stop fault at `site` every
  /// `hit_interval` executions, but only while the active component's
  /// recovery window is OPEN (the paper injects only inside the window so
  /// every fault is consistently recoverable and the benchmark completes).
  void arm_periodic_window_crash(const Site* site, std::uint64_t hit_interval);

  void disarm();
  [[nodiscard]] bool armed() const noexcept {
    return armed_site_ != nullptr || periodic_site_ != nullptr;
  }
  [[nodiscard]] std::uint64_t injections_fired() const noexcept { return fired_; }

  // --- storm faults (liveness campaigns) ---------------------------------
  /// A storm probe never throws: instead it *records* the firing here and
  /// ServerBase picks it up after the dispatch returns, turning it into a
  /// self-notification burst (kHandlerSpin) or a flood pump against
  /// `storm_victim` (kChannelFlood). The storm's owner is the endpoint whose
  /// code hosts the armed probe — the component quarantine must silence.
  struct StormPlan {
    FaultType type = FaultType::kNone;
    int victim = -1;        // kChannelFlood target endpoint (-1 = unset)
    std::uint32_t burst = 0;  // spin notes per fire / flood notes per pump period
  };
  void set_storm_plan(int victim, std::uint32_t burst) noexcept {
    storm_victim_ = victim;
    storm_burst_ = burst;
  }
  /// Take the storm firing recorded by the last probe hit (if any); clears
  /// the pending slot so each firing activates at most once.
  [[nodiscard]] StormPlan take_pending_storm() noexcept {
    const StormPlan p = pending_storm_;
    pending_storm_ = StormPlan{};
    return p;
  }
  /// First virtual tick at which a storm fault fired this run (detection-
  /// latency zero point). A storm born before the clock's first advance
  /// legitimately starts at tick 0, so liveness is tracked by storm_fired(),
  /// not by a nonzero tick.
  [[nodiscard]] std::uint64_t storm_start_tick() const noexcept { return storm_start_tick_; }
  [[nodiscard]] bool storm_fired() const noexcept { return storm_fired_; }
  void note_storm_start(std::uint64_t tick) noexcept {
    if (!storm_fired_) {
      storm_fired_ = true;
      storm_start_tick_ = tick;
    }
  }
  /// Quarantine hook: if the armed fault is a storm type owned by
  /// `endpoint`, disarm it so readmission does not re-trigger the storm
  /// (satellite: quarantine must *end* infinite re-firing faults). Other
  /// persistent faults are left armed — recurring-crash campaigns depend on
  /// them surviving recovery. Returns true if something was disarmed.
  bool disarm_storms_for(int endpoint);
  /// True while a storm fault armed at `endpoint`'s probe is still live —
  /// the flood pump polls this to know when to stop rescheduling itself.
  [[nodiscard]] bool storm_armed_for(int endpoint) const noexcept {
    return armed_site_ != nullptr && storm_owner_ == endpoint &&
           (armed_type_ == FaultType::kHandlerSpin ||
            armed_type_ == FaultType::kChannelFlood);
  }
  /// Narrower check for the spin sustain path: every FI_SPIN dispatch at the
  /// owner re-notes itself while this holds, independent of which probe site
  /// hosts the armed fault (the site only has to fire once to seed).
  [[nodiscard]] bool spin_armed_for(int endpoint) const noexcept {
    return armed_site_ != nullptr && storm_owner_ == endpoint &&
           armed_type_ == FaultType::kHandlerSpin;
  }

  // --- probe fast path ------------------------------------------------
  /// Called on every probe execution. Returns the fault type to realize at
  /// this execution (kNone almost always).
  FaultType on_hit(Site* site);

 private:
  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t boot_hits = 0;
  };

  /// Counter slot for `site`, growing the table for late-registered sites.
  Counts& slot(const Site* site) const;

  /// Post-process a fault about to be returned from on_hit(): storm types
  /// are parked in pending_storm_ (realized later by ServerBase), everything
  /// else passes through untouched.
  FaultType deliver(FaultType t);

  static constexpr std::uint32_t kDefaultStormBurst = 4;

  // Indexed by Site::id. Mutable so const accessors can lazily grow it.
  mutable std::vector<Counts> counts_;
  ActiveComponent active_;
  const Site* armed_site_ = nullptr;
  FaultType armed_type_ = FaultType::kNone;
  std::uint64_t trigger_hit_ = 0;
  std::uint64_t delay_ = 0;
  bool delayed_pending_ = false;
  bool persistent_ = false;     // re-fire on every hit >= trigger (deterministic bug)
  const Site* periodic_site_ = nullptr;
  std::uint64_t periodic_interval_ = 0;
  std::uint64_t periodic_last_fire_ = 0;
  std::uint64_t fired_ = 0;
  // Storm bookkeeping (see StormPlan above).
  int storm_victim_ = -1;
  std::uint32_t storm_burst_ = 0;
  int storm_owner_ = -1;  // endpoint whose probe hosts the armed storm fault
  StormPlan pending_storm_;
  std::uint64_t storm_start_tick_ = 0;
  bool storm_fired_ = false;
};

// --- probe implementation functions (called via the macros below) ---------

/// Plain basic-block probe: may realize kNullDeref / kHang / kDelayedCrash.
void block_probe(Site* site);

/// Value probe: returns `v`, possibly corrupted (kCorruptValue, kOffByOne).
std::int64_t value_probe(Site* site, std::int64_t v);

/// Branch probe: returns `cond`, possibly flipped (kBranchFlip).
bool branch_probe(Site* site, bool cond);

}  // namespace osiris::fi

// Probe macros. `tag` is the subsystem name; each expansion is one site.
#define FI_BLOCK(tag)                                                            \
  do {                                                                           \
    static ::osiris::fi::Site _fi_site(__FILE__, __LINE__, (tag),                \
                                       ::osiris::fi::SiteKind::kBlock);          \
    ::osiris::fi::block_probe(&_fi_site);                                        \
  } while (0)

#define FI_VALUE(tag, v)                                                         \
  ([&]() -> std::int64_t {                                                       \
    static ::osiris::fi::Site _fi_site(__FILE__, __LINE__, (tag),                \
                                       ::osiris::fi::SiteKind::kValue);          \
    return ::osiris::fi::value_probe(&_fi_site, static_cast<std::int64_t>(v));   \
  }())

#define FI_BRANCH(tag, cond)                                                     \
  ([&]() -> bool {                                                               \
    static ::osiris::fi::Site _fi_site(__FILE__, __LINE__, (tag),                \
                                       ::osiris::fi::SiteKind::kBranch);         \
    return ::osiris::fi::branch_probe(&_fi_site, static_cast<bool>(cond));       \
  }())
