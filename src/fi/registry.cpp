#include "fi/registry.hpp"

#include "support/common.hpp"
#include "support/log.hpp"
#include "trace/trace.hpp"

namespace osiris::fi {

namespace {

/// Record a fault actually firing (not a mere probe hit), attributed to the
/// component executing the probe. `realized` is the fault as delivered — for
/// kDelayedCrash that is the silent-corruption phase now and the deferred
/// kNullDeref later, matching what the injected component experiences.
inline void trace_fire([[maybe_unused]] int endpoint, [[maybe_unused]] const Site* site,
                       [[maybe_unused]] FaultType realized) {
  OSIRIS_TRACE_EVENT(kFaultFire, endpoint, site->id, static_cast<std::uint64_t>(realized));
}

}  // namespace

Site::Site(const char* f, int l, const char* t, SiteKind k)
    : file(f), line(l), tag(t), kind(k) {
  id = SiteDirectory::instance().register_site(this);
}

std::uint64_t Site::hits() const { return Registry::instance().hits(this); }

std::uint64_t Site::boot_hits() const { return Registry::instance().boot_hits(this); }

// --- SiteDirectory --------------------------------------------------------

SiteDirectory& SiteDirectory::instance() {
  static SiteDirectory directory;
  return directory;
}

std::uint32_t SiteDirectory::register_site(Site* site) {
  const std::lock_guard<std::mutex> lock(mu_);
  sites_.push_back(site);
  return static_cast<std::uint32_t>(sites_.size() - 1);
}

std::vector<Site*> SiteDirectory::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sites_;
}

std::size_t SiteDirectory::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sites_.size();
}

// --- Registry -------------------------------------------------------------

Registry& Registry::instance() {
  // One registry per thread: campaign workers are isolated by construction,
  // and single-threaded callers (tests, examples, benches) see the classic
  // process-global behaviour.
  static thread_local Registry registry;
  return registry;
}

Registry::Counts& Registry::slot(const Site* site) const {
  if (site->id >= counts_.size()) counts_.resize(site->id + 1);
  return counts_[site->id];
}

std::uint64_t Registry::hits(const Site* site) const {
  return site->id < counts_.size() ? counts_[site->id].hits : 0;
}

std::uint64_t Registry::boot_hits(const Site* site) const {
  return site->id < counts_.size() ? counts_[site->id].boot_hits : 0;
}

void Registry::reset_counts() {
  counts_.assign(SiteDirectory::instance().size(), Counts{});
  delayed_pending_ = false;
  pending_storm_ = StormPlan{};
  storm_start_tick_ = 0;
  storm_fired_ = false;
}

void Registry::mark_boot_complete() {
  for (Counts& c : counts_) {
    c.boot_hits = c.hits;
    c.hits = 0;
  }
  delayed_pending_ = false;
}

void Registry::arm(const Site* site, FaultType type, std::uint64_t trigger_hit,
                   std::uint64_t delay) {
  OSIRIS_ASSERT(site != nullptr && type != FaultType::kNone && trigger_hit >= 1);
  OSIRIS_ASSERT(applicable(site->kind, type));
  armed_site_ = site;
  armed_type_ = type;
  trigger_hit_ = trigger_hit;
  delay_ = delay;
  delayed_pending_ = false;
}

void Registry::arm_persistent(const Site* site, FaultType type, std::uint64_t trigger_hit) {
  OSIRIS_ASSERT(site != nullptr && type != FaultType::kNone && trigger_hit >= 1);
  OSIRIS_ASSERT(type != FaultType::kDelayedCrash);  // no delay bookkeeping here
  OSIRIS_ASSERT(applicable(site->kind, type));
  armed_site_ = site;
  armed_type_ = type;
  trigger_hit_ = trigger_hit;
  persistent_ = true;
  delayed_pending_ = false;
}

void Registry::arm_periodic_window_crash(const Site* site, std::uint64_t hit_interval) {
  OSIRIS_ASSERT(site != nullptr && hit_interval >= 1);
  periodic_site_ = site;
  periodic_interval_ = hit_interval;
  periodic_last_fire_ = 0;
}

void Registry::disarm() {
  armed_site_ = nullptr;
  armed_type_ = FaultType::kNone;
  delayed_pending_ = false;
  persistent_ = false;
  periodic_site_ = nullptr;
  periodic_interval_ = 0;
  storm_victim_ = -1;
  storm_burst_ = 0;
  storm_owner_ = -1;
  pending_storm_ = StormPlan{};
  storm_start_tick_ = 0;
  storm_fired_ = false;
}

bool Registry::disarm_storms_for(int endpoint) {
  const bool storm_armed =
      armed_site_ != nullptr && (armed_type_ == FaultType::kHandlerSpin ||
                                 armed_type_ == FaultType::kChannelFlood);
  if (!storm_armed || storm_owner_ != endpoint) return false;
  armed_site_ = nullptr;
  armed_type_ = FaultType::kNone;
  persistent_ = false;
  pending_storm_ = StormPlan{};
  return true;
}

FaultType Registry::deliver(FaultType t) {
  if (t == FaultType::kHandlerSpin || t == FaultType::kChannelFlood) {
    // Storm faults are realized *after* the dispatch returns (ServerBase
    // drains the pending slot), never by throwing out of the probe.
    pending_storm_ = StormPlan{t, storm_victim_,
                               storm_burst_ == 0 ? kDefaultStormBurst : storm_burst_};
    storm_owner_ = active_.endpoint;
  }
  return t;
}

FaultType Registry::on_hit(Site* site) {
  const std::uint64_t hits = ++slot(site).hits;
  // Coverage accounting for Table I.
  if (active_.window != nullptr) active_.window->probe_hit();

  if (site == periodic_site_) {
    if (hits >= periodic_last_fire_ + periodic_interval_ &&
        active_.window != nullptr && active_.window->is_open()) {
      periodic_last_fire_ = hits;
      ++fired_;
      trace_fire(active_.endpoint, site, FaultType::kNullDeref);
      return FaultType::kNullDeref;
    }
    return FaultType::kNone;
  }

  if (site != armed_site_) return FaultType::kNone;

  if (persistent_) {
    // Deterministic-bug model: the fault stays in the code path across
    // recoveries, so it re-fires on every execution from trigger_hit on.
    if (hits < trigger_hit_) return FaultType::kNone;
    ++fired_;
    trace_fire(active_.endpoint, site, armed_type_);
    return deliver(armed_type_);
  }

  if (delayed_pending_ && hits >= trigger_hit_ + delay_) {
    delayed_pending_ = false;
    ++fired_;
    trace_fire(active_.endpoint, site, FaultType::kNullDeref);
    return FaultType::kNullDeref;  // the deferred crash of kDelayedCrash
  }
  if (hits != trigger_hit_) return FaultType::kNone;

  if (armed_type_ == FaultType::kDelayedCrash) {
    delayed_pending_ = true;
    ++fired_;
    trace_fire(active_.endpoint, site, FaultType::kCorruptValue);
    return FaultType::kCorruptValue;  // silent damage now, crash later
  }
  ++fired_;
  trace_fire(active_.endpoint, site, armed_type_);
  return deliver(armed_type_);
}

namespace {

[[noreturn]] void realize_crash(const Site* site) {
  throw kernel::FailStopFault(std::string("injected null-deref at ") + site->tag + ":" +
                              std::to_string(site->line));
}

}  // namespace

void block_probe(Site* site) {
  switch (Registry::instance().on_hit(site)) {
    case FaultType::kNone:
    case FaultType::kCorruptValue:  // silent damage has nothing to corrupt here
    case FaultType::kOffByOne:
    case FaultType::kBranchFlip:
    case FaultType::kHandlerSpin:   // parked in the registry; ServerBase
    case FaultType::kChannelFlood:  // realizes the storm post-dispatch
      return;
    case FaultType::kNullDeref:
      realize_crash(site);
    case FaultType::kHang:
      OSIRIS_DEBUG("fi", "injected hang at %s:%d", site->tag, site->line);
      throw kernel::HangSuspend{};
    case FaultType::kDelayedCrash:
      return;  // handled inside on_hit()
  }
}

std::int64_t value_probe(Site* site, std::int64_t v) {
  switch (Registry::instance().on_hit(site)) {
    case FaultType::kNone:
    case FaultType::kBranchFlip:
    case FaultType::kDelayedCrash:
    case FaultType::kHandlerSpin:
    case FaultType::kChannelFlood:
      return v;
    case FaultType::kCorruptValue:
      return v ^ 0x2A;  // silent corruption
    case FaultType::kOffByOne:
      return v + 1;
    case FaultType::kNullDeref:
      realize_crash(site);
    case FaultType::kHang:
      throw kernel::HangSuspend{};
  }
  return v;
}

bool branch_probe(Site* site, bool cond) {
  switch (Registry::instance().on_hit(site)) {
    case FaultType::kNone:
    case FaultType::kCorruptValue:
    case FaultType::kOffByOne:
    case FaultType::kDelayedCrash:
    case FaultType::kHandlerSpin:
    case FaultType::kChannelFlood:
      return cond;
    case FaultType::kBranchFlip:
      return !cond;
    case FaultType::kNullDeref:
      realize_crash(site);
    case FaultType::kHang:
      throw kernel::HangSuspend{};
  }
  return cond;
}

}  // namespace osiris::fi
