#include "workload/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <string_view>

#include "os/instance.hpp"
#include "support/rng.hpp"
#include "support/worker_pool.hpp"
#include "workload/suite.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/export.hpp"
#endif

namespace osiris::workload {

namespace {

SuiteResult run_suite_fresh(seep::Policy policy) {
  os::OsConfig cfg;
  cfg.policy = policy;
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  return run_suite(inst);
}

}  // namespace

std::vector<std::pair<fi::Site*, std::uint64_t>> profile_sites() {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  (void)run_suite_fresh(seep::Policy::kEnhanced);
  std::vector<std::pair<fi::Site*, std::uint64_t>> out;
  for (fi::Site* s : fi::Registry::sites()) {
    const std::uint64_t hits = reg.hits(s);
    if (hits > 0) out.emplace_back(s, hits);
  }
  return out;
}

std::vector<Injection> plan_failstop(int points_per_site) {
  std::vector<Injection> plan;
  for (auto [site, hits] : profile_sites()) {
    const int points = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(points_per_site), hits));
    for (int j = 0; j < points; ++j) {
      // Spread the trigger points across the site's execution count.
      const std::uint64_t trigger = 1 + (hits * static_cast<std::uint64_t>(j)) /
                                            static_cast<std::uint64_t>(points);
      plan.push_back(Injection{site, fi::FaultType::kNullDeref, trigger});
    }
  }
  return plan;
}

std::vector<Injection> plan_edfi(std::uint64_t seed, int injections_per_site) {
  Rng rng(seed);
  std::vector<Injection> plan;
  for (auto [site, hits] : profile_sites()) {
    // Applicable EDFI fault types for this site kind.
    std::vector<fi::FaultType> types;
    switch (site->kind) {
      case fi::SiteKind::kBlock:
        types = {fi::FaultType::kNullDeref, fi::FaultType::kHang, fi::FaultType::kDelayedCrash};
        break;
      case fi::SiteKind::kValue:
        types = {fi::FaultType::kCorruptValue, fi::FaultType::kOffByOne,
                 fi::FaultType::kNullDeref, fi::FaultType::kDelayedCrash};
        break;
      case fi::SiteKind::kBranch:
        types = {fi::FaultType::kBranchFlip, fi::FaultType::kBranchFlip,
                 fi::FaultType::kNullDeref};
        break;
    }
    for (int j = 0; j < injections_per_site; ++j) {
      Injection inj;
      inj.site = site;
      inj.type = types[rng.below(types.size())];
      inj.trigger_hit = rng.range(1, hits);
      plan.push_back(inj);
    }
  }
  return plan;
}

RunClass run_one_injection(seep::Policy policy, const Injection& inj, std::string* trace_out,
                           const CampaignOptions& opts) {
  // The calling thread's registry: each worker owns an isolated probe
  // runtime, so concurrent injections never see each other's state.
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  os::OsConfig cfg;
  cfg.policy = policy;
  cfg.vfs_fom = opts.vfs_fom;
  if (opts.cache_blocks != 0) cfg.cache_blocks = opts.cache_blocks;
#if OSIRIS_TRACE_ENABLED
  cfg.trace_enabled = trace_out != nullptr;
#endif
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  // Arm only after boot so boot-time executions cannot trigger the fault
  // (the plan was drawn from post-boot profiles anyway).
  reg.arm(inj.site, inj.type, inj.trigger_hit);
  const SuiteResult suite = run_suite(inst);
  reg.disarm();

#if OSIRIS_TRACE_ENABLED
  if (trace_out != nullptr && inst.tracer() != nullptr) {
    *trace_out = trace::format_text(inst.tracer()->merged(), *inst.tracer());
  }
#else
  if (trace_out != nullptr) trace_out->clear();
#endif

  switch (suite.outcome) {
    case os::OsInstance::Outcome::kShutdown:
      return RunClass::kShutdown;
    case os::OsInstance::Outcome::kCrashed:
    case os::OsInstance::Outcome::kHung:
      return RunClass::kCrash;
    case os::OsInstance::Outcome::kCompleted:
      if (!suite.driver_completed) return RunClass::kCrash;
      return suite.failed == 0 ? RunClass::kPass : RunClass::kFail;
  }
  return RunClass::kCrash;
}

unsigned campaign_jobs(unsigned requested) {
  return support::WorkerPool::resolve_jobs(requested);
}

std::vector<RunClass> run_plan(seep::Policy policy, const std::vector<Injection>& plan,
                               const CampaignOptions& opts) {
  std::vector<RunClass> classes(plan.size(), RunClass::kCrash);
  if (opts.traces != nullptr) opts.traces->assign(plan.size(), std::string());
  int done = 0;
  std::mutex progress_mu;

  support::WorkerPool::run_indexed(
      plan.size(), opts.jobs, [&](std::size_t i) {
        // Workers write disjoint, pre-sized slots: no lock needed.
        std::string* trace_out = opts.traces != nullptr ? &(*opts.traces)[i] : nullptr;
        classes[i] = run_one_injection(policy, plan[i], trace_out, opts);
        if (opts.progress) {
          // Increment under the same lock as the callback so `done` is
          // strictly monotonic in call order, not just in total.
          const std::lock_guard<std::mutex> lock(progress_mu);
          opts.progress(++done, static_cast<int>(plan.size()));
        }
      });
  return classes;
}

CampaignTotals run_campaign(seep::Policy policy, const std::vector<Injection>& plan,
                            const CampaignOptions& opts) {
  // Merge in plan order (not completion order): totals — and therefore every
  // table derived from them — are byte-identical across jobs settings.
  const std::vector<RunClass> classes = run_plan(policy, plan, opts);
  CampaignTotals totals;
  for (const RunClass c : classes) {
    switch (c) {
      case RunClass::kPass: ++totals.pass; break;
      case RunClass::kFail: ++totals.fail; break;
      case RunClass::kShutdown: ++totals.shutdown; break;
      case RunClass::kCrash: ++totals.crash; break;
    }
  }
  return totals;
}

// --- recurring-fault campaigns --------------------------------------------

std::vector<Injection> plan_recurring() {
  std::vector<Injection> plan;
  for (auto [site, hits] : profile_sites()) {
    // One persistent bug per site, planted mid-execution so the component
    // does useful work before the crash loop starts.
    plan.push_back(Injection{site, fi::FaultType::kNullDeref, 1 + hits / 2});
  }
  return plan;
}

RecurringClass run_one_recurring(seep::Policy policy, const Injection& inj) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  os::OsConfig cfg;
  cfg.policy = policy;
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  reg.arm_persistent(inj.site, inj.type, inj.trigger_hit);
  const SuiteResult suite = run_suite(inst);
  reg.disarm();

  // Default config always enables recovery, so the engine exists.
  const std::uint64_t quarantines = inst.engine().stats().quarantines;
  switch (suite.outcome) {
    case os::OsInstance::Outcome::kShutdown:
      return RecurringClass::kShutdown;
    case os::OsInstance::Outcome::kCrashed:
    case os::OsInstance::Outcome::kHung:
      return RecurringClass::kWedged;
    case os::OsInstance::Outcome::kCompleted:
      if (!suite.driver_completed) return RecurringClass::kWedged;
      // Surviving by quarantine (or with residual failures) is degraded-but-
      // alive — the machine is up, a component is parked or misbehaving.
      return (quarantines == 0 && suite.failed == 0) ? RecurringClass::kRecovered
                                                     : RecurringClass::kDegraded;
  }
  return RecurringClass::kWedged;
}

std::vector<RecurringClass> run_recurring_plan(seep::Policy policy,
                                               const std::vector<Injection>& plan,
                                               const CampaignOptions& opts) {
  std::vector<RecurringClass> classes(plan.size(), RecurringClass::kWedged);
  int done = 0;
  std::mutex progress_mu;

  support::WorkerPool::run_indexed(
      plan.size(), opts.jobs, [&](std::size_t i) {
        classes[i] = run_one_recurring(policy, plan[i]);
        if (opts.progress) {
          const std::lock_guard<std::mutex> lock(progress_mu);
          opts.progress(++done, static_cast<int>(plan.size()));
        }
      });
  return classes;
}

RecurringTotals run_recurring_campaign(seep::Policy policy,
                                       const std::vector<Injection>& plan,
                                       const CampaignOptions& opts) {
  const std::vector<RecurringClass> classes = run_recurring_plan(policy, plan, opts);
  RecurringTotals totals;
  for (const RecurringClass c : classes) {
    switch (c) {
      case RecurringClass::kRecovered: ++totals.recovered; break;
      case RecurringClass::kDegraded: ++totals.degraded; break;
      case RecurringClass::kShutdown: ++totals.shutdown; break;
      case RecurringClass::kWedged: ++totals.wedged; break;
    }
  }
  return totals;
}

// --- storm campaigns ------------------------------------------------------

namespace {

/// Boot endpoint a probe tag belongs to (-1 for tags without a server, e.g.
/// probes in shared library code). Only used to keep a flood from targeting
/// its own host, which would degenerate into a spin.
std::int32_t tag_endpoint(const char* tag) {
  const std::string_view t(tag);
  if (t == "pm") return kernel::kPmEp.value;
  if (t == "vm") return kernel::kVmEp.value;
  if (t == "vfs") return kernel::kVfsEp.value;
  if (t == "ds") return kernel::kDsEp.value;
  if (t == "rs") return kernel::kRsEp.value;
  return -1;
}

}  // namespace

std::vector<StormInjection> plan_storm() {
  // Per subsystem tag, keep the hottest profiled site: a storm planted on
  // the busiest path is guaranteed to fire mid-suite, and its host keeps
  // re-firing the persistent probe, which is what sustains a spin across
  // throttling until the ladder escalates.
  std::vector<std::pair<fi::Site*, std::uint64_t>> hottest;  // first-seen tag order
  for (auto [site, hits] : profile_sites()) {
    bool found = false;
    for (auto& [best, best_hits] : hottest) {
      if (std::string_view(best->tag) == site->tag) {
        if (hits > best_hits) {
          best = site;
          best_hits = hits;
        }
        found = true;
        break;
      }
    }
    if (!found) hottest.emplace_back(site, hits);
  }

  static constexpr std::int32_t kVictims[] = {kernel::kPmEp.value, kernel::kVmEp.value,
                                              kernel::kVfsEp.value, kernel::kDsEp.value};
  std::vector<StormInjection> plan;
  std::size_t next_victim = 0;
  for (auto [site, hits] : hottest) {
    StormInjection spin;
    spin.site = site;
    spin.type = fi::FaultType::kHandlerSpin;
    spin.trigger_hit = 1 + hits / 2;  // mid-suite, like plan_recurring
    plan.push_back(spin);

    StormInjection flood = spin;
    flood.type = fi::FaultType::kChannelFlood;
    // Floods accumulate over clock-pumped periods (unlike spins, which burn
    // the whole drain loop immediately): start them early so the pump has
    // most of the suite's virtual time, and make each period's burst large
    // enough to dominate a 64-delivery quantum next to legitimate traffic.
    flood.trigger_hit = 1 + hits / 10;
    flood.burst = 64;
    std::int32_t victim = kVictims[next_victim++ % std::size(kVictims)];
    if (victim == tag_endpoint(site->tag)) {
      victim = kVictims[next_victim++ % std::size(kVictims)];
    }
    flood.victim = victim;
    plan.push_back(flood);
  }
  // Control runs: monitor on, nothing armed. Any fever here is a false
  // positive; the acceptance bar is zero.
  plan.push_back(StormInjection{});
  plan.push_back(StormInjection{});
  return plan;
}

StormResult run_one_storm(seep::Policy policy, const StormInjection& s) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();

  os::OsConfig cfg;
  cfg.policy = policy;
  cfg.health.enabled = true;
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  if (s.site != nullptr) {
    reg.set_storm_plan(s.victim, s.burst);
    reg.arm_persistent(s.site, s.type, s.trigger_hit);
  }
  const SuiteResult suite = run_suite(inst);
  const bool fired = reg.storm_fired();
  reg.disarm();

  const recovery::EngineStats& es = inst.engine().stats();
  const kernel::KernelStats& ks = inst.kern().stats();
  StormResult r;
  r.fever_onsets = ks.fever_onsets;
  r.throttled_drops = ks.throttled_drops;
  r.quarantined = es.storm_quarantines > 0;
  r.disarmed = es.storm_disarms > 0;
  r.suite_clean = suite.outcome == os::OsInstance::Outcome::kCompleted &&
                  suite.driver_completed && suite.failed == 0;
  if (!fired) {
    // Nothing stormed: a fever is the monitor crying wolf.
    r.cls = ks.fever_onsets > 0 ? StormClass::kFalsePositive : StormClass::kClean;
  } else if (es.storm_detected) {
    r.cls = StormClass::kDetected;
    r.detection_latency = es.detection_latency_ticks;
  } else {
    r.cls = StormClass::kStarved;
  }
  return r;
}

std::vector<StormResult> run_storm_plan(seep::Policy policy,
                                        const std::vector<StormInjection>& plan,
                                        const CampaignOptions& opts) {
  std::vector<StormResult> results(plan.size());
  int done = 0;
  std::mutex progress_mu;

  support::WorkerPool::run_indexed(
      plan.size(), opts.jobs, [&](std::size_t i) {
        results[i] = run_one_storm(policy, plan[i]);
        if (opts.progress) {
          const std::lock_guard<std::mutex> lock(progress_mu);
          opts.progress(++done, static_cast<int>(plan.size()));
        }
      });
  return results;
}

StormTotals run_storm_campaign(seep::Policy policy, const std::vector<StormInjection>& plan,
                               const CampaignOptions& opts) {
  const std::vector<StormResult> results = run_storm_plan(policy, plan, opts);
  StormTotals totals;
  for (const StormResult& r : results) {
    switch (r.cls) {
      case StormClass::kDetected: ++totals.detected; break;
      case StormClass::kStarved: ++totals.starved; break;
      case StormClass::kFalsePositive: ++totals.false_positive; break;
      case StormClass::kClean: ++totals.clean; break;
    }
    if (r.cls == StormClass::kDetected) {
      totals.latency_sum += r.detection_latency;
      totals.latency_max = std::max(totals.latency_max, r.detection_latency);
      ++totals.latency_n;
    }
  }
  return totals;
}

}  // namespace osiris::workload
