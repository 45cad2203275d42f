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

os::OsConfig config_for(seep::Policy policy) {
  os::OsConfig cfg;
  cfg.policy = policy;
  return cfg;
}

/// The one campaign run: a fresh machine under `cfg` runs the suite. `arm`
/// gets the calling thread's probe registry after boot, so boot-time
/// executions cannot trigger the fault (plans are drawn from post-boot
/// profiles anyway). `judge(inst, suite)` reads the finished machine before
/// the registry is disarmed, and its verdict is returned. Each worker owns
/// an isolated registry, so concurrent runs never see each other's state.
template <typename Arm, typename Judge>
auto run_armed(const os::OsConfig& cfg, Arm arm, Judge judge) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  arm(reg);
  const SuiteResult suite = run_suite(inst);
  auto verdict = judge(inst, suite);
  reg.disarm();
  return verdict;
}

/// Run `one(i)` for every plan index on opts.jobs workers. Workers write
/// disjoint, pre-sized slots, so results are indexed by plan position —
/// and byte-identical across jobs settings — whatever the completion order.
template <typename Result, typename One>
std::vector<Result> run_sharded(std::size_t n, const CampaignOptions& opts, One one) {
  std::vector<Result> results(n);
  int done = 0;
  std::mutex progress_mu;
  support::WorkerPool::run_indexed(n, opts.jobs, [&](std::size_t i) {
    results[i] = one(i);
    if (opts.progress) {
      // Increment under the same lock as the callback so `done` is
      // strictly monotonic in call order, not just in total.
      const std::lock_guard<std::mutex> lock(progress_mu);
      opts.progress(++done, static_cast<int>(n));
    }
  });
  return results;
}

}  // namespace

std::vector<std::pair<fi::Site*, std::uint64_t>> profile_sites() {
  return run_armed(
      config_for(seep::Policy::kEnhanced), [](fi::Registry&) {},
      [](os::OsInstance&, const SuiteResult&) {
        std::vector<std::pair<fi::Site*, std::uint64_t>> out;
        for (fi::Site* s : fi::Registry::sites()) {
          const std::uint64_t hits = fi::Registry::instance().hits(s);
          if (hits > 0) out.emplace_back(s, hits);
        }
        return out;
      });
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
  os::OsConfig cfg = config_for(policy);
  cfg.vfs_fom = opts.vfs_fom;
  if (opts.cache_blocks != 0) cfg.cache_blocks = opts.cache_blocks;
#if OSIRIS_TRACE_ENABLED
  cfg.trace_enabled = trace_out != nullptr;
#endif
  return run_armed(
      cfg, [&](fi::Registry& reg) { reg.arm(inj.site, inj.type, inj.trigger_hit); },
      [&]([[maybe_unused]] os::OsInstance& inst, const SuiteResult& suite) {
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
      });
}

unsigned campaign_jobs(unsigned requested) {
  return support::WorkerPool::resolve_jobs(requested);
}

std::vector<RunClass> run_plan(seep::Policy policy, const std::vector<Injection>& plan,
                               const CampaignOptions& opts) {
  if (opts.traces != nullptr) opts.traces->assign(plan.size(), std::string());
  return run_sharded<RunClass>(plan.size(), opts, [&](std::size_t i) {
    std::string* trace_out = opts.traces != nullptr ? &(*opts.traces)[i] : nullptr;
    return run_one_injection(policy, plan[i], trace_out, opts);
  });
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

std::vector<RecurringClass> run_recurring_plan(seep::Policy policy,
                                               const std::vector<Injection>& plan,
                                               const CampaignOptions& opts) {
  return run_sharded<RecurringClass>(plan.size(), opts, [&](std::size_t i) {
    const Injection& inj = plan[i];
    return run_armed(
        config_for(policy),
        [&](fi::Registry& reg) { reg.arm_persistent(inj.site, inj.type, inj.trigger_hit); },
        [](os::OsInstance& inst, const SuiteResult& suite) {
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
              // Surviving by quarantine (or with residual failures) is
              // degraded-but-alive — the machine is up, a component is
              // parked or misbehaving.
              return (quarantines == 0 && suite.failed == 0) ? RecurringClass::kRecovered
                                                             : RecurringClass::kDegraded;
          }
          return RecurringClass::kWedged;
        });
  });
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
  // Control runs: nothing armed. Any fever here is a false
  // positive; the acceptance bar is zero.
  plan.push_back(StormInjection{});
  plan.push_back(StormInjection{});
  return plan;
}

std::vector<StormResult> run_storm_plan(seep::Policy policy,
                                        const std::vector<StormInjection>& plan,
                                        const CampaignOptions& opts) {
  return run_sharded<StormResult>(plan.size(), opts, [&](std::size_t i) {
    const StormInjection& s = plan[i];
    return run_armed(
        config_for(policy),
        [&](fi::Registry& reg) {
          if (s.site == nullptr) return;  // control run
          reg.set_storm_plan(s.victim, s.burst);
          reg.arm_persistent(s.site, s.type, s.trigger_hit);
        },
        [](os::OsInstance& inst, const SuiteResult& suite) {
          const recovery::EngineStats& es = inst.engine().stats();
          const kernel::KernelStats& ks = inst.kern().stats();
          StormResult r;
          r.fever_onsets = ks.fever_onsets;
          r.throttled_drops = ks.throttled_drops;
          r.quarantined = es.storm_quarantines > 0;
          r.disarmed = es.storm_disarms > 0;
          r.suite_clean = suite.outcome == os::OsInstance::Outcome::kCompleted &&
                          suite.driver_completed && suite.failed == 0;
          if (!fi::Registry::instance().storm_fired()) {
            // Nothing stormed: a fever is the monitor crying wolf.
            r.cls = ks.fever_onsets > 0 ? StormClass::kFalsePositive : StormClass::kClean;
          } else if (es.storm_detected) {
            r.cls = StormClass::kDetected;
            r.detection_latency = es.detection_latency_ticks;
          } else {
            r.cls = StormClass::kStarved;
          }
          return r;
        });
  });
}

}  // namespace osiris::workload
