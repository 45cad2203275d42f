#include "workload/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "os/instance.hpp"
#include "support/rng.hpp"
#include "support/worker_pool.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/export.hpp"
#endif

namespace osiris::workload {

std::vector<std::pair<fi::Site*, std::uint64_t>> profile_sites() {
  run_one(seep::Policy::kEnhanced, Injection{});
  // Counters stay readable after the machine is gone, until the next boot.
  std::vector<std::pair<fi::Site*, std::uint64_t>> out;
  for (fi::Site* s : fi::Registry::sites()) {
    const std::uint64_t hits = fi::Registry::instance().hits(s);
    if (hits > 0) out.emplace_back(s, hits);
  }
  return out;
}

fi::Site* busiest_site(const char* tag, const os::ISys::ProcBody& body) {
  {
    os::OsInstance inst{os::OsConfig{}};
    register_suite_programs(inst.programs());
    inst.boot();
    inst.run(body);
  }
  fi::Site* best = nullptr;
  for (fi::Site* s : fi::Registry::sites()) {
    if (std::string_view(s->tag) == tag && s->hits() > (best == nullptr ? 0 : best->hits())) {
      best = s;
    }
  }
  return best;
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

std::vector<Injection> plan_recurring() {
  std::vector<Injection> plan;
  for (auto [site, hits] : profile_sites()) {
    // One persistent bug per site, planted mid-execution so the component
    // does useful work before the crash loop starts.
    plan.push_back(Injection{site, fi::FaultType::kNullDeref, 1 + hits / 2, true});
  }
  return plan;
}

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

std::vector<Injection> plan_storm() {
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
  std::vector<Injection> plan;
  std::size_t next_victim = 0;
  for (auto [site, hits] : hottest) {
    Injection spin;
    spin.site = site;
    spin.type = fi::FaultType::kHandlerSpin;
    spin.trigger_hit = 1 + hits / 2;  // mid-suite, like plan_recurring
    spin.persistent = true;
    plan.push_back(spin);

    Injection flood = spin;
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
  plan.push_back(Injection{});
  plan.push_back(Injection{});
  return plan;
}

std::vector<Injection> thin(const std::vector<Injection>& plan, int every) {
  if (every <= 1) return plan;
  std::vector<Injection> out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].site == nullptr || i % static_cast<std::size_t>(every) == 0) {
      out.push_back(plan[i]);
    }
  }
  return out;
}

RunRecord run_one(seep::Policy policy, const Injection& inj, std::string* trace_out) {
  os::OsConfig cfg;
  cfg.policy = policy;
#if OSIRIS_TRACE_ENABLED
  cfg.trace_enabled = trace_out != nullptr;
#endif
  os::OsInstance inst(cfg);
  register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry& reg = fi::Registry::instance();
  if (inj.site != nullptr) {
    // The storm shape is read only when a spin or flood fires.
    reg.set_storm_plan(inj.victim, inj.burst);
    if (inj.persistent) {
      reg.arm_persistent(inj.site, inj.type, inj.trigger_hit);
    } else {
      reg.arm(inj.site, inj.type, inj.trigger_hit);
    }
  }
  RunRecord r;
  r.suite = run_suite(inst);
  r.kernel = inst.kern().stats();
  r.engine = inst.engine().stats();  // a default machine always has recovery
  r.storm_fired = reg.storm_fired();
#if OSIRIS_TRACE_ENABLED
  if (trace_out != nullptr && inst.tracer() != nullptr) {
    *trace_out = trace::format_text(inst.tracer()->merged(), *inst.tracer());
  }
#else
  if (trace_out != nullptr) trace_out->clear();
#endif
  return r;
}

unsigned campaign_jobs(unsigned requested) {
  return support::WorkerPool::resolve_jobs(requested);
}

std::vector<RunRecord> run_plan(seep::Policy policy, const std::vector<Injection>& plan,
                                const CampaignOptions& opts) {
  if (opts.traces != nullptr) opts.traces->assign(plan.size(), std::string());
  // Workers write disjoint, pre-sized slots, so records are indexed by plan
  // position — and byte-identical across jobs settings — whatever the
  // completion order.
  std::vector<RunRecord> records(plan.size());
  support::WorkerPool::run_indexed(plan.size(), opts.jobs, [&](std::size_t i) {
    records[i] = run_one(policy, plan[i], opts.traces != nullptr ? &(*opts.traces)[i] : nullptr);
  });
  return records;
}

// --- per-table classifiers ---------------------------------------------------

RunClass survival_class(const RunRecord& r) {
  switch (r.suite.outcome) {
    case os::OsInstance::Outcome::kShutdown:
      return RunClass::kShutdown;
    case os::OsInstance::Outcome::kCrashed:
    case os::OsInstance::Outcome::kHung:
      return RunClass::kCrash;
    case os::OsInstance::Outcome::kCompleted:
      if (!r.suite.driver_completed) return RunClass::kCrash;
      return r.suite.failed == 0 ? RunClass::kPass : RunClass::kFail;
  }
  return RunClass::kCrash;
}

RecurringClass recurring_class(const RunRecord& r) {
  switch (survival_class(r)) {
    case RunClass::kShutdown: return RecurringClass::kShutdown;
    case RunClass::kCrash: return RecurringClass::kWedged;
    // Surviving by quarantine (or with residual failures) is
    // degraded-but-alive: the machine is up, a component is parked or
    // misbehaving.
    case RunClass::kPass:
      return r.engine.quarantines == 0 ? RecurringClass::kRecovered : RecurringClass::kDegraded;
    case RunClass::kFail: return RecurringClass::kDegraded;
  }
  return RecurringClass::kWedged;
}

StormClass storm_class(const RunRecord& r) {
  if (!r.storm_fired) {
    // Nothing stormed: a fever is the monitor crying wolf.
    return r.kernel.fever_onsets > 0 ? StormClass::kFalsePositive : StormClass::kClean;
  }
  return r.engine.storm_detected ? StormClass::kDetected : StormClass::kStarved;
}

}  // namespace osiris::workload
