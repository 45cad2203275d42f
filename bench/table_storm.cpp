// Liveness-fault (storm) detection — the health monitor's stress test.
//
// Storm faults never crash or hang their host: a spinning handler keeps
// answering heartbeats while it burns every dispatch, and a flooding one
// drowns a victim in well-formed requests. Crash/hang detection is
// structurally blind to both, so this table measures the *physiological*
// detector instead: per storm type, how many runs the ladder's storm rung
// caught (throttle, then quarantine + fault disarm), how many ran starved,
// how long detection took from storm onset to the throttle engaging, and how
// many runs the suite survived with zero failures (detection is not
// survival). Control runs (nothing armed) pin the false-positive rate to
// zero.
//
// Note on latency units: spin storms freeze the virtual clock (the host
// drains dispatches without ever going idle), so their detection latency
// legitimately reads ~0 ticks; flood storms are clock-pumped and accumulate
// real virtual time. Both are reported.
//
// Environment:
//   OSIRIS_SAMPLE           keep only every Nth injection (default 1 = all)
//   OSIRIS_JOBS / --jobs=N  worker threads (default 1; 0 = all cores)
//   --out FILE.json         machine-readable results (BENCH_storm.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign_cli.hpp"
#include "support/table_printer.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

namespace {

struct TypeTotals {
  int runs = 0;
  int detected = 0;
  int starved = 0;
  int false_positive = 0;
  int clean = 0;
  int quarantined = 0;
  int disarmed = 0;
  int suite_clean = 0;
  std::uint64_t latency_sum = 0;
  Tick latency_max = 0;

  void add(const StormResult& r) {
    ++runs;
    switch (r.cls) {
      case StormClass::kDetected: ++detected; break;
      case StormClass::kStarved: ++starved; break;
      case StormClass::kFalsePositive: ++false_positive; break;
      case StormClass::kClean: ++clean; break;
    }
    if (r.quarantined) ++quarantined;
    if (r.disarmed) ++disarmed;
    if (r.suite_clean) ++suite_clean;
    if (r.cls == StormClass::kDetected) {
      latency_sum += r.detection_latency;
      if (r.detection_latency > latency_max) latency_max = r.detection_latency;
    }
  }

  [[nodiscard]] double latency_mean() const {
    return detected == 0 ? 0.0
                         : static_cast<double>(latency_sum) / static_cast<double>(detected);
  }
};

const char* storm_type_name(fi::FaultType t) {
  switch (t) {
    case fi::FaultType::kHandlerSpin: return "handler-spin";
    case fi::FaultType::kChannelFlood: return "channel-flood";
    default: return "none (control)";
  }
}

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);
  const int sample =
      std::getenv("OSIRIS_SAMPLE") ? std::atoi(std::getenv("OSIRIS_SAMPLE")) : 1;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[i + 1];
  }

  std::vector<StormInjection> plan = plan_storm();
  if (sample > 1) {
    // Controls (site == nullptr) always survive thinning: the false-positive
    // column must never be vacuously zero.
    std::vector<StormInjection> sampled;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].site == nullptr || i % static_cast<std::size_t>(sample) == 0) {
        sampled.push_back(plan[i]);
      }
    }
    plan = std::move(sampled);
  }

  std::printf("Storm detection (liveness faults vs the physiological health monitor)\n");
  std::printf("(%zu runs: persistent spin/flood per subsystem plus clean controls)\n\n",
              plan.size());
  std::fprintf(stderr, "[table_storm] %u worker(s)\n", campaign_jobs(opts.jobs));

  const seep::Policy policy = seep::Policy::kEnhanced;
  const std::vector<StormResult> results = run_storm_plan(policy, plan, opts);

  TypeTotals spin, flood, control;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (plan[i].site == nullptr) control.add(results[i]);
    else if (plan[i].type == fi::FaultType::kHandlerSpin) spin.add(results[i]);
    else flood.add(results[i]);
  }

  TablePrinter table({"Storm type", "Runs", "Detected", "Starved", "FalsePos",
                      "Quarantined", "MeanLat", "MaxLat", "SuiteClean"});
  for (const auto* row : {&spin, &flood, &control}) {
    const fi::FaultType t = row == &spin    ? fi::FaultType::kHandlerSpin
                            : row == &flood ? fi::FaultType::kChannelFlood
                                            : fi::FaultType::kNone;
    table.add_row({storm_type_name(t), std::to_string(row->runs),
                   std::to_string(row->detected), std::to_string(row->starved),
                   std::to_string(row->false_positive), std::to_string(row->quarantined),
                   fmt1(row->latency_mean()), std::to_string(row->latency_max),
                   std::to_string(row->suite_clean)});
  }
  table.print();
  std::printf(
      "\nshape: Detected should cover every storm run (Starved empty — a\n"
      "starved run means the monitor slept through a storm), FalsePos must\n"
      "be zero everywhere, and quarantined runs disarm the fault so the\n"
      "component readmits clean; latency is in virtual ticks from storm\n"
      "onset to the throttle engaging. SuiteClean counts runs whose suite\n"
      "completed with zero failures: a detected storm can still cost the\n"
      "suite, since a throttle on a component that is never parked lasts\n"
      "for the rest of the run\n");

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "table_storm: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"table_storm\",\n  \"policy\": \"%s\",\n",
                 seep::policy_name(policy));
    std::fprintf(f, "  \"runs\": %zu,\n  \"sample\": %d,\n  \"types\": [\n", plan.size(),
                 sample);
    const TypeTotals* rows[] = {&spin, &flood, &control};
    const char* names[] = {"handler-spin", "channel-flood", "control"};
    for (int i = 0; i < 3; ++i) {
      const TypeTotals& r = *rows[i];
      std::fprintf(f,
                   "    {\"type\": \"%s\", \"runs\": %d, \"detected\": %d, \"starved\": %d,\n"
                   "     \"false_positive\": %d, \"quarantined\": %d, \"disarmed\": %d,\n"
                   "     \"detection_latency_mean_ticks\": %.1f, "
                   "\"detection_latency_max_ticks\": %llu,\n"
                   "     \"suite_clean\": %d}%s\n",
                   names[i], r.runs, r.detected, r.starved, r.false_positive, r.quarantined,
                   r.disarmed, r.latency_mean(),
                   static_cast<unsigned long long>(r.latency_max), r.suite_clean,
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // Self-checking exit: CI runs this binary as the storm acceptance gate.
  const bool ok = spin.detected == spin.runs && flood.detected == flood.runs &&
                  spin.false_positive == 0 && flood.false_positive == 0 &&
                  control.false_positive == 0;
  if (!ok) std::fprintf(stderr, "table_storm: ACCEPTANCE FAILED (see table)\n");
  return ok ? 0 : 1;
}
