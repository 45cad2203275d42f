// Survivability under *persistent* (recurring) faults — the escalation
// ladder's stress test.
//
// Unlike Table II's one-shot faults, each injection here models a
// deterministic bug: the fault re-fires after every recovery, so flat
// restart policies crash-loop. The escalation ladder is what turns those
// loops into degraded-but-alive outcomes: the policy recovers each crash
// until the component has crashed three times in a row without completing
// a dispatch, or has spent its recovery budget, and then the component is
// quarantined. Buckets per run:
//   Recovered — suite finished clean, no quarantine needed;
//   Degraded  — machine survived the suite, but a component ended up
//               quarantined (or residual suite failures remain);
//   Shutdown  — consistent controlled shutdown;
//   Wedged    — crash or hang: the bucket the ladder exists to empty.
//
// Environment:
//   OSIRIS_SAMPLE           keep only every Nth injection (default 1 = all)
//   OSIRIS_JOBS / --jobs=N  worker threads (default 1; 0 = all cores)
#include <cstdio>
#include <cstdlib>

#include "campaign_cli.hpp"
#include "support/table_printer.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);
  const int sample =
      std::getenv("OSIRIS_SAMPLE") ? std::atoi(std::getenv("OSIRIS_SAMPLE")) : 1;

  std::vector<Injection> plan = plan_recurring();
  if (sample > 1) {
    std::vector<Injection> sampled;
    for (std::size_t i = 0; i < plan.size(); i += sample) sampled.push_back(plan[i]);
    plan = std::move(sampled);
  }
  std::printf("Recurring-fault survivability (persistent bugs, escalation ladder)\n");
  std::printf("(%zu injections per policy; the same plan applied to every policy)\n\n",
              plan.size());
  std::fprintf(stderr, "[table_recurring] %u worker(s)\n", campaign_jobs(opts.jobs));

  TablePrinter table({"Recovery mode", "Recovered", "Degraded", "Shutdown", "Wedged"});
  for (auto policy : {seep::Policy::kStateless, seep::Policy::kNaive,
                      seep::Policy::kPessimistic, seep::Policy::kEnhanced}) {
    const RecurringTotals t = run_recurring_campaign(policy, plan, opts);
    table.add_row({seep::policy_name(policy), TablePrinter::pct(t.frac(t.recovered)),
                   TablePrinter::pct(t.frac(t.degraded)),
                   TablePrinter::pct(t.frac(t.shutdown)),
                   TablePrinter::pct(t.frac(t.wedged))});
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\nshape: the windowed policies wedge least and shut down consistently\n"
      "in 40-54%% of runs; naive survives degraded in most runs, but wedges\n"
      "when its restarts use up VFS's worker threads; stateless wedges in\n"
      "almost every run, because its restarts never answer the request in\n"
      "flight\n");
  return 0;
}
