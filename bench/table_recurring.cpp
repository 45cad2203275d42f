// Survivability under *persistent* (recurring) faults — the escalation
// ladder's stress test.
//
// Unlike Table II's one-shot faults, each injection here models a
// deterministic bug: the fault re-fires after every recovery, so flat
// restart policies crash-loop. The escalation ladder is what turns those
// loops into degraded-but-alive outcomes: the policy recovers each crash
// until the component has crashed three times in a row without completing
// a dispatch, or has spent its recovery budget, and then the component is
// quarantined. workload::recurring_class buckets each run as recovered,
// degraded, shutdown or wedged.
//
// Environment:
//   OSIRIS_SAMPLE           keep only every Nth injection (default 1 = all)
//   OSIRIS_JOBS / --jobs=N  worker threads (default 1; 0 = all cores)
#include <cstdio>

#include "campaign_cli.hpp"
#include "support/table_printer.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);
  const std::vector<Injection> plan = thin(plan_recurring(), bench::parse_sample());
  std::printf("Recurring-fault survivability (persistent bugs, escalation ladder)\n");
  std::printf("(%zu injections per policy; the same plan applied to every policy)\n\n",
              plan.size());
  std::fprintf(stderr, "[table_recurring] %u worker(s)\n", campaign_jobs(opts.jobs));

  TablePrinter table({"Recovery mode", "Recovered", "Degraded", "Shutdown", "Wedged"});
  for (auto policy : {seep::Policy::kStateless, seep::Policy::kNaive,
                      seep::Policy::kPessimistic, seep::Policy::kEnhanced}) {
    table.add_row(bench::share_row(seep::policy_name(policy), run_plan(policy, plan, opts),
                                   recurring_class));
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
