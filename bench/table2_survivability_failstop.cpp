// Regenerates Table II: "Survivability under random fault injection of
// fail-stop failure-mode faults".
//
// Profiles the prototype test suite once, draws a fail-stop injection plan
// (null-deref at several execution points per triggered site), and applies
// the identical plan under all four recovery policies, classifying every
// run as pass / fail / shutdown / crash.
//
// Paper reference: stateless 19.6/0.0/0.0/80.4, naive 20.6/2.4/0.0/77.0,
// pessimistic 18.5/0.0/81.3/0.2, enhanced 25.6/6.5/66.1/1.9.
//
// Environment:
//   OSIRIS_POINTS_PER_SITE  trigger points per site (default 3)
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
  const int points = std::getenv("OSIRIS_POINTS_PER_SITE")
                         ? std::atoi(std::getenv("OSIRIS_POINTS_PER_SITE"))
                         : 3;
  const std::vector<Injection> plan = thin(plan_failstop(points), bench::parse_sample());
  std::printf("Table II — survivability under fail-stop fault injection\n");
  std::printf("(%zu injections per policy; the same plan applied to every policy)\n\n",
              plan.size());
  std::fprintf(stderr, "[table2] %u worker(s)\n", campaign_jobs(opts.jobs));

  TablePrinter table({"Recovery mode", "Pass", "Fail", "Shutdown", "Crash"});
  for (auto policy : {seep::Policy::kStateless, seep::Policy::kNaive,
                      seep::Policy::kPessimistic, seep::Policy::kEnhanced}) {
    table.add_row(
        bench::share_row(seep::policy_name(policy), run_plan(policy, plan, opts), survival_class));
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\npaper: stateless 19.6/0.0/0.0/80.4  naive 20.6/2.4/0.0/77.0\n"
      "       pessimistic 18.5/0.0/81.3/0.2  enhanced 25.6/6.5/66.1/1.9\n"
      "shape: enhanced completes the most runs; windowed policies nearly\n"
      "eliminate crashes; stateless has no fail bucket and crashes dominate\n");
  return 0;
}
