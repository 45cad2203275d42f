// Regenerates Table III: "Survivability under random fault injection of
// full EDFI faults" — the realistic software-fault mix (silent value
// corruption, off-by-one, branch flips, hangs, delayed crashes, plus
// null-derefs), which deliberately violates the fail-stop assumption.
//
// Paper reference: stateless 47.8/10.5/0.0/41.7, naive 48.5/11.9/0.0/39.6,
// pessimistic 47.3/10.5/38.2/4.0, enhanced 50.4/12.0/32.9/4.8.
//
// Environment:
//   OSIRIS_INJ_PER_SITE  injections per site (default 2)
//   OSIRIS_SEED          plan seed (default 316)
//   OSIRIS_SAMPLE        keep only every Nth injection (default 1)
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
  const int per_site = std::getenv("OSIRIS_INJ_PER_SITE")
                           ? std::atoi(std::getenv("OSIRIS_INJ_PER_SITE"))
                           : 2;
  const std::uint64_t seed =
      std::getenv("OSIRIS_SEED") ? std::strtoull(std::getenv("OSIRIS_SEED"), nullptr, 10) : 316;
  const std::vector<Injection> plan = thin(plan_edfi(seed, per_site), bench::parse_sample());
  std::printf("Table III — survivability under full EDFI fault injection\n");
  std::printf("(%zu injections per policy, mixed fault types, seed %llu)\n\n", plan.size(),
              static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "[table3] %u worker(s)\n", campaign_jobs(opts.jobs));

  TablePrinter table({"Recovery mode", "Pass", "Fail", "Shutdown", "Crash"});
  for (auto policy : {seep::Policy::kStateless, seep::Policy::kNaive,
                      seep::Policy::kPessimistic, seep::Policy::kEnhanced}) {
    table.add_row(
        bench::share_row(seep::policy_name(policy), run_plan(policy, plan, opts), survival_class));
    std::fflush(stdout);
  }
  table.print();
  std::printf(
      "\npaper: stateless 47.8/10.5/0.0/41.7  naive 48.5/11.9/0.0/39.6\n"
      "       pessimistic 47.3/10.5/38.2/4.0  enhanced 50.4/12.0/32.9/4.8\n"
      "shape: silent faults raise completion for everyone (many never become\n"
      "fatal); enhanced still leads; windowed crash shares rise vs Table II\n"
      "because the fail-stop assumption no longer holds\n");
  return 0;
}
