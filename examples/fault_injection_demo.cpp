// A miniature EDFI-style fault-injection campaign, end to end:
// profile the test suite, draw a small mixed plan, run every injection
// under the enhanced policy, and print the outcome of each run.
//
//   $ ./build/examples/fault_injection_demo
#include <cstdio>

#include "support/table_printer.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main() {
  std::printf("profiling the 89-program suite to find triggered fault candidates...\n");
  const auto sites = profile_sites();
  std::printf("%zu candidate sites executed after boot\n\n", sites.size());

  // A small mixed plan: one EDFI injection per 12th site.
  const std::vector<Injection> plan = thin(plan_edfi(/*seed=*/7, /*injections_per_site=*/1), 12);
  std::printf("running %zu injections under the enhanced policy:\n\n", plan.size());

  TablePrinter table({"#", "Site", "Fault", "Trigger hit", "Run outcome"});
  const std::vector<RunRecord> runs = run_plan(seep::Policy::kEnhanced, plan);
  int totals[4] = {};  // indexed by RunClass
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Injection& inj = plan[i];
    const RunClass rc = survival_class(runs[i]);
    ++totals[static_cast<int>(rc)];
    table.add_row({std::to_string(i + 1),
                   std::string(inj.site->tag) + ":" + std::to_string(inj.site->line),
                   fi::fault_name(inj.type), std::to_string(inj.trigger_hit),
                   run_class_name(rc)});
  }
  table.print();
  std::printf("\ntotals: %d pass, %d fail, %d shutdown, %d crash\n", totals[0], totals[1],
              totals[2], totals[3]);
  std::printf("(run bench/table2_survivability_failstop and table3_survivability_edfi\n"
              "for the full campaigns behind the paper's Tables II and III)\n");
  return 0;
}
