// Ablation (ours, motivated by the paper's SVII "composable recovery
// policies"): how the recovery-window policy axis trades recoverable
// surface for reconciliation aggressiveness. Reports per-server coverage
// under pessimistic / enhanced / extended, plus a small fail-stop
// survivability comparison between enhanced and extended.
//
// Environment: OSIRIS_SAMPLE thins the survivability plan (default 3);
// OSIRIS_JOBS / --jobs=N shards the campaign (default 1; 0 = all cores).
#include <cstdio>
#include <cstdlib>

#include "campaign_cli.hpp"
#include "core/metrics.hpp"
#include "support/table_printer.hpp"
#include "support/worker_pool.hpp"
#include "workload/campaign.hpp"

using namespace osiris;
using namespace osiris::workload;

int main(int argc, char** argv) {
  CampaignOptions opts;
  opts.jobs = bench::parse_jobs(argc, argv);
  std::printf("Ablation — recovery-window policy axis\n\n");

  // The three coverage suites are independent simulators: shard them too.
  const seep::Policy cov_policies[] = {seep::Policy::kPessimistic, seep::Policy::kEnhanced,
                                       seep::Policy::kExtended};
  core::SystemMetrics cov_runs[3];
  support::WorkerPool::run_indexed(3, opts.jobs, [&](std::size_t i) {
    cov_runs[i] = core::snapshot_suite(cov_policies[i]).metrics;
  });
  const auto& pess = cov_runs[0];
  const auto& enh = cov_runs[1];
  const auto& ext = cov_runs[2];

  TablePrinter cov({"Server", "Pessimistic", "Enhanced", "Extended (SVII)"});
  for (std::size_t i = 0; i < pess.components.size(); ++i) {
    cov.add_row({pess.components[i].name, TablePrinter::pct(pess.components[i].recovery_coverage),
                 TablePrinter::pct(enh.components[i].recovery_coverage),
                 TablePrinter::pct(ext.components[i].recovery_coverage)});
  }
  cov.add_separator();
  cov.add_row({"weighted mean", TablePrinter::pct(pess.weighted_coverage),
               TablePrinter::pct(enh.weighted_coverage), TablePrinter::pct(ext.weighted_coverage)});
  cov.print();

  const int sample =
      std::getenv("OSIRIS_SAMPLE") ? std::atoi(std::getenv("OSIRIS_SAMPLE")) : 3;
  std::vector<Injection> plan;
  {
    const auto full = plan_failstop(3);
    for (std::size_t i = 0; i < full.size(); i += static_cast<std::size_t>(sample)) {
      plan.push_back(full[i]);
    }
  }
  std::printf("\nfail-stop survivability on a thinned plan (%zu injections):\n\n", plan.size());
  TablePrinter surv({"Policy", "Pass", "Fail", "Shutdown", "Crash"});
  for (auto policy : {seep::Policy::kEnhanced, seep::Policy::kExtended}) {
    const CampaignTotals t = run_campaign(policy, plan, opts);
    surv.add_row({seep::policy_name(policy), TablePrinter::pct(t.frac(t.pass)),
                  TablePrinter::pct(t.frac(t.fail)), TablePrinter::pct(t.frac(t.shutdown)),
                  TablePrinter::pct(t.frac(t.crash))});
  }
  surv.print();
  std::printf("\nreading: the extended policy widens the recovery surface (fewer\n"
              "shutdowns) at the price of a harsher reconciliation — the requester\n"
              "is killed when a tainted window is recovered.\n");
  return 0;
}
