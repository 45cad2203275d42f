// Regenerates Table I: "Percentage of time spent inside the recovery window
// for each server (mean weighted by time spent running server)".
//
// Runs the 89-program prototype test suite under the pessimistic and the
// enhanced recovery policies and reports per-server recovery coverage: the
// fraction of executed basic blocks (probes) that fell inside an open
// recovery window.
//
// Paper reference values: PM 54.9/61.7, VFS 72.3/72.3, VM 64.6/64.6,
// DS 47.1/92.8, RS 49.4/50.5; weighted mean 57.7/68.4.
#include <cstdio>

#include "campaign_cli.hpp"
#include "core/metrics.hpp"
#include "support/table_printer.hpp"
#include "support/worker_pool.hpp"

using namespace osiris;

int main(int argc, char** argv) {
  std::printf("Table I — recovery coverage per server (prototype test suite)\n\n");

  // One isolated suite run per policy; with --jobs>1 they run concurrently
  // (each on its own worker thread/simulator).
  const seep::Policy policies[] = {seep::Policy::kPessimistic, seep::Policy::kEnhanced};
  core::SuiteSnapshot runs[2];
  support::WorkerPool::run_indexed(2, bench::parse_jobs(argc, argv), [&](std::size_t i) {
    runs[i] = core::snapshot_suite(policies[i]);
  });
  const core::SystemMetrics& pess = runs[0].metrics;
  const core::SystemMetrics& enh = runs[1].metrics;

  TablePrinter table({"Server", "Pessimistic", "Enhanced", "Probe hits"});
  for (std::size_t i = 0; i < pess.components.size(); ++i) {
    table.add_row({pess.components[i].name, TablePrinter::pct(pess.components[i].recovery_coverage),
                   TablePrinter::pct(enh.components[i].recovery_coverage),
                   std::to_string(enh.components[i].probe_hits)});
  }
  table.add_separator();
  table.add_row({"weighted mean", TablePrinter::pct(pess.weighted_coverage),
                 TablePrinter::pct(enh.weighted_coverage), ""});
  table.print();

  std::printf("\npaper: weighted mean 57.7%% (pessimistic) / 68.4%% (enhanced);\n"
              "       DS lowest->highest across policies, VFS/VM policy-independent\n");
  const workload::SuiteResult& suite = runs[1].suite;
  std::printf("suite: %d passed, %d failed (must be 89/0)\n", suite.passed, suite.failed);
  return suite.failed == 0 ? 0 : 1;
}
