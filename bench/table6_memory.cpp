// Regenerates Table VI: "Per-component memory overhead" — base memory usage
// per server, the pre-allocated spare clone, and the maximum undo-log size
// observed while running the unixbench workloads.
//
// Paper reference (kB): PM 628/944/1, VFS 1252/1600/13, VM 4532/18032/24576,
// DS 248/488/1, RS 1696/5004/1; total overhead 50660 kB, dominated by VM's
// clone pre-allocation and undo log. Absolute sizes differ (our servers are
// simulator-scale), but the shape — VM dominating both overhead columns —
// reproduces.
#include <cstdio>

#include "core/metrics.hpp"
#include "support/table_printer.hpp"
#include "workload/unixbench.hpp"

using namespace osiris;
using namespace osiris::workload;

int main() {
  std::printf("Table VI — per-component memory overhead (bytes)\n\n");

  // Drive every unixbench workload once inside one machine (enhanced policy,
  // window-gated instrumentation) so each server's undo-log high-water mark
  // reflects its busiest request.
  os::OsInstance inst{os::OsConfig{}};
  register_ub_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run([](os::ISys& sys) {
    for (const UbWorkload& w : ub_workloads()) {
      w.body(sys, std::max<std::uint64_t>(1, w.default_iters / 20));
    }
  });
  OSIRIS_ASSERT(outcome == os::OsInstance::Outcome::kCompleted);

  TablePrinter table({"Server", "Base state", "+clone", "+undo log (max)", "Total overhead"});
  std::size_t base = 0, clone = 0, log = 0;
  for (const core::ComponentMetrics& c : core::collect_metrics(inst).components) {
    base += c.state_bytes;
    clone += c.clone_bytes;
    log += c.max_undo_log_bytes;
    table.add_row({c.name, std::to_string(c.state_bytes), std::to_string(c.clone_bytes),
                   std::to_string(c.max_undo_log_bytes),
                   std::to_string(c.clone_bytes + c.max_undo_log_bytes)});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(base), std::to_string(clone), std::to_string(log),
                 std::to_string(clone + log)});
  table.print();

  const double factor =
      base > 0 ? static_cast<double>(base + clone + log) / static_cast<double>(base) : 0.0;
  std::printf("\nmemory usage factor vs base: %.1fx (paper: ~6x for the five servers)\n",
              factor);
  std::printf("paper shape: VM dominates both the clone pre-allocation and the\n"
              "undo-log columns; the other servers' overheads are comparatively tiny\n");
  return 0;
}
