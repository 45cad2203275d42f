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

#include "os/instance.hpp"
#include "support/table_printer.hpp"
#include "workload/unixbench.hpp"

using namespace osiris;
using namespace osiris::workload;

namespace {

struct Totals {
  std::size_t base = 0, clone = 0, log = 0;
};

/// Boot, drive every unixbench workload once inside one machine so each
/// server's undo-log high-water mark reflects its busiest request, then print
/// the per-component byte columns.
Totals run_config(const os::OsConfig& cfg) {
  os::OsInstance inst(cfg);
  register_ub_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run([](os::ISys& sys) {
    for (const UbWorkload& w : ub_workloads()) {
      w.body(sys, std::max<std::uint64_t>(1, w.default_iters / 20));
    }
  });
  OSIRIS_ASSERT(outcome == os::OsInstance::Outcome::kCompleted);

  TablePrinter table({"Server", "Base state", "+clone", "+undo log (max)", "Total overhead"});
  Totals t;
  for (recovery::Recoverable* comp : inst.components()) {
    const std::size_t base = comp->data_section_size();
    const std::size_t clone = inst.engine().clone_bytes(comp->endpoint());
    const std::size_t log = comp->ckpt_context().log().stats().max_log_bytes;
    t.base += base;
    t.clone += clone;
    t.log += log;
    table.add_row({std::string(comp->name()), std::to_string(base), std::to_string(clone),
                   std::to_string(log), std::to_string(clone + log)});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(t.base), std::to_string(t.clone), std::to_string(t.log),
                 std::to_string(t.clone + t.log)});
  table.print();
  return t;
}

}  // namespace

int main() {
  os::OsConfig cfg;  // enhanced policy, window-gated instrumentation
  std::printf("Table VI — per-component memory overhead (bytes)\n\n");
  const Totals t = run_config(cfg);

  const double factor =
      t.base > 0 ? static_cast<double>(t.base + t.clone + t.log) / static_cast<double>(t.base)
                 : 0.0;
  std::printf("\nmemory usage factor vs base: %.1fx (paper: ~6x for the five servers)\n",
              factor);
  std::printf("paper shape: VM dominates both the clone pre-allocation and the\n"
              "undo-log columns; the other servers' overheads are comparatively tiny\n");
  return 0;
}
