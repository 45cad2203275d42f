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

/// One Table VI pass: boot, drive every unixbench workload once inside one
/// machine so each server's undo-log high-water mark reflects its busiest
/// request, then print the per-component byte columns. Returns the totals so
/// main() can compare the paper-scale and page-tier configurations.
struct Totals {
  std::size_t base = 0, clone = 0, log = 0, aux = 0, snaps = 0;
};

Totals run_config(const os::OsConfig& cfg, bool with_pages_columns) {
  os::OsInstance inst(cfg);
  register_ub_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run([](os::ISys& sys) {
    for (const UbWorkload& w : ub_workloads()) {
      w.body(sys, std::max<std::uint64_t>(1, w.default_iters / 20));
    }
  });
  OSIRIS_ASSERT(outcome == os::OsInstance::Outcome::kCompleted);

  std::vector<std::string> headers = {"Server", "Base state", "+clone", "+undo log (max)"};
  if (with_pages_columns) {
    // DESIGN.md §17: the aux region (DS blobs) and the page tier's
    // snapshot-buffer high-water. The clone column already includes
    // the aux image — the overhead the tier's delta restarts amortize.
    headers.push_back("+aux region");
    headers.push_back("+page snaps (max)");
  }
  headers.push_back("Total overhead");
  TablePrinter table(headers);
  Totals t;
  for (recovery::Recoverable* comp : inst.components()) {
    const std::size_t base = comp->data_section_size();
    const std::size_t clone = inst.engine().clone_bytes(comp->endpoint());
    const std::size_t log = comp->ckpt_context().log().stats().max_log_bytes;
    const std::size_t aux = comp->aux_section_size();
    const ckpt::PageStore* ps = comp->page_store();
    const std::size_t snaps = ps != nullptr ? ps->stats().max_resident_bytes : 0;
    t.base += base;
    t.clone += clone;
    t.log += log;
    t.aux += aux;
    t.snaps += snaps;
    std::vector<std::string> row = {std::string(comp->name()), std::to_string(base),
                                    std::to_string(clone), std::to_string(log)};
    if (with_pages_columns) {
      row.push_back(std::to_string(aux));
      row.push_back(std::to_string(snaps));
    }
    row.push_back(std::to_string(clone + log + snaps));
    table.add_row(row);
  }
  table.add_separator();
  std::vector<std::string> total_row = {"total", std::to_string(t.base), std::to_string(t.clone),
                                        std::to_string(t.log)};
  if (with_pages_columns) {
    total_row.push_back(std::to_string(t.aux));
    total_row.push_back(std::to_string(t.snaps));
  }
  total_row.push_back(std::to_string(t.clone + t.log + t.snaps));
  table.add_row(total_row);
  table.print();
  return t;
}

}  // namespace

int main() {
  os::OsConfig cfg;  // enhanced policy, window-gated instrumentation
  std::printf("Table VI — per-component memory overhead (bytes)\n\n");
  const Totals t = run_config(cfg, /*with_pages_columns=*/false);

  const double factor =
      t.base > 0 ? static_cast<double>(t.base + t.clone + t.log) / static_cast<double>(t.base)
                 : 0.0;
  std::printf("\nmemory usage factor vs base: %.1fx (paper: ~6x for the five servers)\n",
              factor);
  std::printf("paper shape: VM dominates both the clone pre-allocation and the\n"
              "undo-log columns; the other servers' overheads are comparatively tiny\n");

  // The same accounting at the ROADMAP's scale: an MB aux region behind the
  // page tier. The undo-log high-water must NOT grow with the aux state —
  // stores landing there cost page snapshots, bounded by the per-window
  // dirty set, not by region size.
  os::OsConfig paged = cfg;
  paged.ckpt_pages.enabled = true;
  paged.ds_blob_slots = 1024;  // ~4 MiB of DS blob payloads
  std::printf("\nTable VI.b — with the page tier and MB-scale aux state "
              "(ckpt_pages on; DS blobs only)\n\n");
  const Totals p = run_config(paged, /*with_pages_columns=*/true);
  const double aux_mb = static_cast<double>(p.aux) / (1024.0 * 1024.0);
  const double snap_pct =
      p.aux > 0 ? 100.0 * static_cast<double>(p.snaps) / static_cast<double>(p.aux) : 0.0;
  std::printf("\npage-tier shape: %.1f MiB of aux state costs %zu B of snapshot\n"
              "buffers at high-water (%.2f%% of the state it protects) and leaves\n"
              "the arena undo-log column at paper scale (%zu B vs %zu B without).\n",
              aux_mb, p.snaps, snap_pct, p.log, t.log);
  return 0;
}
