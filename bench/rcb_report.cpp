// Regenerates the SVI-A Reliable Computing Base accounting: the paper's
// prototype has 237,270 LOC of which the RCB is 29,732 LOC (12.5%).
//
// The RCB comprises exactly the five mechanisms the paper lists:
//   1. checkpointing            -> src/ckpt
//   2. restartability           -> src/recovery
//   3. recovery window mgmt     -> src/seep
//   4. initialization           -> (init_state methods, counted with servers)
//   5. message passing substrate -> src/kernel
//
// Only those four directories count as RCB. The SYS task
// (servers/sys_task.*) is part of the message substrate, but it is counted
// with the servers, as it always has been, so the RCB series stays
// comparable across versions. Counts are physical source lines (non-blank)
// under src/, per subsystem.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "campaign_cli.hpp"
#include "support/table_printer.hpp"
#include "support/worker_pool.hpp"

#ifndef OSIRIS_SOURCE_DIR
#define OSIRIS_SOURCE_DIR "."
#endif

namespace {

std::size_t count_lines(const std::filesystem::path& file) {
  std::ifstream in(file);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") != std::string::npos) ++lines;
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fsys = std::filesystem;
  const fsys::path src = fsys::path(OSIRIS_SOURCE_DIR) / "src";
  if (!fsys::exists(src)) {
    std::fprintf(stderr, "source tree not found at %s\n", src.c_str());
    return 1;
  }

  const std::map<std::string, bool> rcb_subsystems = {
      {"support", false}, {"kernel", true},   {"ckpt", true},   {"seep", true},
      {"cothread", false}, {"fs", false},     {"recovery", true}, {"fi", false},
      {"servers", false}, {"os", false},      {"workload", false}, {"core", false},
  };

  // Gather the file list first, then shard the line counting across the
  // worker pool; the merge is keyed by file index, so the per-subsystem sums
  // are independent of worker scheduling.
  std::vector<std::pair<std::string, fsys::path>> files;
  for (const auto& entry : fsys::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    files.emplace_back(entry.path().lexically_relative(src).begin()->string(), entry.path());
  }
  std::vector<std::size_t> counts(files.size(), 0);
  osiris::support::WorkerPool::run_indexed(
      files.size(), osiris::bench::parse_jobs(argc, argv),
      [&](std::size_t i) { counts[i] = count_lines(files[i].second); });
  std::map<std::string, std::size_t> loc;
  for (std::size_t i = 0; i < files.size(); ++i) loc[files[i].first] += counts[i];

  std::size_t total = 0, rcb = 0;
  osiris::TablePrinter table({"Subsystem", "LOC", "RCB"});
  for (const auto& [name, lines] : loc) {
    const auto it = rcb_subsystems.find(name);
    const bool in_rcb = it != rcb_subsystems.end() && it->second;
    total += lines;
    if (in_rcb) rcb += lines;
    table.add_row({name, std::to_string(lines), in_rcb ? "yes" : "no"});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(total), std::to_string(rcb) + " in RCB"});
  table.print();

  std::printf("\nRCB fraction: %.1f%% of the code base (paper: 12.5%%; RCB = checkpointing,\n"
              "restartability, window management, initialization, message substrate)\n",
              total > 0 ? 100.0 * static_cast<double>(rcb) / static_cast<double>(total) : 0.0);
  return 0;
}
