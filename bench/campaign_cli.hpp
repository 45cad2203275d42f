// Shared CLI handling for the campaign-driven bench binaries.
//
// Every campaign binary accepts `--jobs=N` (or the OSIRIS_JOBS environment
// variable; the flag wins) to shard its injection plan across N worker
// threads. N=1 is the serial reference run, N=0 resolves to
// hardware_concurrency. Output is byte-identical across all N because
// results are merged in plan order. OSIRIS_SAMPLE=N keeps only every Nth
// injection of the plan (workload::thin; default 1 = all).
#pragma once

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "support/table_printer.hpp"

namespace osiris::bench {

inline unsigned parse_jobs(int argc, char** argv, unsigned def = 1) {
  unsigned jobs = def;
  if (const char* env = std::getenv("OSIRIS_JOBS")) {
    jobs = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return jobs;
}

inline int parse_sample() {
  const char* env = std::getenv("OSIRIS_SAMPLE");
  return env != nullptr ? std::atoi(env) : 1;
}

/// One table row: `label`, then the share of `runs` in each of the four
/// buckets `classify` sorts a run into, in enumerator order.
template <typename Runs, typename Classify>
std::vector<std::string> share_row(const char* label, const Runs& runs, Classify classify) {
  int counts[4] = {};
  for (const auto& r : runs) ++counts[static_cast<int>(classify(r))];
  std::vector<std::string> row = {label};
  for (const int n : counts) {
    row.push_back(TablePrinter::pct(static_cast<double>(n) / static_cast<double>(runs.size())));
  }
  return row;
}

}  // namespace osiris::bench
