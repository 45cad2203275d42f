// osiris-analyze — static discipline checker and SEEP/recovery-window
// analyzer for the OSIRIS source tree.
//
// Exit status: 0 when the tree is clean, 1 when any finding survives
// suppression filtering, 2 on usage/IO errors.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "analyzer.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--root DIR] [--json FILE] [--effects [FILE]] [--quiet]\n"
            << "  --root DIR       repository root to analyze (default: .)\n"
            << "  --json FILE      write the machine-readable report to FILE\n"
            << "  --effects [FILE] write Pass 4 per-handler effect summaries to FILE\n"
            << "                   (default: handler_effects.json)\n"
            << "  --quiet          suppress the summary (findings still print)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::string effects_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--effects") {
      effects_path = "handler_effects.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') effects_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  osiris::analyze::Report report;
  try {
    report = osiris::analyze::analyze_tree(root);
  } catch (const std::exception& e) {
    std::cerr << "osiris-analyze: " << e.what() << '\n';
    return 2;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "osiris-analyze: cannot write " << json_path << '\n';
      return 2;
    }
    out << osiris::analyze::report_to_json(report);
  }
  if (!effects_path.empty()) {
    std::ofstream out(effects_path, std::ios::binary);
    if (!out) {
      std::cerr << "osiris-analyze: cannot write " << effects_path << '\n';
      return 2;
    }
    out << osiris::analyze::handler_effects_to_json(report, root);
  }

  for (const auto& f : report.findings) {
    std::cout << f.file << ':' << f.line << ": [" << f.detector << "] " << f.message << '\n';
  }

  if (!quiet) {
    std::cout << "osiris-analyze: " << report.files_scanned << " files, "
              << report.state_structs_checked << " state structs ("
              << report.state_fields_checked << " fields), " << report.spec.size()
              << " spec rows, " << report.sites.size() << " outbound sites, "
              << report.edges.size() << " channel edges, " << report.findings.size()
              << " findings\n";
    for (const auto& p : report.predictions) {
      std::cout << "  window[" << p.server << "]:";
      for (int pi = 0; pi < osiris::analyze::kNumPolicies; ++pi) {
        const auto pol = static_cast<osiris::analyze::Policy>(pi);
        std::cout << ' ' << osiris::analyze::policy_name(pol) << "=("
                  << (p.may_close_by_seep[pi] ? "close" : "stay") << ')';
      }
      std::cout << '\n';
    }
  }

  return report.findings.empty() ? 0 : 1;
}
