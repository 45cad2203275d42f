// Pass 4 — interprocedural handler-effect analysis.
//
// Rooted at every handler registration extracted by Pass 3, the pass walks
// the call graph and computes a flow-sensitive effect summary per handler
// row: the ordered sequence of ckpt store mutations, outbound sends (with
// their resolved SEEP class from Pass 2's site table), blocking operations
// (fiber suspends, synchronous blockdev waits), explicit yields and
// unbounded loops. From the summaries it derives:
//
//   * handler-granularity recovery-window predictions (tighter than the
//     Pass 2 per-server envelope: a handler with no outbound sends provably
//     cannot close its window by SEEP under any policy);
//   * the flow-sensitive detectors `mutate-after-send` (a ckpt mutation
//     ordered after the first window-closing send under the enhanced policy
//     — state dirtied past the point where rollback can cover it),
//     `blocking-in-handler` (a disk wait or fiber suspend no reviewed
//     suppression covers)
//     and `unsummarized-callee` (a reachable call the analyzer has no
//     definition or intrinsic model for — a soundness escape);
//   * the machine-readable handler_effects.json artifact (see DESIGN.md §13
//     for the schema).
//
// The determinism lint (also Pass 4, but file-local rather than
// call-graph-rooted) codifies the PR 4 bug class: pointer-keyed container
// iteration, address-based hashing, and wall-clock/rand use outside
// support/rng.hpp.
#pragma once

#include <vector>

#include "callgraph.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace osiris::analyze {

/// Summarize every handler registration in `report.handlers` over the call
/// graph, filling `report.handler_effects` and appending the flow-sensitive
/// findings. Requires Pass 2 resolution to have run (`report.sites` must
/// carry resolved SEEP classes).
void run_effects_pass(const std::vector<LexedFile>& files, const CallGraph& graph,
                      Report& report);

/// File-local determinism lint: one finding per nondeterminism source.
void run_determinism_pass(const LexedFile& f, std::vector<Finding>& findings);

}  // namespace osiris::analyze
