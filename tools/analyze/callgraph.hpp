// Pass 4 support: a name-resolved call graph over the scanned sources.
//
// The analyzer is a token-level tool, not a C++ frontend, so the graph is
// built from two heuristics that hold across the OSIRIS tree:
//
//   * A *definition* is `name (params) [quals] {` — optionally preceded by
//     `Class ::` for out-of-line members and optionally carrying a
//     constructor initializer list between the parameter list and the body.
//   * A *call* is `name (` in a function body whose previous token is not an
//     identifier (declarations like `FiScope s(...)`), not `.`/`->`-free
//     member access it cannot place, and not a control-flow keyword.
//
// Resolution is purely by name. Overloads and same-named methods on
// different classes resolve to the *union* of all definitions — a
// conservative over-approximation (documented in DESIGN.md §13) that also
// covers virtual dispatch (e.g. `BlockStore::read_block` resolving to both
// CachedStore and DirectStore bodies).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace osiris::analyze {

/// One function definition found in a scanned file.
struct FuncDef {
  std::string name;          // unqualified function name
  std::string qual;          // `Pm` for `Pm::do_fork`, empty for free/in-class
  const LexedFile* file = nullptr;
  int line = 0;
  std::size_t body_begin = 0;  // token index of the body '{'
  std::size_t body_end = 0;    // token index of the matching '}'
};

struct CallGraph {
  std::vector<FuncDef> funcs;
  /// name -> indices into funcs (union resolution).
  std::map<std::string, std::vector<std::size_t>> by_name;
  /// Per file path: names called from inside cothread::Fiber constructor
  /// lambdas. `fiber->resume()` in the same file gets synthetic edges to
  /// these (the worker-thread indirection in VFS).
  std::map<std::string, std::vector<std::string>> fiber_entries;

  [[nodiscard]] const std::vector<std::size_t>* resolve(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &it->second;
  }
};

/// Build the call graph over all lexed files.
CallGraph build_call_graph(const std::vector<LexedFile>& files);

}  // namespace osiris::analyze
