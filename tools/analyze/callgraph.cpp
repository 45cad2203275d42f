#include "callgraph.hpp"

namespace osiris::analyze {

namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool is_body_qualifier(const Token& t) {
  return t.is_ident("const") || t.is_ident("noexcept") || t.is_ident("override") ||
         t.is_ident("final") || t.is_ident("mutable");
}

/// Skip a `<...>` template-argument group with naive depth counting (the
/// lexer emits single-char '<'/'>', and no initializer list in the tree
/// contains shift operators).
std::size_t skip_angles(const Tokens& t, std::size_t i) {
  if (i >= t.size() || !t[i].is("<")) return i;
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].is("<")) ++depth;
    if (t[i].is(">") && --depth == 0) return i + 1;
    if (t[i].is(";")) break;  // runaway: not a template group
  }
  return kNone;
}

/// From a constructor's `:` token, walk the member initializer list; returns
/// the index of the body '{' or kNone if this was not an initializer list
/// (e.g. the `:` of a ternary).
std::size_t skip_init_list(const Tokens& t, std::size_t i) {
  ++i;  // past ':'
  while (i < t.size()) {
    if (t[i].kind != Tok::kIdent) return kNone;
    ++i;
    if (i < t.size() && t[i].is("<")) {
      i = skip_angles(t, i);
      if (i == kNone) return kNone;
    }
    if (i >= t.size()) return kNone;
    if (t[i].is("(")) {
      i = match_forward(t, i, "(", ")") + 1;
    } else if (t[i].is("{")) {
      i = match_forward(t, i, "{", "}") + 1;
    } else {
      return kNone;
    }
    if (i < t.size() && t[i].is(",")) {
      ++i;
      continue;
    }
    return i < t.size() && t[i].is("{") ? i : kNone;
  }
  return kNone;
}

/// Collect the call names inside cothread::Fiber constructor lambdas:
/// `std::make_unique<cothread::Fiber>([caps] { ... })` — everything the
/// fiber body calls becomes a "fiber entry" for its file.
void collect_fiber_entries(const LexedFile& f, CallGraph& g) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].is_ident("Fiber")) continue;
    // Constructor-call shape: `Fiber > (` (make_unique) or `Fiber (`.
    std::size_t open = kNone;
    if (t[i + 1].is(">") && t[i + 2].is("(")) open = i + 2;
    if (t[i + 1].is("(")) open = i + 1;
    if (open == kNone) continue;
    const std::size_t close = match_forward(t, open, "(", ")");
    // The lambda body: first '{' after the capture list inside the args.
    for (std::size_t j = open + 1; j < close; ++j) {
      if (!t[j].is("[")) continue;
      std::size_t k = match_forward(t, j, "[", "]") + 1;
      if (k < close && t[k].is("(")) k = match_forward(t, k, "(", ")") + 1;
      if (k >= close || !t[k].is("{")) break;
      const std::size_t body_end = match_forward(t, k, "{", "}");
      for (std::size_t c = k + 1; c < body_end; ++c) {
        if (t[c].kind != Tok::kIdent || c + 1 >= t.size() || !t[c + 1].is("(")) continue;
        if (is_control_keyword(t[c].text)) continue;
        g.fiber_entries[f.path].push_back(t[c].text);
      }
      break;
    }
    i = close;
  }
}

}  // namespace

CallGraph build_call_graph(const std::vector<LexedFile>& files) {
  CallGraph g;
  for (const LexedFile& f : files) {
    const Tokens& t = f.tokens;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || !t[i + 1].is("(")) continue;
      if (is_control_keyword(t[i].text)) continue;
      // Member access is a call, never a definition.
      if (t[i - 1].is(".") || t[i - 1].is("->")) continue;
      // `Type name(args);` declarations/ctor-calls: previous token is an
      // identifier or a closing angle bracket of its type.
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      if (close >= t.size()) continue;

      std::size_t j = close + 1;
      while (j < t.size() && is_body_qualifier(t[j])) {
        ++j;
        if (j < t.size() && t[j].is("(")) j = match_forward(t, j, "(", ")") + 1;  // noexcept(...)
      }
      std::size_t body = kNone;
      if (j < t.size() && t[j].is("{")) {
        body = j;
      } else if (j < t.size() && t[j].is(":")) {
        body = skip_init_list(t, j);
      }
      if (body == kNone || body >= t.size()) continue;

      FuncDef d;
      d.name = t[i].text;
      if (i >= 2 && t[i - 1].is("::") && t[i - 2].kind == Tok::kIdent) d.qual = t[i - 2].text;
      d.file = &f;
      d.line = t[i].line;
      d.body_begin = body;
      d.body_end = match_forward(t, body, "{", "}");
      g.by_name[d.name].push_back(g.funcs.size());
      g.funcs.push_back(std::move(d));
      // Do not skip the body: in-class definitions nest inside class braces,
      // and inner candidates are filtered by the same rules.
    }
    collect_fiber_entries(f, g);
  }
  return g;
}

}  // namespace osiris::analyze
