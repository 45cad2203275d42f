#include "discipline.hpp"

#include <algorithm>
#include <string_view>

namespace osiris::analyze {

namespace {

using Tokens = std::vector<Token>;

void add_finding(const LexedFile& f, std::vector<Finding>& out, const char* detector, int line,
                 std::string message) {
  if (f.suppressed(detector, line)) return;
  out.push_back(Finding{detector, f.path, line, std::move(message)});
}

/// Does tokens[from..to) contain the call pattern `st ( )` or the
/// identifier `state_` (the two spellings of the recoverable data section)?
bool touches_state(const Tokens& t, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    if (t[i].is_ident("state_")) return true;
    if (t[i].is_ident("st") && i + 2 < to && t[i + 1].is("(") && t[i + 2].is(")")) return true;
  }
  return false;
}

// --- state-raw-field ---------------------------------------------------------

/// Check one member declaration of a State struct: tokens [from..semi).
/// Returns true if the declaration was a data field (counted).
bool check_state_field(const LexedFile& f, const Tokens& t, std::size_t from, std::size_t semi,
                       const std::string& struct_name, std::vector<Finding>& out) {
  if (from >= semi) return false;
  static constexpr std::string_view kSkipLead[] = {"using", "static_assert", "friend",
                                                   "enum",  "struct",        "class",
                                                   "public", "private",      "protected"};
  for (std::string_view s : kSkipLead) {
    if (t[from].is_ident(s)) return false;
  }
  // A declarator containing a parenthesis at angle-depth 0 is a function
  // (or constructor) — State structs should not have them, but skip rather
  // than misreport.
  int angle = 0;
  for (std::size_t i = from; i < semi; ++i) {
    if (t[i].is("<")) ++angle;
    if (t[i].is(">")) angle = std::max(0, angle - 1);
    if (angle == 0 && t[i].is("(")) return false;
    if (angle == 0 && t[i].is("=")) break;  // initializer: type tokens end here
  }
  // Accept `ckpt::X<...>` and `osiris::ckpt::X<...>` field types — the
  // wrapper family (Cell/Array/Table/...).
  std::size_t p = from;
  if (t[p].is_ident("osiris") && p + 1 < semi && t[p + 1].is("::")) p += 2;
  const bool is_wrapper = t[p].is_ident("ckpt") && p + 1 < semi && t[p + 1].is("::");
  if (!is_wrapper) {
    // Field name: last identifier before ';', '=' or '{'.
    std::string field = "?";
    for (std::size_t i = from; i < semi; ++i) {
      if (t[i].is("=") || t[i].is("{")) break;
      if (t[i].kind == Tok::kIdent) field = t[i].text;
    }
    add_finding(f, out, kDetStateRawField, t[from].line,
                struct_name + "::" + field +
                    " is not a ckpt:: wrapper type: stores to it bypass the undo log "
                    "(unrecoverable state in the recoverable data section)");
  }
  return true;
}

void scan_state_structs(const LexedFile& f, std::vector<Finding>& out, DisciplineStats& stats) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].is_ident("struct")) continue;
    if (t[i + 1].kind != Tok::kIdent || !t[i + 1].text.ends_with("State")) continue;
    // Find the opening brace (skip base clauses; a forward declaration has
    // ';' before '{').
    std::size_t open = i + 2;
    while (open < t.size() && !t[open].is("{") && !t[open].is(";")) ++open;
    if (open >= t.size() || t[open].is(";")) continue;
    const std::size_t close = match_forward(t, open, "{", "}");
    ++stats.state_structs;
    const std::string struct_name = t[i + 1].text;

    // Walk the member declarations at depth 1.
    std::size_t p = open + 1;
    while (p < close) {
      // Access specifier `public:` etc.
      if (t[p].kind == Tok::kIdent && p + 1 < close && t[p + 1].is(":") &&
          (t[p].is_ident("public") || t[p].is_ident("private") || t[p].is_ident("protected"))) {
        p += 2;
        continue;
      }
      // Find the end of this declaration: ';' at depth 0, skipping nested
      // braces (default member initializers `{}` and nested types).
      std::size_t q = p;
      bool had_body = false;
      while (q < close) {
        if (t[q].is("{")) {
          q = match_forward(t, q, "{", "}");
          had_body = true;
          ++q;
          continue;
        }
        if (t[q].is("(")) {
          q = match_forward(t, q, "(", ")") + 1;
          continue;
        }
        if (t[q].is(";")) break;
        ++q;
      }
      if (p < q && !(had_body && q >= close)) {
        if (check_state_field(f, t, p, std::min(q, close), struct_name, out)) {
          ++stats.state_fields;
        }
      }
      p = q + 1;
    }
    i = close;
  }
}

// --- state-memfn / state-const-cast -----------------------------------------

void scan_mem_functions(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const bool is_memfn =
        t[i].is("memcpy") || t[i].is("memset") || t[i].is("memmove");
    if (!is_memfn || !t[i + 1].is("(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    // First argument: up to the first top-level comma.
    int depth = 0;
    std::size_t arg_end = close;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (t[j].is("(") || t[j].is("{") || t[j].is("[")) ++depth;
      if (t[j].is(")") || t[j].is("}") || t[j].is("]")) --depth;
      if (depth == 0 && t[j].is(",")) {
        arg_end = j;
        break;
      }
    }
    if (touches_state(t, open + 1, arg_end)) {
      add_finding(f, out, kDetStateMemfn, t[i].line,
                  t[i].text + " writes into the recoverable data section: the raw store "
                              "bypasses ckpt:: undo-log instrumentation");
    }
  }
}

void scan_const_casts(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_ident("const_cast")) continue;
    // const_cast< T >( expr )
    std::size_t open = i + 1;
    while (open < t.size() && !t[open].is("(")) ++open;
    if (open >= t.size()) continue;
    const std::size_t close = match_forward(t, open, "(", ")");
    if (touches_state(t, open + 1, close)) {
      add_finding(f, out, kDetStateConstCast, t[i].line,
                  "const_cast launders read-only state access into unlogged mutable access");
    }
  }
}

// --- mutate-escape -----------------------------------------------------------

void scan_mutate_escapes(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  std::size_t stmt_start = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].is(";") || t[i].is("{") || t[i].is("}")) {
      stmt_start = i + 1;
      continue;
    }
    if (!t[i].is_ident("mutate") || i + 1 >= t.size() || !t[i + 1].is("(") || i == 0 ||
        !t[i - 1].is(".")) {
      continue;
    }
    // Inspect the statement prefix [stmt_start .. i).
    bool returned = false;
    bool address_taken = false;
    bool static_bound = false;
    for (std::size_t j = stmt_start; j < i; ++j) {
      if (t[j].is_ident("return")) returned = true;
      if (t[j].is_ident("static")) static_bound = true;
      if (t[j].is("=") && j + 1 < i && t[j + 1].is("&")) address_taken = true;
    }
    if (returned) {
      add_finding(f, out, kDetMutateEscape, t[i].line,
                  "mutate() reference returned from function: the caller can store to state "
                  "after the undo-log record was taken");
    } else if (address_taken) {
      add_finding(f, out, kDetMutateEscape, t[i].line,
                  "address of mutate() result stored: the pointer outlives the statement and "
                  "later stores through it are unlogged");
    } else if (static_bound) {
      add_finding(f, out, kDetMutateEscape, t[i].line,
                  "mutate() reference bound to a static: it survives checkpoint resets, so "
                  "later stores through it are unlogged");
    }
  }
}

// --- raw-kernel-send ---------------------------------------------------------

void scan_raw_kernel_sends(const LexedFile& f, std::vector<Finding>& out) {
  static constexpr std::string_view kIpcVerbs[] = {"send", "call", "notify", "reply_to"};
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    bool is_verb = false;
    for (std::string_view v : kIpcVerbs) {
      if (t[i].is(v)) is_verb = true;
    }
    if (!is_verb || !t[i + 1].is("(") || i == 0) continue;
    // Receiver expression immediately before: `kernel_.`, `kern().`, or any
    // pointer deref `X->`.
    bool raw = false;
    if (t[i - 1].is("->")) raw = true;
    if (t[i - 1].is(".") && i >= 2 && t[i - 2].is_ident("kernel_")) raw = true;
    if (t[i - 1].is(".") && i >= 4 && t[i - 2].is(")") && t[i - 3].is("(") &&
        t[i - 4].is_ident("kern")) {
      raw = true;
    }
    if (raw) {
      add_finding(f, out, kDetRawKernelSend, t[i].line,
                  "outbound IPC (" + t[i].text +
                      ") bypasses the seep_* wrappers: the recovery window will not observe "
                      "this cross-component dependency");
    }
  }
}

}  // namespace

DisciplineStats run_discipline_pass(const LexedFile& f, const DisciplineOptions& opt,
                                    std::vector<Finding>& findings) {
  DisciplineStats stats;
  scan_state_structs(f, findings, stats);
  scan_mem_functions(f, findings);
  scan_const_casts(f, findings);
  scan_mutate_escapes(f, findings);
  if (opt.check_raw_kernel_sends) scan_raw_kernel_sends(f, findings);
  return stats;
}

}  // namespace osiris::analyze
