#include "effects.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace osiris::analyze {

namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::size_t kMaxFlatEffects = 50000;  // runaway-summary backstop
constexpr int kMaxDepth = 64;

// --- intrinsic model ---------------------------------------------------------
//
// The analyzer models a small set of runtime primitives directly instead of
// summarizing their bodies; everything the summaries claim about windows
// derives from these.

/// seep_* wrappers and the explicit Window hook: resolved through Pass 2's
/// per-(file,line) site table, never through their ServerCommon definitions.
bool is_send_intrinsic(const std::string& s) {
  return s == "seep_call" || s == "seep_send" || s == "seep_notify" ||
         s == "seep_deferred_reply" || s == "on_outbound";
}

/// Deferred-execution primitives: their lambda argument runs outside the
/// current handler activation (device completion fires VFS_DEV_DONE, clock
/// callbacks run from the instance pump), so the whole argument range is
/// excluded from this handler's straight-line flow.
bool is_deferred_intrinsic(const std::string& s) {
  return s == "submit_read" || s == "submit_write" || s == "call_after";
}

/// Plain-name calls that are macros, message factories or libc/runtime
/// helpers with no effect on recoverable state, windows or scheduling.
/// Anything *not* on this list and not resolvable to a scanned definition
/// becomes an `unsummarized-callee` escape.
bool is_benign_call(const std::string& s) {
  static const std::set<std::string> benign = {
      // assertion / logging / tracing / fault-injection macros
      // (preprocessor-stripped, so they can never resolve to a definition)
      "SRV_CHECK", "OSIRIS_ASSERT", "OSIRIS_PANIC", "OSIRIS_LOG", "OSIRIS_TRACE",
      "OSIRIS_DEBUG", "OSIRIS_INFO", "OSIRIS_WARN", "OSIRIS_ERROR", "OSIRIS_TRACE_EVENT",
      "FI_BLOCK", "FI_VALUE", "FI_BRANCH", "assert",
      // message factories and spec lookups (pure constructors / table reads)
      "make_msg", "make_reply", "encode", "encode_text", "decode", "msg_label", "msg_name",
      "find_msg_spec",
      // libc-ish helpers occasionally used unqualified
      "memcpy", "memset", "memcmp", "strlen", "snprintf", "min", "max", "move", "swap",
      // nondeterminism sources: the determinism lint owns these
      "rand", "srand", "random", "time",
  };
  return benign.count(s) != 0;
}

/// Mutating members of the ckpt:: wrapper chain rooted at st(). Everything
/// else on the chain is a read accessor.
bool is_mutating_member(const std::string& s) {
  static const std::set<std::string> mut = {"mutate", "alloc", "free",       "set",
                                            "fill",   "clear", "store_range"};
  return mut.count(s) != 0;
}

bool is_stmt_keyword(const std::string& s) {
  return s == "return" || s == "throw" || s == "else" || s == "do" || s == "case";
}

// --- local event extraction --------------------------------------------------

/// One event of a function body's straight-line token walk: either a ready
/// Effect or a call to resolve during flattening.
struct LocalEvent {
  bool is_call = false;
  Effect eff;  // valid when !is_call

  std::string name;  // callee (is_call)
  bool is_resume = false;
  bool member = false;       // receiver via `.` / `->`
  std::string scope_root;    // `X` for `X::..::name(`, empty otherwise
  int line = 0;
};

/// `for (` with an empty condition clause, or `while (true|1)`.
bool is_unbounded_loop(const Tokens& t, std::size_t i, std::size_t* out_end) {
  if (t[i].is_ident("while") && i + 3 < t.size() && t[i + 1].is("(") &&
      (t[i + 2].is_ident("true") || t[i + 2].is("1")) && t[i + 3].is(")")) {
    *out_end = i + 3;
    return true;
  }
  if (!t[i].is_ident("for") || i + 1 >= t.size() || !t[i + 1].is("(")) return false;
  const std::size_t close = match_forward(t, i + 1, "(", ")");
  if (close >= t.size()) return false;
  std::size_t first_semi = kNone;
  int depth = 0;
  for (std::size_t j = i + 2; j < close; ++j) {
    if (t[j].is("(") || t[j].is("[") || t[j].is("{")) ++depth;
    if (t[j].is(")") || t[j].is("]") || t[j].is("}")) --depth;
    if (depth != 0 || !t[j].is(";")) continue;
    if (first_semi == kNone) {
      first_semi = j;
    } else {
      // Condition clause is tokens (first_semi, j): empty means unbounded.
      if (j == first_semi + 1) {
        *out_end = i + 1;  // do not skip the header: init/step may hold calls
        return true;
      }
      return false;
    }
  }
  return false;
}

/// Scan a `st()`-rooted wrapper chain starting at the `st` identifier.
/// Records a mutation event when the chain passes through a mutating member
/// call or ends in an assignment/compound-assignment/increment. Returns the
/// index the main walk should continue from (never skips argument tokens, so
/// calls inside `mutate(...)`/`for_each(...)` arguments are still seen).
std::size_t scan_state_chain(const Tokens& t, std::size_t i, const LexedFile& f,
                             std::vector<LocalEvent>& out) {
  std::string path = "st()";
  std::size_t j = i + 3;  // past `st ( )`
  bool has_field = false;
  while (j + 1 < t.size()) {
    if ((t[j].is(".") || t[j].is("->")) && t[j + 1].kind == Tok::kIdent) {
      const std::string& name = t[j + 1].text;
      if (j + 2 < t.size() && t[j + 2].is("(")) {
        if (is_mutating_member(name)) {
          LocalEvent ev;
          ev.eff.kind = EffectKind::kMutation;
          ev.eff.detail = path + "." + name;
          ev.eff.file = f.path;
          ev.eff.line = t[j + 1].line;
          out.push_back(std::move(ev));
        }
        // Accessor or mutator call: stop the chain here and let the main
        // walk descend into the argument tokens (for_each lambdas execute
        // synchronously and must contribute their effects in place).
        return j + 3;
      }
      path += "." + name;
      has_field = true;
      j += 2;
      continue;
    }
    if (t[j].is("[")) {
      const std::size_t close = match_forward(t, j, "[", "]");
      if (close >= t.size()) return j + 1;
      path += "[]";
      j = close + 1;
      continue;
    }
    break;
  }
  if (has_field && j + 1 < t.size()) {
    // Compound operators lex as single-char punctuation ('+','=' ...).
    const bool assign = (t[j].is("=") && !t[j + 1].is("=")) ||
                        ((t[j].is("+") || t[j].is("-") || t[j].is("|") || t[j].is("&") ||
                          t[j].is("^") || t[j].is("*") || t[j].is("/") || t[j].is("%")) &&
                         t[j + 1].is("=")) ||
                        (t[j].is("+") && t[j + 1].is("+")) || (t[j].is("-") && t[j + 1].is("-"));
    if (assign) {
      LocalEvent ev;
      ev.eff.kind = EffectKind::kMutation;
      ev.eff.detail = path + " =";
      ev.eff.file = f.path;
      ev.eff.line = t[j].line;
      out.push_back(std::move(ev));
    }
  }
  return j;
}

/// Per-(file,line) index of Pass 2's resolved send sites.
using SiteIndex = std::map<std::string, std::map<int, const SendSite*>>;

/// Extract the ordered local events of one function body.
std::vector<LocalEvent> extract_local_events(const FuncDef& d, const SiteIndex& sites) {
  std::vector<LocalEvent> out;
  const Tokens& t = d.file->tokens;
  std::size_t i = d.body_begin + 1;
  while (i < d.body_end && i + 1 < t.size()) {
    const Token& tok = t[i];
    if (tok.kind != Tok::kIdent) {
      ++i;
      continue;
    }

    std::size_t loop_end = kNone;
    if (is_unbounded_loop(t, i, &loop_end)) {
      LocalEvent ev;
      ev.eff.kind = EffectKind::kUnboundedLoop;
      ev.eff.detail = tok.text == "for" ? "for(;;)" : "while(true)";
      ev.eff.file = d.file->path;
      ev.eff.line = tok.line;
      out.push_back(std::move(ev));
      i = loop_end + 1;
      continue;
    }

    if (tok.is_ident("st") && t[i + 1].is("(") && i + 2 < d.body_end && t[i + 2].is(")")) {
      i = scan_state_chain(t, i, *d.file, out);
      continue;
    }

    if (!t[i + 1].is("(") || is_control_keyword(tok.text)) {
      ++i;
      continue;
    }
    const bool member = i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
    const bool scoped = i > 0 && t[i - 1].is("::");

    // `Type name(args)` declarations: previous token is a plain identifier
    // (not a statement keyword) or the `>` closing its template arguments.
    if (!member && !scoped && i > 0 &&
        ((t[i - 1].kind == Tok::kIdent && !is_stmt_keyword(t[i - 1].text)) || t[i - 1].is(">"))) {
      ++i;
      continue;
    }

    const std::string& name = tok.text;

    // Intrinsics first: they shadow any definition the graph may hold (the
    // seep_* wrapper bodies in ServerBase must not be summarized into their
    // callers — the site table is authoritative).
    if (is_send_intrinsic(name)) {
      auto fit = sites.find(d.file->path);
      if (fit != sites.end()) {
        auto lit = fit->second.find(tok.line);
        if (lit != fit->second.end()) {
          const SendSite* s = lit->second;
          LocalEvent ev;
          ev.eff.kind = EffectKind::kSend;
          ev.eff.detail = s->kind;
          ev.eff.msg = s->msg;
          ev.eff.dst = s->dst;
          ev.eff.cls = s->cls;
          ev.eff.classified = s->classified;
          ev.eff.sync = s->kind == "call";
          ev.eff.file = d.file->path;
          ev.eff.line = tok.line;
          out.push_back(std::move(ev));
        }
      }
      // No site entry: this is the wrapper definition itself (or a line the
      // seep pass rejected) — nothing to record.
      ++i;
      continue;
    }
    if (name == "on_yield") {
      LocalEvent ev;
      ev.eff.kind = EffectKind::kYield;
      ev.eff.detail = "on_yield";
      ev.eff.file = d.file->path;
      ev.eff.line = tok.line;
      out.push_back(std::move(ev));
      ++i;
      continue;
    }
    if (name == "suspend" || name == "read_now") {
      LocalEvent ev;
      ev.eff.kind = EffectKind::kBlocking;
      ev.eff.detail = name == "suspend" ? "fiber-suspend" : "blockdev-wait";
      ev.eff.file = d.file->path;
      ev.eff.line = tok.line;
      out.push_back(std::move(ev));
      ++i;
      continue;
    }
    if (is_deferred_intrinsic(name)) {
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      i = close >= t.size() ? i + 1 : close + 1;
      continue;
    }
    if (name == "resume") {
      LocalEvent ev;
      ev.is_call = true;
      ev.is_resume = true;
      ev.name = name;
      ev.line = tok.line;
      out.push_back(std::move(ev));
      ++i;
      continue;
    }
    if (is_benign_call(name)) {
      ++i;
      continue;
    }

    LocalEvent ev;
    ev.is_call = true;
    ev.name = name;
    ev.member = member;
    ev.line = tok.line;
    if (scoped) {
      // Walk the qualifier chain back to its root: `a::b::name(`.
      std::size_t k = i;
      while (k >= 2 && t[k - 1].is("::") && t[k - 2].kind == Tok::kIdent) k -= 2;
      ev.scope_root = t[k].text;
    }
    out.push_back(std::move(ev));
    ++i;
  }
  return out;
}

// --- interprocedural flattening ----------------------------------------------

struct Flat {
  std::vector<Effect> effects;
};

class Summarizer {
 public:
  Summarizer(const CallGraph& g, SiteIndex sites) : g_(g), sites_(std::move(sites)) {
    local_.resize(g.funcs.size());
    flat_.resize(g.funcs.size());
  }

  const Flat& flatten(std::size_t fi) { return flatten_impl(fi, 0); }

  /// Definition lookup with same-file preference (plain calls bind to the
  /// current translation unit first; member calls union over all classes).
  ///
  /// Resolution is layer-aware: servers reach the OS personality layer
  /// (src/os: syscall wrappers and the monolithic baseline) only via
  /// IPC, never by direct call, so a name-union edge from server/fs code
  /// into src/os is always spurious (e.g. `minifs_.read(...)` must not pull
  /// in `Sys::read`'s sendrec loop). Callers inside src/os keep the full
  /// union.
  std::vector<std::size_t> resolve_targets(const std::string& name, const LexedFile* from,
                                           bool prefer_same_file) const {
    const std::vector<std::size_t>* all = g_.resolve(name);
    if (all == nullptr) return {};
    const bool from_os = from != nullptr && from->path.find("src/os/") != std::string::npos;
    std::vector<std::size_t> eligible;
    for (std::size_t fi : *all) {
      const std::string& p = g_.funcs[fi].file->path;
      if (!from_os && p.find("src/os/") != std::string::npos) continue;
      eligible.push_back(fi);
    }
    if (prefer_same_file) {
      std::vector<std::size_t> same;
      for (std::size_t fi : eligible) {
        if (g_.funcs[fi].file == from) same.push_back(fi);
      }
      if (!same.empty()) return same;
    }
    return eligible;
  }

 private:
  const Flat& flatten_impl(std::size_t fi, int depth) {
    if (flat_[fi]) return *flat_[fi];
    static const Flat kEmpty{};
    if (depth > kMaxDepth) return kEmpty;
    if (on_stack_.count(fi) != 0) {
      // Cycle: the caller records the cut; nothing to flatten here.
      return kEmpty;
    }
    on_stack_.insert(fi);
    const FuncDef& d = g_.funcs[fi];
    if (!local_[fi]) local_[fi] = extract_local_events(d, sites_);

    Flat result;
    for (const LocalEvent& ev : *local_[fi]) {
      if (result.effects.size() > kMaxFlatEffects) break;
      if (!ev.is_call) {
        result.effects.push_back(ev.eff);
        continue;
      }

      std::vector<std::size_t> targets;
      if (ev.is_resume) {
        // Synthetic fiber edges: `fiber->resume()` transfers control into
        // the worker lambda; splice the summaries of everything the lambda
        // body calls (same file).
        auto fit = g_.fiber_entries.find(d.file->path);
        if (fit != g_.fiber_entries.end()) {
          std::set<std::size_t> seen;
          for (const std::string& entry : fit->second) {
            for (std::size_t ti : resolve_targets(entry, d.file, true)) {
              if (seen.insert(ti).second) targets.push_back(ti);
            }
          }
        }
      } else {
        targets = resolve_targets(ev.name, d.file, /*prefer_same_file=*/!ev.member);
      }

      if (targets.empty()) {
        // Scoped calls anchor to external namespaces (std::, kernel::, ...)
        // and member calls bind to plain data-structure methods; only an
        // unresolvable *plain* call is a summary escape.
        if (!ev.member && ev.scope_root.empty() && !ev.is_resume) {
          Effect e;
          e.kind = EffectKind::kUnresolvedCall;
          e.detail = ev.name;
          e.file = d.file->path;
          e.line = ev.line;
          result.effects.push_back(std::move(e));
        }
        continue;
      }
      for (std::size_t ti : targets) {
        if (on_stack_.count(ti) != 0) {
          Effect e;
          e.kind = EffectKind::kRecursiveCall;
          e.detail = ev.name;
          e.file = d.file->path;
          e.line = ev.line;
          result.effects.push_back(std::move(e));
          continue;
        }
        const Flat& sub = flatten_impl(ti, depth + 1);
        for (const Effect& e : sub.effects) {
          if (result.effects.size() > kMaxFlatEffects) break;
          result.effects.push_back(e);
        }
      }
    }
    on_stack_.erase(fi);
    flat_[fi] = std::move(result);
    return *flat_[fi];
  }

  const CallGraph& g_;
  SiteIndex sites_;
  std::vector<std::optional<std::vector<LocalEvent>>> local_;
  std::vector<std::optional<Flat>> flat_;
  std::set<std::size_t> on_stack_;
};

}  // namespace

const char* effect_kind_name(EffectKind k) {
  switch (k) {
    case EffectKind::kMutation: return "mutation";
    case EffectKind::kSend: return "send";
    case EffectKind::kBlocking: return "blocking";
    case EffectKind::kYield: return "yield";
    case EffectKind::kUnboundedLoop: return "unbounded-loop";
    case EffectKind::kRecursiveCall: return "recursive-call";
    case EffectKind::kUnresolvedCall: return "unresolved-call";
  }
  return "?";
}

const HandlerEffects* Report::effects_for(const std::string& server, const std::string& msg,
                                          const std::string& kind) const {
  for (const HandlerEffects& h : handler_effects) {
    if (h.server == server && h.msg == msg && h.kind == kind) return &h;
  }
  return nullptr;
}

void run_effects_pass(const std::vector<LexedFile>& files, const CallGraph& graph,
                      Report& report) {
  // Suppression lookup: blocking points under an analyze-suppress comment
  // stay in the effect inventory (they are real code paths) but are stamped
  // and excluded from findings.
  std::map<std::string, const LexedFile*> lexed;
  for (const LexedFile& f : files) lexed[f.path] = &f;
  SiteIndex sites;
  for (const SendSite& s : report.sites) sites[s.file][s.line] = &s;

  std::map<std::string, const SpecRow*> spec;
  for (const SpecRow& r : report.spec) spec[r.name] = &r;

  Summarizer summarizer(graph, std::move(sites));

  // Cross-handler finding dedup: the same deep site (e.g. the fiber suspend
  // in CachedStore::read_block) is reachable from many handler rows but is
  // one blocking point, one finding.
  std::set<std::pair<std::string, int>> seen_blocking, seen_unresolved, seen_mutate;

  for (const HandlerReg& h : report.handlers) {
    HandlerEffects he;
    he.server = h.server;
    he.msg = h.msg;
    he.kind = h.kind;
    he.fn = h.fn;
    he.file = h.file;
    he.line = h.line;
    auto sit = spec.find(h.msg);
    // ServerCommon::dispatch opens the window only for replyable requests;
    // without a spec row, a request registration is assumed replyable.
    he.opens_window = h.kind == "request" && (sit == spec.end() || sit->second->kind == "REQ");

    std::vector<std::size_t> defs;
    for (std::size_t fi : summarizer.resolve_targets(h.fn, nullptr, false)) {
      if (graph.funcs[fi].file->path == h.file) defs.push_back(fi);
    }
    if (defs.empty()) {
      // Registration without a local body (fixture stubs): keep the row so
      // coverage accounting still sees it, with an empty summary.
      report.handler_effects.push_back(std::move(he));
      continue;
    }
    he.has_body = true;
    he.file = graph.funcs[defs.front()].file->path;
    he.line = graph.funcs[defs.front()].line;
    // Union resolution replays shared callees once per candidate target, so
    // the raw flattening repeats identical site sequences; the summary keeps
    // each distinct effect site once, in first-occurrence flow order (that
    // first position is what the straight-line walk below reasons about).
    {
      const Flat& flat = summarizer.flatten(defs.front());
      std::set<std::string> seen_effects;
      for (const Effect& e : flat.effects) {
        const std::string key = std::string(effect_kind_name(e.kind)) + '|' + e.detail + '|' +
                                e.msg + '|' + e.file + '|' + std::to_string(e.line);
        if (seen_effects.insert(key).second) he.effects.push_back(e);
      }
    }
    for (Effect& e : he.effects) {
      if (e.kind != EffectKind::kBlocking) continue;
      auto lit = lexed.find(e.file);
      e.suppressed = lit != lexed.end() && lit->second->suppressed(kDetBlockingInHandler, e.line);
    }

    // Derived aggregates + handler-granularity window predictions.
    // Predictions are *existential* over the effect sequence: any branch may
    // skip a prefix (a cache hit skips the read-path suspend), so "may" facts
    // must not depend on ordering. Windows only exist for opening handlers.
    bool closed_enhanced = false;
    std::string close_msg;
    for (const Effect& e : he.effects) {
      switch (e.kind) {
        case EffectKind::kMutation:
          ++he.mutations_total;
          if (closed_enhanced) {
            ++he.mutations_after_close;
            if (he.mutations_after_close == 1 && he.opens_window &&
                seen_mutate.insert({e.file, e.line}).second) {
              report.findings.push_back(Finding{
                  kDetMutateAfterSend, e.file, e.line,
                  "ckpt mutation (" + e.detail + ") ordered after " + he.server + "/" + he.msg +
                      "'s window closes (" + close_msg +
                      " under the enhanced policy): rollback no longer covers this store"});
            }
          }
          break;
        case EffectKind::kSend:
          if (he.opens_window) {
            for (int pi = 0; pi < kNumPolicies; ++pi) {
              if (policy_closes_window(static_cast<Policy>(pi), e.cls)) {
                he.may_close_by_seep[pi] = true;
              }
            }
            if (!closed_enhanced && policy_closes_window(Policy::kEnhanced, e.cls)) {
              closed_enhanced = true;
              close_msg = e.msg;
            }
          }
          break;
        case EffectKind::kBlocking:
          if (he.opens_window) he.may_close_by_yield = true;
          if (!e.suppressed && seen_blocking.insert({e.file, e.line}).second) {
            report.findings.push_back(
                Finding{kDetBlockingInHandler, e.file, e.line,
                        "blocking operation (" + e.detail + ") reachable from handler " +
                            he.server + "/" + he.msg +
                            ": the server cannot dispatch until it completes"});
          }
          break;
        case EffectKind::kYield:
          if (he.opens_window) he.may_close_by_yield = true;
          break;
        case EffectKind::kUnboundedLoop:
          he.has_unbounded_loop = true;
          break;
        case EffectKind::kRecursiveCall:
          he.recursive = true;
          break;
        case EffectKind::kUnresolvedCall:
          ++he.unresolved_callees;
          if (seen_unresolved.insert({e.file, e.line}).second) {
            report.findings.push_back(
                Finding{kDetUnsummarizedCallee, e.file, e.line,
                        "call to '" + e.detail +
                            "' resolves to no scanned definition and no intrinsic model: "
                            "the effect summary for " +
                            he.server + "/" + he.msg + " is incomplete"});
          }
          break;
      }
    }
    report.handler_effects.push_back(std::move(he));
  }
}

// --- determinism lint --------------------------------------------------------

namespace {

bool is_assoc_container(const std::string& s) {
  return s == "map" || s == "set" || s == "multimap" || s == "multiset" ||
         s == "unordered_map" || s == "unordered_set";
}

bool is_wallclock_ident(const std::string& s) {
  return s == "steady_clock" || s == "system_clock" || s == "high_resolution_clock" ||
         s == "gettimeofday" || s == "clock_gettime" || s == "timespec_get";
}

bool is_rand_ident(const std::string& s) {
  return s == "rand" || s == "srand" || s == "random" || s == "drand48" || s == "lrand48" ||
         s == "random_device" || s == "mt19937" || s == "mt19937_64" ||
         s == "default_random_engine" || s == "minstd_rand";
}

/// Does the first top-level template argument of the group opening at `lt`
/// name a pointer (or integer-laundered pointer) type?
bool first_targ_is_pointerish(const Tokens& t, std::size_t lt, std::size_t* out_end) {
  int depth = 0;
  bool pointerish = false;
  bool in_first = true;
  for (std::size_t i = lt; i < t.size(); ++i) {
    if (t[i].is("<")) ++depth;
    if (t[i].is(">") && --depth == 0) {
      *out_end = i;
      return pointerish;
    }
    if (t[i].is(";")) break;  // runaway: comparison, not a template group
    if (depth == 1 && t[i].is(",")) in_first = false;
    if (depth == 1 && in_first &&
        (t[i].is("*") || t[i].is_ident("uintptr_t") || t[i].is_ident("intptr_t"))) {
      pointerish = true;
    }
  }
  *out_end = lt;
  return false;
}

}  // namespace

void run_determinism_pass(const LexedFile& f, std::vector<Finding>& findings) {
  const Tokens& t = f.tokens;
  auto add = [&](const char* det, int line, std::string msg) {
    if (f.suppressed(det, line)) return;
    findings.push_back(Finding{det, f.path, line, std::move(msg)});
  };

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const bool member = i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
    const std::string& s = t[i].text;

    if (is_assoc_container(s) && t[i + 1].is("<") && !member) {
      std::size_t end = 0;
      if (first_targ_is_pointerish(t, i + 1, &end)) {
        add(kDetNondetPointerKey, t[i].line,
            "pointer-keyed " + s +
                ": iteration order depends on heap layout — traces and merges fed from it "
                "are nondeterministic (the PR 4 duplicate-filter bug class)");
        i = end;
        continue;
      }
    }
    if (s == "hash" && t[i + 1].is("<")) {
      std::size_t end = 0;
      if (first_targ_is_pointerish(t, i + 1, &end)) {
        add(kDetNondetAddrHash, t[i].line,
            "hashing a pointer value: the digest changes across runs with ASLR/heap layout");
        i = end;
        continue;
      }
    }
    if (is_wallclock_ident(s)) {
      add(kDetNondetWallClock, t[i].line,
          "wall-clock source '" + s +
              "': replay and golden traces require the deterministic VirtualClock");
      continue;
    }
    if (is_rand_ident(s) && !member) {
      add(kDetNondetRand, t[i].line,
          "unseeded/ambient randomness '" + s +
              "': randomized behaviour must flow through support/rng.hpp");
      continue;
    }
  }
}

}  // namespace osiris::analyze
