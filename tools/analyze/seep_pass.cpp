#include "seep_pass.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <string_view>

namespace osiris::analyze {

namespace {

using Tokens = std::vector<Token>;

/// Split the argument list of a call whose '(' is at `open` into top-level
/// argument token ranges [first, last).
std::vector<std::pair<std::size_t, std::size_t>> split_args(const Tokens& t, std::size_t open,
                                                            std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  // Angle brackets are deliberately not tracked: `1ULL << x` lexes as two
  // '<' tokens and would unbalance the depth; no send-site, registration or
  // spec-row argument contains a comma inside template angle brackets.
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].is("(") || t[i].is("{") || t[i].is("[")) ++depth;
    if (t[i].is(")") || t[i].is("}") || t[i].is("]")) --depth;
    if (depth == 0 && t[i].is(",")) {
      args.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < close) args.emplace_back(start, close);
  return args;
}

bool looks_like_msg_constant(const std::string& s) {
  if (s.size() < 4) return false;
  bool has_underscore = false;
  for (char c : s) {
    if (c == '_') has_underscore = true;
    if ((std::isupper(static_cast<unsigned char>(c)) == 0) && c != '_' &&
        (std::isdigit(static_cast<unsigned char>(c)) == 0)) {
      return false;
    }
  }
  return has_underscore;
}

/// First ALL_CAPS identifier in [from, to) — the message-type constant in
/// expressions like `PM_SIG_NOTIFY | kernel::kNotifyBit`.
std::string first_msg_constant(const Tokens& t, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    if (t[i].kind == Tok::kIdent && looks_like_msg_constant(t[i].text)) return t[i].text;
  }
  return {};
}

SeepClass seep_class_from_token(std::string_view name) {
  if (name == "kNonStateModifying") return SeepClass::kNonStateModifying;
  return SeepClass::kStateModifying;
}

/// Message factories whose first argument carries the type constant.
bool is_msg_factory(const Token& tk) {
  return tk.is_ident("make_msg") || tk.is_ident("make_reply") || tk.is_ident("encode") ||
         tk.is_ident("encode_text");
}

}  // namespace

const char* seep_class_name(SeepClass c) {
  switch (c) {
    case SeepClass::kNonStateModifying: return "non-state-modifying";
    case SeepClass::kStateModifying: return "state-modifying";
  }
  return "?";
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kPessimistic: return "pessimistic";
    case Policy::kEnhanced: return "enhanced";
  }
  return "?";
}

std::map<std::string, int> Report::findings_by_detector() const {
  std::map<std::string, int> by;
  for (const Finding& f : findings) ++by[f.detector];
  return by;
}

const WindowPrediction* Report::prediction_for(const std::string& server) const {
  for (const WindowPrediction& p : predictions) {
    if (p.server == server) return &p;
  }
  return nullptr;
}

std::vector<SendSite> extract_send_sites(const LexedFile& f, const std::string& server) {
  std::vector<SendSite> out;
  const Tokens& t = f.tokens;
  // Local `Message x = [kernel::]make_msg(TYPE...)` / make_reply / encode /
  // encode_text bindings. The map is file-wide: variable uses always follow
  // their definition, and redefinitions overwrite, which matches lexical
  // order closely enough for straight-line handler code.
  std::map<std::string, std::string> var_msg;

  auto msg_from_factory = [&](std::size_t id_idx) -> std::string {
    // id_idx points at a message factory; the type is the first message
    // constant of the first argument.
    std::size_t open = id_idx + 1;
    if (open >= t.size() || !t[open].is("(")) return {};
    const std::size_t close = match_forward(t, open, "(", ")");
    const auto args = split_args(t, open, close);
    if (args.empty()) return {};
    return first_msg_constant(t, args[0].first, args[0].second);
  };

  static constexpr std::string_view kEndpointServers[][2] = {
      {"kPmEp", "pm"}, {"kVmEp", "vm"}, {"kVfsEp", "vfs"},
      {"kDsEp", "ds"}, {"kRsEp", "rs"}, {"kSysEp", "sys"},
  };

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;

    // Track Message variable bindings.
    if (t[i].is("Message") && i + 2 < t.size() && t[i + 1].kind == Tok::kIdent &&
        t[i + 2].is("=")) {
      for (std::size_t j = i + 3; j < t.size() && !t[j].is(";"); ++j) {
        if (is_msg_factory(t[j])) {
          const std::string msg = msg_from_factory(j);
          if (!msg.empty()) var_msg[t[i + 1].text] = msg;
          break;
        }
      }
      continue;
    }

    // Explicit window interaction with a literal class — the idiom for
    // state changes that leave the data section without a message (e.g.
    // VFS's filesystem mutations, "a state-modifying SEEP into the
    // FS/driver domain").
    if (t[i].is("on_outbound") && t[i + 1].is("(")) {
      const std::size_t open = i + 1;
      const std::size_t close = match_forward(t, open, "(", ")");
      if (close + 1 < t.size() && t[close + 1].is("{")) continue;  // definition
      for (std::size_t j = open + 1; j < close; ++j) {
        if (t[j].is_ident("SeepClass") && j + 2 < close && t[j + 1].is("::")) {
          SendSite site;
          site.server = server;
          site.file = f.path;
          site.line = t[i].line;
          site.kind = "explicit";
          site.msg = "<explicit>";
          site.dst = "<domain>";
          site.cls = seep_class_from_token(t[j + 2].text);
          site.classified = true;
          out.push_back(std::move(site));
          break;
        }
      }
      i = close;
      continue;
    }

    std::string kind;
    if (t[i].is("seep_call")) kind = "call";
    if (t[i].is("seep_send")) kind = "send";
    if (t[i].is("seep_notify")) kind = "notify";
    if (t[i].is("seep_deferred_reply")) kind = "deferred_reply";
    if (kind.empty() || !t[i + 1].is("(")) continue;
    // Skip the wrapper *definitions* (preceded by `void` / `Message` etc.
    // followed by a parameter list containing `Endpoint dst`): only flag
    // expression uses — heuristically, a definition is followed by `{`
    // right after the matching ')'.
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    if (close + 1 < t.size() && t[close + 1].is("{")) continue;

    const auto args = split_args(t, open, close);
    if (args.empty()) continue;

    SendSite site;
    site.server = server;
    site.file = f.path;
    site.line = t[i].line;
    site.kind = kind;

    // Destination: first argument.
    site.dst = "<dynamic>";
    for (std::size_t j = args[0].first; j < args[0].second; ++j) {
      for (const auto& [ep, srv] : kEndpointServers) {
        if (t[j].is_ident(ep)) site.dst = srv;
      }
    }
    if (site.dst == "<dynamic>") {
      for (std::size_t j = args[0].first; j < args[0].second; ++j) {
        if (t[j].is_ident("Endpoint")) site.dst = "client";
      }
    }

    // Message type: second argument.
    site.msg = "<dynamic>";
    if (args.size() >= 2) {
      const auto [ma, mb] = args[1];
      bool factory = false;
      for (std::size_t j = ma; j < mb; ++j) {
        if (is_msg_factory(t[j])) {
          const std::string msg = msg_from_factory(j);
          if (!msg.empty()) site.msg = msg;
          factory = true;
          break;
        }
      }
      if (!factory) {
        const std::string direct = first_msg_constant(t, ma, mb);
        if (!direct.empty()) {
          site.msg = direct;  // seep_notify(dst, TYPE)
        } else if (mb - ma >= 1 && t[ma].kind == Tok::kIdent) {
          // A plain variable (possibly dereferenced: `*reply`).
          std::size_t va = ma;
          while (va < mb && t[va].is("*")) ++va;
          auto it = var_msg.find(t[va].text);
          if (it != var_msg.end()) site.msg = it->second;
        }
      }
    }
    out.push_back(std::move(site));
    i = close;
  }
  return out;
}

std::vector<SpecRow> parse_spec_rows(const LexedFile& f) {
  std::vector<SpecRow> out;
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // A row invocation `X(NAME, value, owner, CLS, KIND, nargs, text, doc)`
    // of the spec X-macro. The expansion sites `OSIRIS_MSG_SPEC(X)` lex as
    // `X` followed by `)`, so they cannot match here.
    if (!t[i].is_ident("X") || !t[i + 1].is("(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    const auto args = split_args(t, open, close);
    if (args.size() == 8 && t[args[0].first].kind == Tok::kIdent &&
        looks_like_msg_constant(t[args[0].first].text)) {
      SpecRow r;
      r.name = t[args[0].first].text;
      r.file = f.path;
      r.line = t[args[0].first].line;
      if (t[args[1].first].kind == Tok::kNumber) {
        r.value =
            static_cast<std::uint32_t>(std::strtoul(t[args[1].first].text.c_str(), nullptr, 0));
      }
      r.owner = t[args[2].first].text;
      const std::string& cls = t[args[3].first].text;
      r.cls = cls == "NSM" ? SeepClass::kNonStateModifying : SeepClass::kStateModifying;
      r.kind = t[args[4].first].text;
      if (t[args[5].first].kind == Tok::kNumber) {
        r.args = static_cast<int>(std::strtol(t[args[5].first].text.c_str(), nullptr, 0));
      }
      r.text = t[args[6].first].is_ident("TXT");
      out.push_back(std::move(r));
    }
    i = close;
  }
  return out;
}

std::vector<HandlerReg> extract_handler_regs(const LexedFile& f, const std::string& server) {
  std::vector<HandlerReg> out;
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    std::string kind;
    if (t[i].is_ident("on")) kind = "request";
    if (t[i].is_ident("on_notify")) kind = "notify";
    if (t[i].is_ident("on_reply")) kind = "reply";
    if (kind.empty() || !t[i + 1].is("(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    const auto args = split_args(t, open, close);
    // Registrations carry (MSG_CONSTANT, &Server::handler); anything else
    // (declarations, unrelated calls) lacks the constant or the second arg.
    if (args.size() < 2) continue;
    const std::string msg = first_msg_constant(t, args[0].first, args[0].second);
    if (msg.empty()) continue;
    // Handler function name: the last identifier of `&Server::handler`.
    std::string fn;
    for (std::size_t j = args[1].first; j < args[1].second; ++j) {
      if (t[j].kind == Tok::kIdent) fn = t[j].text;
    }
    out.push_back(HandlerReg{server, msg, kind, fn, f.path, t[i].line});
    i = close;
  }
  return out;
}

void crosscheck_spec_handlers(Report& report) {
  if (report.spec.empty()) return;  // tree without a spec table: nothing to check

  static const std::set<std::string> kServers = {"pm", "vm", "vfs", "ds", "rs", "sys"};
  std::map<std::string, const SpecRow*> rows;
  for (const SpecRow& r : report.spec) rows[r.name] = &r;

  // Servers with at least one parsed registration: the spec-side
  // completeness check only fires for them, so a partially scanned tree
  // (like the fixture) does not produce findings for absent servers.
  std::set<std::string> servers_seen;
  for (const HandlerReg& h : report.handlers) servers_seen.insert(h.server);

  std::set<std::string> handled;  // "msg:kind"
  for (const HandlerReg& h : report.handlers) {
    auto it = rows.find(h.msg);
    if (it == rows.end()) {
      report.findings.push_back(
          Finding{kDetHandlerWithoutSpec, h.file, h.line,
                  h.server + " registers a handler for " + h.msg +
                      " which has no row in OSIRIS_MSG_SPEC"});
      continue;
    }
    const SpecRow& r = *it->second;
    handled.insert(h.msg + ":" + h.kind);
    // Kind agreement mirrors the OSIRIS_ASSERTs in ServerCommon::on*():
    // notifications register via on_notify(), requests via on() and their
    // replies via on_reply().
    const bool kind_ok = (h.kind == "notify" && r.kind == "NOTE") ||
                         ((h.kind == "request" || h.kind == "reply") && r.kind == "REQ");
    if (!kind_ok) {
      report.findings.push_back(
          Finding{kDetHandlerKindDrift, h.file, h.line,
                  h.msg + " is declared " + r.kind + " in the spec but registered via " +
                      (h.kind == "notify"  ? "on_notify()"
                       : h.kind == "reply" ? "on_reply()"
                                           : "on()")});
    }
    // Reply continuations live in the *requesting* server (e.g. PM's
    // on_reply(VFS_PM_EXEC)): owner agreement applies only to request and
    // notify registrations.
    if (h.kind != "reply" && kServers.count(r.owner) != 0 && r.owner != h.server) {
      report.findings.push_back(
          Finding{kDetSpecOwnerDrift, h.file, h.line,
                  h.msg + " is owned by " + r.owner + " in the spec but " + h.server +
                      " registers its handler"});
    }
  }

  // Spec side: every row owned by a scanned server must have a handler of
  // the matching kind. "client"/"any" rows are delivered outside handler
  // dispatch (user processes, subscribers, the ServerCommon heartbeat).
  for (const SpecRow& r : report.spec) {
    if (kServers.count(r.owner) == 0) continue;
    if (servers_seen.count(r.owner) == 0) continue;
    const std::string want = r.kind == "NOTE" ? "notify" : "request";
    if (handled.count(r.name + ":" + want) != 0) continue;
    report.findings.push_back(
        Finding{kDetSpecMissingHandler, r.file, r.line,
                r.name + " is owned by " + r.owner + " in the spec but no " + want +
                    " handler is registered for it: dispatch would reject or drop it"});
  }
}

void resolve_and_predict(Report& report) {
  std::map<std::string, const SpecRow*> rows;
  for (const SpecRow& r : report.spec) rows[r.name] = &r;

  // Resolve each site's SEEP class; deferred replies are state-modifying by
  // construction (ServerCommon::seep_deferred_reply hardwires the class).
  std::map<std::string, std::set<SeepClass>> classes_by_server;
  std::set<std::string> edge_keys;
  for (SendSite& s : report.sites) {
    if (s.kind == "explicit") {
      // Class was written literally at the site (window().on_outbound(...)).
    } else if (s.kind == "deferred_reply") {
      s.cls = SeepClass::kStateModifying;
      s.classified = true;
    } else if (s.msg != "<dynamic>") {
      auto it = rows.find(s.msg);
      if (it != rows.end()) {
        s.cls = it->second->cls;
        s.classified = true;
      } else {
        s.cls = SeepClass::kStateModifying;  // runtime conservative default
        report.findings.push_back(
            Finding{kDetUnclassifiedSend, s.file, s.line,
                    "send site uses " + s.msg +
                        " which has no OSIRIS_MSG_SPEC row: the window decision "
                        "falls to the conservative default"});
      }
    } else {
      // Statically unresolvable non-deferred send: the analyzer cannot
      // verify its classification.
      report.findings.push_back(
          Finding{kDetUnclassifiedSend, s.file, s.line,
                  "cannot statically resolve the message type of this seep_" + s.kind +
                      " site; hoist the type into a `Message x = make_msg(TYPE, ...)` binding"});
    }
    classes_by_server[s.server].insert(s.cls);

    const std::string key = s.server + "->" + s.dst + ":" + s.msg;
    if (edge_keys.insert(key).second) {
      report.edges.push_back(ChannelEdge{s.server, s.dst, s.msg, s.cls});
    }
  }

  // Per-policy window predictions.
  for (const auto& [server, classes] : classes_by_server) {
    WindowPrediction p;
    p.server = server;
    p.classes_used.assign(classes.begin(), classes.end());
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      const auto pol = static_cast<Policy>(pi);
      for (SeepClass c : classes) {
        if (policy_closes_window(pol, c)) p.may_close_by_seep[pi] = true;
      }
    }
    report.predictions.push_back(std::move(p));
  }
}

}  // namespace osiris::analyze
