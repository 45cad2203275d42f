#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "callgraph.hpp"
#include "discipline.hpp"
#include "effects.hpp"
#include "lexer.hpp"
#include "seep_pass.hpp"

namespace fs = std::filesystem;

namespace osiris::analyze {

namespace {

/// Server implementation files: file stem -> server name used in the
/// classification report and at runtime (Recoverable::name()).
const char* server_for_stem(const std::string& stem) {
  if (stem == "pm") return "pm";
  if (stem == "vm") return "vm";
  if (stem == "vfs") return "vfs";
  if (stem == "ds") return "ds";
  if (stem == "rs") return "rs";
  if (stem == "sys_task") return "sys";
  return nullptr;
}

bool is_source(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

struct Json {
  std::string s;
  int indent = 0;
  bool need_comma = false;

  void nl() {
    s += '\n';
    s.append(static_cast<std::size_t>(indent) * 2, ' ');
  }
  void sep() {
    if (need_comma) s += ',';
    need_comma = false;
    nl();
  }
  void open(char c) {
    s += c;
    ++indent;
    need_comma = false;
  }
  void close(char c) {
    --indent;
    nl();
    s += c;
    need_comma = true;
  }
  void key(const std::string& k) {
    sep();
    s += '"';
    append_json_escaped(s, k);
    s += "\": ";
  }
  void str(const std::string& v) {
    s += '"';
    append_json_escaped(s, v);
    s += '"';
    need_comma = true;
  }
  void num(long long v) {
    s += std::to_string(v);
    need_comma = true;
  }
  void boolean(bool v) {
    s += v ? "true" : "false";
    need_comma = true;
  }
};

}  // namespace

Report analyze_tree(const std::string& root) {
  const fs::path base(root);
  // Distinguish the three loader failure modes so a bad --root (typo, file
  // where a tree was expected, partial checkout) reports what is actually
  // wrong instead of the generic "not an osiris tree".
  if (!fs::exists(base)) {
    throw std::runtime_error("root does not exist: " + root);
  }
  if (!fs::is_directory(base)) {
    throw std::runtime_error("root is not a directory: " + root);
  }
  const fs::path dirs[] = {base / "src" / "servers", base / "src" / "fs", base / "src" / "os",
                           base / "src" / "recovery"};
  if (!fs::is_directory(dirs[0])) {
    throw std::runtime_error("not an osiris tree (missing src/servers under " + root + ")");
  }

  Report report;
  std::vector<LexedFile> files;
  for (const fs::path& dir : dirs) {
    if (!fs::is_directory(dir)) continue;
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && is_source(entry.path())) paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());  // deterministic report order
    for (const fs::path& p : paths) {
      files.push_back(lex_file(p.string(), fs::relative(p, base).generic_string()));
    }
  }
  report.files_scanned = static_cast<int>(files.size());

  for (const LexedFile& f : files) {
    const std::string stem = fs::path(f.path).stem().string();
    const char* server = server_for_stem(stem);

    // Pass 1 — discipline. Raw kernel sends are only policed inside server
    // implementations: ServerCommon's seep_* wrappers and the OS glue are
    // the sanctioned users of the kernel IPC surface.
    DisciplineOptions opt;
    opt.check_raw_kernel_sends = server != nullptr;
    const DisciplineStats st = run_discipline_pass(f, opt, report.findings);
    report.state_structs_checked += st.state_structs;
    report.state_fields_checked += st.state_fields;

    // Pass 2 — SEEP analysis inputs. The declarative spec table is the only
    // source of message definitions and classes.
    if (stem == "msg_spec") {
      auto rows = parse_spec_rows(f);
      report.spec.insert(report.spec.end(), rows.begin(), rows.end());
    }
    if (server != nullptr) {
      auto sites = extract_send_sites(f, server);
      report.sites.insert(report.sites.end(), sites.begin(), sites.end());
      auto regs = extract_handler_regs(f, server);
      report.handlers.insert(report.handlers.end(), regs.begin(), regs.end());
    }

    // Pass 4 (determinism lint) — file-local, so it runs in the per-file
    // loop. src/support (where rng.hpp lives) is outside the scanned dirs,
    // making the sanctioned randomness wrapper structurally exempt.
    run_determinism_pass(f, report.findings);
  }

  resolve_and_predict(report);
  crosscheck_spec_handlers(report);

  // Pass 4 (effects) — needs Pass 2's resolved site classes and Pass 3's
  // handler registrations, so it runs after cross-file resolution.
  const CallGraph graph = build_call_graph(files);
  run_effects_pass(files, graph, report);

  // Findings appended by pass 2 (cross-file resolution) could not consult
  // the per-file suppression map at creation time: filter them here.
  report.findings.erase(
      std::remove_if(report.findings.begin(), report.findings.end(),
                     [&files](const Finding& fd) {
                       for (const LexedFile& f : files) {
                         if (f.path == fd.file) return f.suppressed(fd.detector, fd.line);
                       }
                       return false;
                     }),
      report.findings.end());

  std::sort(report.findings.begin(), report.findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.detector < b.detector;
  });
  return report;
}

std::string report_to_json(const Report& report) {
  Json j;
  j.open('{');

  j.key("files_scanned");
  j.num(report.files_scanned);
  j.key("state_structs_checked");
  j.num(report.state_structs_checked);
  j.key("state_fields_checked");
  j.num(report.state_fields_checked);
  j.key("spec_rows");
  j.num(static_cast<long long>(report.spec.size()));
  j.key("handler_regs");
  j.num(static_cast<long long>(report.handlers.size()));
  j.key("handler_effects");
  j.num(static_cast<long long>(report.handler_effects.size()));

  j.key("findings");
  j.open('[');
  for (const Finding& f : report.findings) {
    j.sep();
    j.open('{');
    j.key("detector");
    j.str(f.detector);
    j.key("file");
    j.str(f.file);
    j.key("line");
    j.num(f.line);
    j.key("message");
    j.str(f.message);
    j.close('}');
  }
  j.close(']');

  j.key("sites");
  j.open('[');
  for (const SendSite& s : report.sites) {
    j.sep();
    j.open('{');
    j.key("server");
    j.str(s.server);
    j.key("file");
    j.str(s.file);
    j.key("line");
    j.num(s.line);
    j.key("kind");
    j.str(s.kind);
    j.key("msg");
    j.str(s.msg);
    j.key("dst");
    j.str(s.dst);
    j.key("class");
    j.str(seep_class_name(s.cls));
    j.key("classified");
    j.boolean(s.classified);
    j.close('}');
  }
  j.close(']');

  j.key("channel_graph");
  j.open('[');
  for (const ChannelEdge& e : report.edges) {
    j.sep();
    j.open('{');
    j.key("from");
    j.str(e.from);
    j.key("to");
    j.str(e.to);
    j.key("msg");
    j.str(e.msg);
    j.key("class");
    j.str(seep_class_name(e.cls));
    j.close('}');
  }
  j.close(']');

  j.key("window_predictions");
  j.open('[');
  for (const WindowPrediction& p : report.predictions) {
    j.sep();
    j.open('{');
    j.key("server");
    j.str(p.server);
    j.key("classes_used");
    j.open('[');
    for (SeepClass c : p.classes_used) {
      j.sep();
      j.str(seep_class_name(c));
    }
    j.close(']');
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      const auto pol = static_cast<Policy>(pi);
      j.key(std::string(policy_name(pol)) + "_may_close_by_seep");
      j.boolean(p.may_close_by_seep[pi]);
    }
    j.close('}');
  }
  j.close(']');

  j.close('}');
  j.s += '\n';
  return j.s;
}

std::string handler_effects_to_json(const Report& report, const std::string& root) {
  Json j;
  j.open('{');
  j.key("schema_version");
  j.num(3);
  j.key("root");
  j.str(root);
  j.key("policies");
  j.open('[');
  for (int pi = 0; pi < kNumPolicies; ++pi) {
    j.sep();
    j.str(policy_name(static_cast<Policy>(pi)));
  }
  j.close(']');

  j.key("handlers");
  j.open('[');
  for (const HandlerEffects& h : report.handler_effects) {
    j.sep();
    j.open('{');
    j.key("server");
    j.str(h.server);
    j.key("msg");
    j.str(h.msg);
    j.key("kind");
    j.str(h.kind);
    j.key("fn");
    j.str(h.fn);
    j.key("file");
    j.str(h.file);
    j.key("line");
    j.num(h.line);
    j.key("has_body");
    j.boolean(h.has_body);
    j.key("opens_window");
    j.boolean(h.opens_window);
    j.key("recursive");
    j.boolean(h.recursive);
    j.key("has_unbounded_loop");
    j.boolean(h.has_unbounded_loop);
    j.key("unresolved_callees");
    j.num(h.unresolved_callees);
    j.key("mutations_total");
    j.num(h.mutations_total);
    j.key("mutations_after_close");
    j.num(h.mutations_after_close);
    j.key("may_close_by_yield");
    j.boolean(h.may_close_by_yield);
    j.key("predictions");
    j.open('{');
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      j.key(policy_name(static_cast<Policy>(pi)));
      j.open('{');
      j.key("may_close_by_seep");
      j.boolean(h.may_close_by_seep[pi]);
      j.close('}');
    }
    j.close('}');
    j.key("effects");
    j.open('[');
    for (const Effect& e : h.effects) {
      j.sep();
      j.open('{');
      j.key("kind");
      j.str(effect_kind_name(e.kind));
      j.key("detail");
      j.str(e.detail);
      if (e.kind == EffectKind::kSend) {
        j.key("msg");
        j.str(e.msg);
        j.key("dst");
        j.str(e.dst);
        j.key("class");
        j.str(seep_class_name(e.cls));
        j.key("classified");
        j.boolean(e.classified);
        j.key("sync");
        j.boolean(e.sync);
      }
      j.key("file");
      j.str(e.file);
      j.key("line");
      j.num(e.line);
      j.close('}');
    }
    j.close(']');
    j.close('}');
  }
  j.close(']');

  // The blocking-point inventory: every distinct blocking point with the
  // handler rows it is reachable from.
  struct Point {
    std::string detail;
    bool suppressed = false;
    std::vector<std::string> handlers;
  };
  std::map<std::pair<std::string, int>, Point> points;
  for (const HandlerEffects& h : report.handler_effects) {
    for (const Effect& e : h.effects) {
      if (e.kind != EffectKind::kBlocking) continue;
      Point& p = points[{e.file, e.line}];
      p.detail = e.detail;
      p.suppressed = e.suppressed;
      const std::string id = h.server + "/" + h.msg;
      if (std::find(p.handlers.begin(), p.handlers.end(), id) == p.handlers.end()) {
        p.handlers.push_back(id);
      }
    }
  }
  j.key("blocking_points");
  j.open('[');
  for (const auto& [loc, p] : points) {
    j.sep();
    j.open('{');
    j.key("file");
    j.str(loc.first);
    j.key("line");
    j.num(loc.second);
    j.key("detail");
    j.str(p.detail);
    j.key("suppressed");
    j.boolean(p.suppressed);
    j.key("handlers");
    j.open('[');
    for (const std::string& id : p.handlers) {
      j.sep();
      j.str(id);
    }
    j.close(']');
    j.close('}');
  }
  j.close(']');

  j.close('}');
  j.s += '\n';
  return j.s;
}

}  // namespace osiris::analyze
