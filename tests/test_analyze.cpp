// osiris-analyze integration: the static analyzer must (a) report zero
// findings on the real tree, (b) detect every seeded violation in the
// fixture tree, and (c) produce SEEP predictions that agree with the
// compiled spec table and with runtime WindowStats from the standard
// workload. The spec table itself must hold only messages something uses
// beyond dispatching them.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "analyzer.hpp"
#include "lexer.hpp"
#include "os/instance.hpp"
#include "seep/policy.hpp"
#include "servers/protocol.hpp"
#include "workload/suite.hpp"

namespace analyze = osiris::analyze;
using osiris::seep::Policy;

namespace {

const analyze::Report& clean_report() {
  static const analyze::Report report = analyze::analyze_tree(OSIRIS_SOURCE_ROOT);
  return report;
}

/// Map the analyzer's enum mirrors onto the runtime enums.
osiris::seep::SeepClass to_runtime(analyze::SeepClass c) {
  switch (c) {
    case analyze::SeepClass::kNonStateModifying:
      return osiris::seep::SeepClass::kNonStateModifying;
    case analyze::SeepClass::kStateModifying:
      return osiris::seep::SeepClass::kStateModifying;
  }
  return osiris::seep::SeepClass::kStateModifying;
}

osiris::seep::Policy to_runtime(analyze::Policy p) {
  switch (p) {
    case analyze::Policy::kPessimistic:
      return osiris::seep::Policy::kPessimistic;
    case analyze::Policy::kEnhanced:
      return osiris::seep::Policy::kEnhanced;
  }
  return osiris::seep::Policy::kPessimistic;
}

/// Analyzer policy index for a runtime policy (the prediction array order).
int policy_index(Policy p) {
  switch (p) {
    case Policy::kPessimistic:
      return 0;
    case Policy::kEnhanced:
      return 1;
    default:
      return -1;
  }
}

}  // namespace

TEST(Analyze, CleanTreeHasZeroFindings) {
  const analyze::Report& r = clean_report();
  for (const auto& f : r.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.detector << "] " << f.message;
  }
  EXPECT_GE(r.files_scanned, 30);
  EXPECT_EQ(r.state_structs_checked, 6);  // pm, vm, vfs, ds, rs, sys
  EXPECT_GT(r.state_fields_checked, 20);
  EXPECT_FALSE(r.spec.empty());
  EXPECT_FALSE(r.sites.empty());
}

TEST(Analyze, LoaderRejectsMissingAndNonDirectoryRoots) {
  // Loader hardening: a typo'd root and a file-where-a-tree-was-expected must
  // both fail loudly (the WILL_FAIL ctest gates pin the CLI exit code; this
  // pins the library-level exception so the message stays distinguishable).
  EXPECT_THROW(analyze::analyze_tree(std::string(OSIRIS_SOURCE_ROOT) + "/no-such-tree"),
               std::runtime_error);
  EXPECT_THROW(analyze::analyze_tree(std::string(OSIRIS_SOURCE_ROOT) + "/CMakeLists.txt"),
               std::runtime_error);
}

TEST(Analyze, LoaderRejectsStrayEmptySourceInTree) {
  // fixture_stray holds a single zero-byte src/servers/stray.cpp — the
  // "touch / failed checkout" artifact that would otherwise analyze as a
  // clean (empty) tree.
  EXPECT_THROW(
      analyze::analyze_tree(std::string(OSIRIS_SOURCE_ROOT) + "/tools/analyze/fixture_stray"),
      std::runtime_error);
}

TEST(Analyze, FixtureSeedsEveryDetector) {
  const analyze::Report r =
      analyze::analyze_tree(std::string(OSIRIS_SOURCE_ROOT) + "/tools/analyze/fixture");
  const std::map<std::string, int> by = r.findings_by_detector();

  const std::map<std::string, int> expected = {
      {analyze::kDetStateRawField, 1},  {analyze::kDetStateMemfn, 1},
      {analyze::kDetStateConstCast, 1}, {analyze::kDetMutateEscape, 2},
      {analyze::kDetRawKernelSend, 1},  {analyze::kDetUnclassifiedSend, 1},  // PM_MYSTERY
      {analyze::kDetSpecMissingHandler, 1},  // FX_DRIFT: row without a handler
      {analyze::kDetHandlerWithoutSpec, 1},  // PM_ROGUE: handler without a row
      {analyze::kDetHandlerKindDrift, 1},    // FX_NOTE: NOTE registered via on()
      {analyze::kDetSpecOwnerDrift, 1},      // FX_NOTE: vm-owned, pm-registered
      // Pass 4 (ds.cpp seeds). One finding each — and exactly one: the
      // unreached_helper escape must NOT be reported (reachability-rooted),
      // and repeated traversals must not duplicate site findings.
      {analyze::kDetBlockingInHandler, 1},   // wait_for_disk's read_now
      {analyze::kDetMutateAfterSend, 1},     // counter store after FX_POKE
      {analyze::kDetUnsummarizedCallee, 1},  // mystery_helper
      {analyze::kDetNondetPointerKey, 1},    // std::map<const Obj*, int>
      {analyze::kDetNondetAddrHash, 1},      // std::hash<const Obj*>
      {analyze::kDetNondetWallClock, 1},     // steady_clock
      {analyze::kDetNondetRand, 1},          // rand()
  };
  for (const auto& [detector, count] : expected) {
    const auto it = by.find(detector);
    ASSERT_NE(it, by.end()) << "detector never fired: " << detector;
    EXPECT_EQ(it->second, count) << "unexpected count for " << detector;
  }
  // The suppressed kernel_.notify occurrence must not add a finding (only
  // the seeded kernel_.send fires raw-kernel-send), and no detector outside
  // the expectation fired at all.
  std::size_t total = 0;
  for (const auto& [detector, count] : expected) total += static_cast<std::size_t>(count);
  EXPECT_EQ(r.findings.size(), total);
}

TEST(Analyze, ParsedClassificationAgreesWithRuntimeTable) {
  const analyze::Report& r = clean_report();
  // The compiled-to-parsed direction, keyed by name: every compiled row was
  // parsed once, with its value, class and replyable bit.
  std::map<std::string, const analyze::SpecRow*> parsed;
  for (const auto& row : r.spec) {
    EXPECT_TRUE(parsed.emplace(row.name, &row).second) << "row parsed twice: " << row.name;
  }
  EXPECT_EQ(parsed.size(), osiris::servers::kMsgSpecCount);
  for (const osiris::servers::MsgSpec& s : osiris::servers::kMsgSpecTable) {
    const auto it = parsed.find(s.name);
    ASSERT_NE(it, parsed.end()) << s.name;
    EXPECT_EQ(it->second->value, s.type) << s.name;
    EXPECT_EQ(to_runtime(it->second->cls), s.seep) << s.name;
    EXPECT_EQ(it->second->kind == "REQ", s.replyable()) << s.name;
  }
}

TEST(Analyze, SpecTableParsedExactly) {
  const analyze::Report& r = clean_report();
  // The analyzer's textual parse of OSIRIS_MSG_SPEC must reproduce the
  // compiled registry row for row — name, owner, class, kind and schema.
  ASSERT_EQ(r.spec.size(), osiris::servers::kMsgSpecCount);
  for (const auto& row : r.spec) {
    const auto* s = osiris::servers::find_msg_spec(row.value);
    ASSERT_NE(s, nullptr) << row.name;
    EXPECT_EQ(row.name, s->name);
    EXPECT_EQ(row.owner, s->server) << row.name;
    EXPECT_EQ(to_runtime(row.cls), s->seep) << row.name;
    EXPECT_EQ(row.kind == "NOTE", s->notify()) << row.name;
    EXPECT_EQ(row.kind == "REQ", s->replyable()) << row.name;
    EXPECT_EQ(row.args, static_cast<int>(s->args)) << row.name;
    EXPECT_EQ(row.text, s->text) << row.name;
  }
  // And the handler extraction saw every server's register_handlers().
  std::map<std::string, int> regs_by_server;
  for (const auto& h : r.handlers) ++regs_by_server[h.server];
  for (const char* server : {"pm", "vm", "vfs", "ds", "rs", "sys"}) {
    EXPECT_GT(regs_by_server[server], 0) << server;
  }
}

TEST(Analyze, EverySpecRowIsUsedOutsideDispatch) {
  // A row earns its place when some code outside the table sends it, or
  // otherwise names it, beyond the on()/on_notify()/on_reply() registration
  // and `case` label that dispatch it. Comments and preprocessor lines are
  // not tokens, so a mention there does not count.
  std::set<std::string> unused;
  for (const osiris::servers::MsgSpec& s : osiris::servers::kMsgSpecTable) unused.insert(s.name);
  const std::filesystem::path src = std::filesystem::path(OSIRIS_SOURCE_ROOT) / "src";
  for (const auto& entry : std::filesystem::recursive_directory_iterator(src)) {
    const std::filesystem::path& p = entry.path();
    if (!entry.is_regular_file() || p.filename() == "msg_spec.hpp") continue;
    if (p.extension() != ".cpp" && p.extension() != ".hpp") continue;
    const std::vector<analyze::Token> t = analyze::lex_file(p.string()).tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].is_ident("case")) {
        while (i < t.size() && !t[i].is(":")) ++i;  // the label: `case X:`
        continue;
      }
      if ((t[i].is_ident("on") || t[i].is_ident("on_notify") || t[i].is_ident("on_reply")) &&
          i + 1 < t.size() && t[i + 1].is("(")) {
        i += 2;  // the registered type: the first argument
        while (i < t.size() && !t[i].is(",") && !t[i].is(")")) ++i;
        continue;
      }
      if (t[i].kind == analyze::Tok::kIdent) unused.erase(t[i].text);
    }
  }
  EXPECT_TRUE(unused.empty()) << "spec rows that nothing outside dispatch uses: "
                              << testing::PrintToString(unused);
}

TEST(Analyze, PolicyMirrorsMatchRuntimePolicyFunctions) {
  for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
    const auto ap = static_cast<analyze::Policy>(pi);
    for (int ci = 0; ci < 2; ++ci) {
      const auto ac = static_cast<analyze::SeepClass>(ci);
      EXPECT_EQ(analyze::policy_closes_window(ap, ac),
                osiris::seep::policy_closes_window(to_runtime(ap), to_runtime(ac)))
          << analyze::policy_name(ap) << " / " << analyze::seep_class_name(ac);
    }
  }
}

TEST(Analyze, ChannelGraphContainsKnownEdges) {
  const analyze::Report& r = clean_report();
  const auto has_edge = [&r](const std::string& from, const std::string& to) {
    for (const auto& e : r.edges) {
      if (e.from == from && e.to == to) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge("pm", "vm"));
  EXPECT_TRUE(has_edge("pm", "vfs"));
  EXPECT_TRUE(has_edge("pm", "sys"));
  EXPECT_TRUE(has_edge("pm", "ds"));
  EXPECT_TRUE(has_edge("rs", "ds"));
  EXPECT_TRUE(has_edge("vm", "sys"));
}

TEST(Analyze, StaticPredictionsMatchHandAnalysis) {
  const analyze::Report& r = clean_report();
  // DS only answers queries and publishes notifications: all of its outbound
  // traffic is non-state-modifying, so its window survives every policy
  // except the pessimistic one.
  const analyze::WindowPrediction* ds = r.prediction_for("ds");
  ASSERT_NE(ds, nullptr);
  EXPECT_TRUE(ds->may_close_by_seep[policy_index(Policy::kPessimistic)]);
  EXPECT_FALSE(ds->may_close_by_seep[policy_index(Policy::kEnhanced)]);

  // The remaining servers all send state-modifying traffic: may close under
  // every windowed policy.
  for (const char* server : {"pm", "vm", "vfs", "rs"}) {
    const analyze::WindowPrediction* p = r.prediction_for(server);
    ASSERT_NE(p, nullptr) << server;
    for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
      EXPECT_TRUE(p->may_close_by_seep[pi]) << server << " policy " << pi;
    }
  }
}

TEST(Analyze, StaticPredictionsConsistentWithRuntimeWindowStats) {
  const analyze::Report& r = clean_report();

  for (const Policy policy : {Policy::kPessimistic, Policy::kEnhanced}) {
    const int pi = policy_index(policy);
    ASSERT_GE(pi, 0);

    osiris::os::OsConfig cfg;
    cfg.policy = policy;
    osiris::os::OsInstance inst(cfg);
    osiris::workload::register_suite_programs(inst.programs());
    inst.boot();
    const auto result = osiris::workload::run_suite(inst);
    ASSERT_EQ(result.failed, 0) << osiris::seep::policy_name(policy);

    for (auto* comp : inst.components()) {
      const std::string name(comp->name());
      const auto& stats = comp->window().stats();
      const analyze::WindowPrediction* pred = r.prediction_for(name);
      if (pred == nullptr) {
        // A server with no outbound sites can never close its window by SEEP.
        EXPECT_EQ(stats.closed_by_seep, 0u) << name;
        continue;
      }
      // Soundness: runtime behaviour must stay inside the static envelope.
      if (!pred->may_close_by_seep[pi]) {
        EXPECT_EQ(stats.closed_by_seep, 0u)
            << name << " under " << osiris::seep::policy_name(policy)
            << ": runtime closed a window the analyzer proved cannot close";
      }
      if (stats.closed_by_seep > 0) {
        EXPECT_TRUE(pred->may_close_by_seep[pi])
            << name << " under " << osiris::seep::policy_name(policy);
      }
    }

    // Liveness spot-checks: the standard workload forks/execs, so PM and VM
    // demonstrably exercise their predicted closures under every windowed
    // policy (the prediction is not vacuously true).
    for (auto* comp : inst.components()) {
      const std::string name(comp->name());
      if (name == "pm" || name == "vm") {
        EXPECT_GT(comp->window().stats().closed_by_seep, 0u)
            << name << " under " << osiris::seep::policy_name(policy);
      }
    }
  }
}
