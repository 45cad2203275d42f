// osiris-analyze Pass 4: call-graph construction, per-handler effect
// summaries, and the handler-granularity recovery-window predictions —
// validated structurally over the fixture tree and against runtime per-msg
// WindowStats from the standard workload on the real tree.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "callgraph.hpp"
#include "effects.hpp"
#include "lexer.hpp"
#include "os/instance.hpp"
#include "seep/policy.hpp"
#include "workload/suite.hpp"

namespace analyze = osiris::analyze;
using osiris::seep::Policy;

namespace {

const analyze::Report& clean_report() {
  static const analyze::Report report = analyze::analyze_tree(OSIRIS_SOURCE_ROOT);
  return report;
}

const analyze::Report& fixture_report() {
  static const analyze::Report report =
      analyze::analyze_tree(std::string(OSIRIS_SOURCE_ROOT) + "/tools/analyze/fixture");
  return report;
}

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

bool has_effect(const analyze::HandlerEffects& h, analyze::EffectKind kind) {
  for (const auto& e : h.effects) {
    if (e.kind == kind) return true;
  }
  return false;
}

}  // namespace

// --- call-graph builder over the fixture sources -----------------------------

TEST(Effects, CallGraphFindsFixtureDefinitions) {
  const std::string path =
      std::string(OSIRIS_SOURCE_ROOT) + "/tools/analyze/fixture/src/servers/ds.cpp";
  std::vector<analyze::LexedFile> files;
  files.push_back(analyze::lex_file(path, "src/servers/ds.cpp"));
  const analyze::CallGraph g = analyze::build_call_graph(files);

  for (const char* fn : {"do_block", "wait_for_disk", "do_widen", "bump_counter", "do_trace",
                         "spin", "emit_trace", "unreached_helper"}) {
    const auto* targets = g.resolve(fn);
    ASSERT_NE(targets, nullptr) << fn;
    EXPECT_EQ(targets->size(), 1u) << fn;
    const analyze::FuncDef& d = g.funcs[targets->front()];
    EXPECT_EQ(d.name, fn);
    EXPECT_GT(d.body_end, d.body_begin) << fn;
  }
  // Control keywords and call sites must not register as definitions.
  EXPECT_EQ(g.resolve("if"), nullptr);
  EXPECT_EQ(g.resolve("mystery_helper"), nullptr);  // called, never defined
}

// --- effect summaries over the fixture handlers ------------------------------

TEST(Effects, DirectAndTransitiveBlockingSummarized) {
  const analyze::HandlerEffects* h = fixture_report().effects_for("ds", "FX_BLOCK", "request");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->has_body);
  EXPECT_EQ(h->fn, "do_block");
  EXPECT_TRUE(h->opens_window);
  // do_block -> wait_for_disk -> read_now: the blocking effect is transitive
  // and anchored at the deep site, not the handler.
  ASSERT_TRUE(has_effect(*h, analyze::EffectKind::kBlocking));
  for (const auto& e : h->effects) {
    if (e.kind == analyze::EffectKind::kBlocking) {
      EXPECT_EQ(e.detail, "blockdev-wait");
      EXPECT_EQ(e.file, "src/servers/ds.cpp");
    }
  }
  EXPECT_TRUE(h->may_close_by_yield);
}

TEST(Effects, RecursionCutAndMutationOrdering) {
  const analyze::HandlerEffects* h = fixture_report().effects_for("ds", "FX_WIDEN", "request");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->has_body);
  // bump_counter calls itself: the summary records the cycle cut instead of
  // diverging.
  EXPECT_TRUE(h->recursive);
  EXPECT_TRUE(has_effect(*h, analyze::EffectKind::kRecursiveCall));

  // Flow order: the FX_POKE send must precede the post-close mutation.
  int send_at = -1;
  int late_mutation_at = -1;
  for (std::size_t i = 0; i < h->effects.size(); ++i) {
    const auto& e = h->effects[i];
    if (e.kind == analyze::EffectKind::kSend && e.msg == "FX_POKE") send_at = static_cast<int>(i);
    if (e.kind == analyze::EffectKind::kMutation && send_at >= 0) {
      late_mutation_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(send_at, 0) << "FX_POKE send missing from the summary";
  ASSERT_GT(late_mutation_at, send_at) << "no mutation after the window-closing send";
  EXPECT_GE(h->mutations_after_close, 1);
  // SM send: closes under every policy.
  for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
    EXPECT_TRUE(h->may_close_by_seep[pi]) << pi;
  }
}

TEST(Effects, UnresolvableCalleeAndReachabilityRooting) {
  const analyze::Report& r = fixture_report();
  const analyze::HandlerEffects* h = r.effects_for("ds", "FX_TRACE", "request");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->has_body);
  EXPECT_EQ(h->unresolved_callees, 1);  // mystery_helper, once
  EXPECT_TRUE(h->has_unbounded_loop);   // spin's for(;;)

  // unreached_helper's other_mystery escape must not be reported anywhere:
  // detection is rooted at handler registrations.
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.message.find("other_mystery"), std::string::npos) << f.message;
  }
}

TEST(Effects, RegistrationWithoutBodyKeepsRowWithEmptySummary) {
  // The fixture pm registers do_ping but never defines it: the row must
  // survive (coverage accounting) with has_body == false and no effects.
  const analyze::HandlerEffects* h = fixture_report().effects_for("pm", "FX_PING", "request");
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->has_body);
  EXPECT_TRUE(h->effects.empty());
}

// --- clean-tree coverage and tightness ---------------------------------------

TEST(Effects, CleanTreeSummarizesEveryOwnedSpecRow) {
  const analyze::Report& r = clean_report();
  const std::set<std::string> servers = {"pm", "vm", "vfs", "ds", "rs", "sys"};

  // Every handler row has a summarized body and no unresolved callees: the
  // acceptance bar for "no unsummarized-callee escapes on the clean tree".
  ASSERT_FALSE(r.handler_effects.empty());
  for (const auto& h : r.handler_effects) {
    EXPECT_TRUE(h.has_body) << h.server << "/" << h.msg;
    EXPECT_EQ(h.unresolved_callees, 0) << h.server << "/" << h.msg;
  }

  // Every server-owned spec row is covered by at least one summarized
  // handler row (Pass 3 already enforces registration; this checks Pass 4
  // kept a summary for each).
  for (const auto& row : r.spec) {
    if (servers.count(row.owner) == 0) continue;
    bool covered = false;
    for (const auto& h : r.handler_effects) {
      if (h.msg == row.name && h.has_body) covered = true;
    }
    EXPECT_TRUE(covered) << row.name << " (owner " << row.owner << ")";
  }
}

TEST(Effects, HandlerPredictionsWithinServerEnvelopeAndTighter) {
  const analyze::Report& r = clean_report();

  // Soundness against Pass 2: the per-server envelope is the union of its
  // handlers, so no handler may predict a closure its server cannot.
  for (const auto& h : r.handler_effects) {
    const analyze::WindowPrediction* server_pred = r.prediction_for(h.server);
    if (server_pred == nullptr) continue;
    for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
      if (h.may_close_by_seep[pi]) {
        EXPECT_TRUE(server_pred->may_close_by_seep[pi]) << h.server << "/" << h.msg << " " << pi;
      }
    }
  }

  // Strictly tighter than Pass 2: PM_GETPID sends nothing, so its window
  // provably survives under every policy even though the pm-wide envelope
  // says "may close" for all of them.
  const analyze::HandlerEffects* getpid = r.effects_for("pm", "PM_GETPID", "request");
  ASSERT_NE(getpid, nullptr);
  ASSERT_TRUE(getpid->has_body);
  const analyze::WindowPrediction* pm_pred = r.prediction_for("pm");
  ASSERT_NE(pm_pred, nullptr);
  for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
    EXPECT_FALSE(getpid->may_close_by_seep[pi]) << pi;
    EXPECT_TRUE(pm_pred->may_close_by_seep[pi]) << pi;
  }
  EXPECT_FALSE(getpid->may_close_by_yield);

  // PM_FORK, by contrast, demonstrably closes under every policy.
  const analyze::HandlerEffects* fork = r.effects_for("pm", "PM_FORK", "request");
  ASSERT_NE(fork, nullptr);
  for (int pi = 0; pi < analyze::kNumPolicies; ++pi) {
    EXPECT_TRUE(fork->may_close_by_seep[pi]) << pi;
  }
}

// --- runtime cross-validation ------------------------------------------------

TEST(Effects, HandlerPredictionsConsistentWithRuntimePerMsgWindowStats) {
  const analyze::Report& r = clean_report();

  std::map<std::uint32_t, std::string> msg_by_value;
  for (const auto& row : r.spec) msg_by_value[row.value] = row.name;
  ASSERT_FALSE(msg_by_value.empty());

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

    bool fork_closed = false;
    for (auto* comp : inst.components()) {
      const std::string name(comp->name());
      for (const auto& [msg_type, stats] : comp->window().per_msg_stats()) {
        auto mit = msg_by_value.find(msg_type);
        ASSERT_NE(mit, msg_by_value.end()) << name << " opened a window for unknown msg type";
        const std::string& msg = mit->second;
        const analyze::HandlerEffects* h = r.effects_for(name, msg, "request");
        ASSERT_NE(h, nullptr) << name << "/" << msg;
        EXPECT_TRUE(h->opens_window) << name << "/" << msg << ": runtime opened a window the "
                                     << "analyzer thought cannot open";

        // Soundness: runtime behaviour stays inside the handler's envelope.
        if (stats.closed_by_seep > 0) {
          EXPECT_TRUE(h->may_close_by_seep[pi])
              << name << "/" << msg << " under " << osiris::seep::policy_name(policy)
              << ": runtime closed by SEEP, statically impossible";
        }
        if (stats.closed_by_yield > 0) {
          EXPECT_TRUE(h->may_close_by_yield)
              << name << "/" << msg << ": runtime closed by yield, statically impossible";
        }
        // And conversely, statically-impossible events never occur.
        if (!h->may_close_by_seep[pi]) {
          EXPECT_EQ(stats.closed_by_seep, 0u)
              << name << "/" << msg << " under " << osiris::seep::policy_name(policy);
        }
        if (!h->may_close_by_yield) {
          EXPECT_EQ(stats.closed_by_yield, 0u) << name << "/" << msg;
        }

        if (msg == "PM_FORK" && stats.closed_by_seep > 0) fork_closed = true;
      }
    }
    // Liveness: the suite forks, and PM_FORK's first SEEP is state-modifying
    // — the per-msg attribution must observe the close (the prediction is
    // not vacuously satisfied).
    EXPECT_TRUE(fork_closed) << "PM_FORK never closed a window under "
                             << osiris::seep::policy_name(policy);
  }
}

// --- artifact + loader hardening ---------------------------------------------

TEST(Effects, HandlerEffectsJsonCarriesV3Schema) {
  const std::string doc = analyze::handler_effects_to_json(clean_report(), OSIRIS_SOURCE_ROOT);
  for (const char* key :
       {"\"schema_version\": 3", "\"policies\"", "\"handlers\"", "\"blocking_points\"",
        "\"opens_window\"", "\"mutations_after_close\"", "\"may_close_by_yield\"",
        "\"suppressed\"", "\"predictions\"", "\"pessimistic\"", "\"enhanced\"",
        "\"may_close_by_seep\"", "\"effects\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(doc.find("\"may_park\""), std::string::npos);
  // The blocking-point inventory is non-empty on the real tree: the worker
  // fiber's disk wait at minimum.
  EXPECT_NE(doc.find("fiber-suspend"), std::string::npos);
}

// --- the blocking-point inventory on the clean tree ---------------------------

TEST(Effects, BlockingPointsOnCleanTreeAreAllSuppressed) {
  const analyze::Report& r = clean_report();
  // Every residual blocking point on the clean tree is a reviewed
  // analyze-suppress site: the boot-path synchronous read and the worker
  // fiber's suspend on a disk read, which force-closes the window first
  // (SIV-E). The points stay in the inventory — this pins that none of them
  // is an open finding.
  int total = 0;
  for (const auto& h : r.handler_effects) {
    for (const auto& e : h.effects) {
      if (e.kind != analyze::EffectKind::kBlocking) continue;
      ++total;
      EXPECT_TRUE(e.suppressed) << e.file << ":" << e.line << " (" << e.detail
                                << ") reached from " << h.server << "/" << h.msg;
    }
  }
  EXPECT_GT(total, 0);
  for (const auto& f : r.findings) {
    EXPECT_NE(f.detector, analyze::kDetBlockingInHandler) << f.file << ":" << f.line;
  }
}

TEST(Effects, LexFileRejectsEmptyInput) {
  const std::string path = "osiris_empty_lex_probe.tmp";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(analyze::lex_file(path), std::runtime_error);
  std::remove(path.c_str());
}
