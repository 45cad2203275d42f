// osiris-analyze Pass 4: call-graph construction, per-handler effect
// summaries, and the handler-granularity recovery-window predictions —
// validated structurally over the fixture tree and against the per-request
// window closes of a traced run of the standard workload on the real tree.
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
#include "seep/window.hpp"
#if OSIRIS_TRACE_ENABLED
#include "trace/tracer.hpp"
#endif
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

#if OSIRIS_TRACE_ENABLED
namespace {

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

TEST(Effects, HandlerPredictionsConsistentWithRuntimePerMsgWindowStats) {
  namespace trace = osiris::trace;
  const analyze::Report& r = clean_report();

  std::map<std::uint32_t, std::string> msg_by_value;
  for (const auto& row : r.spec) msg_by_value[row.value] = row.name;
  ASSERT_FALSE(msg_by_value.empty());

  for (const Policy policy : {Policy::kPessimistic, Policy::kEnhanced}) {
    const int pi = policy_index(policy);
    ASSERT_GE(pi, 0);

    osiris::os::OsConfig cfg;
    cfg.policy = policy;
    cfg.trace_enabled = true;
    cfg.trace_ring_capacity = 1 << 16;  // the suite's busiest ring holds about 8.4k events
    osiris::os::OsInstance inst(cfg);
    osiris::workload::register_suite_programs(inst.programs());
    inst.boot();
    const auto result = osiris::workload::run_suite(inst);
    ASSERT_EQ(result.failed, 0) << osiris::seep::policy_name(policy);
    ASSERT_EQ(inst.tracer()->total_dropped(), 0u) << "the trace lost events";

    // A window belongs to the request that opened it: the last message
    // delivered (or nested-called) to its component. Count, per component
    // and request type, the windows opened and closed by SEEP or yield.
    struct Closes {
      std::uint64_t opened = 0, by_seep = 0, by_yield = 0;
    };
    std::map<std::int32_t, std::uint32_t> request_of;  // endpoint -> message type
    std::map<std::pair<std::int32_t, std::uint32_t>, Closes> per_msg;
    for (const trace::Event& e : inst.tracer()->merged()) {
      if (e.kind == trace::EventKind::kIpcDeliver || e.kind == trace::EventKind::kIpcCall) {
        request_of[static_cast<std::int32_t>(e.a1)] = static_cast<std::uint32_t>(e.a2);
      } else if (e.kind == trace::EventKind::kWindowOpen) {
        ++per_msg[{e.comp, request_of[e.comp]}].opened;
      } else if (e.kind == trace::EventKind::kWindowClose) {
        Closes& c = per_msg[{e.comp, request_of[e.comp]}];
        if (e.a0 == osiris::seep::kCloseCauseSeep) ++c.by_seep;
        if (e.a0 == osiris::seep::kCloseCauseYield) ++c.by_yield;
      }
    }

    // The recoverable components run under `policy` (the SYS task's window
    // does not).
    std::map<std::int32_t, std::string> name_of;
    for (auto* comp : inst.components()) name_of[comp->endpoint().value] = comp->name();
    bool fork_closed = false;
    for (const auto& [key, stats] : per_msg) {
      const auto nit = name_of.find(key.first);
      if (nit == name_of.end()) continue;
      const std::string& name = nit->second;
      auto mit = msg_by_value.find(key.second);
      ASSERT_NE(mit, msg_by_value.end()) << name << " opened a window for unknown msg type";
      const std::string& msg = mit->second;
      const analyze::HandlerEffects* h = r.effects_for(name, msg, "request");
      ASSERT_NE(h, nullptr) << name << "/" << msg;
      EXPECT_TRUE(h->opens_window) << name << "/" << msg << ": runtime opened a window the "
                                   << "analyzer thought cannot open";

      // Soundness: runtime behaviour stays inside the handler's envelope.
      if (stats.by_seep > 0) {
        EXPECT_TRUE(h->may_close_by_seep[pi])
            << name << "/" << msg << " under " << osiris::seep::policy_name(policy)
            << ": runtime closed by SEEP, statically impossible";
      }
      if (stats.by_yield > 0) {
        EXPECT_TRUE(h->may_close_by_yield)
            << name << "/" << msg << ": runtime closed by yield, statically impossible";
      }
      // And conversely, statically-impossible events never occur.
      if (!h->may_close_by_seep[pi]) {
        EXPECT_EQ(stats.by_seep, 0u)
            << name << "/" << msg << " under " << osiris::seep::policy_name(policy);
      }
      if (!h->may_close_by_yield) {
        EXPECT_EQ(stats.by_yield, 0u) << name << "/" << msg;
      }

      if (msg == "PM_FORK" && stats.by_seep > 0) fork_closed = true;
    }
    // Liveness: the suite forks, and PM_FORK's first SEEP is state-modifying
    // — the per-msg attribution must observe the close (the prediction is
    // not vacuously satisfied).
    EXPECT_TRUE(fork_closed) << "PM_FORK never closed a window under "
                             << osiris::seep::policy_name(policy);
  }
}
#endif  // OSIRIS_TRACE_ENABLED

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
