// osiris-analyze: result model shared by both passes.
//
// The analyzer mirrors the two artifacts the paper's LLVM passes produce:
//   Pass 1 (discipline lint)  — verifies that every store to recoverable
//     state flows through the ckpt:: wrappers (the store-instrumentation
//     substitution holds);
//   Pass 2 (SEEP analysis)    — extracts outbound call sites, rebuilds the
//     static inter-component channel graph, checks that every sent type
//     has a spec row, and predicts per-policy recovery window behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace osiris::analyze {

// Detector identifiers (stable strings: used in findings, suppression
// comments, and the fixture expectations).
inline constexpr const char* kDetStateRawField = "state-raw-field";
inline constexpr const char* kDetStateMemfn = "state-memfn";
inline constexpr const char* kDetStateConstCast = "state-const-cast";
inline constexpr const char* kDetMutateEscape = "mutate-escape";
inline constexpr const char* kDetRawKernelSend = "raw-kernel-send";
inline constexpr const char* kDetUnclassifiedSend = "unclassified-send";
// Pass 3 (spec cross-check) detectors: the declarative OSIRIS_MSG_SPEC table
// vs the on()/on_notify()/on_reply() registrations in each server.
inline constexpr const char* kDetSpecMissingHandler = "spec-missing-handler";
inline constexpr const char* kDetHandlerWithoutSpec = "handler-without-spec";
inline constexpr const char* kDetHandlerKindDrift = "handler-kind-drift";
inline constexpr const char* kDetSpecOwnerDrift = "spec-owner-drift";
// Pass 4 (effects) detectors: flow-sensitive per-handler effect summaries
// over the interprocedural call graph.
inline constexpr const char* kDetMutateAfterSend = "mutate-after-send";
inline constexpr const char* kDetBlockingInHandler = "blocking-in-handler";
inline constexpr const char* kDetUnsummarizedCallee = "unsummarized-callee";
// Determinism lint (the PR 4 bug class: anything that makes traces or
// campaign merges depend on heap layout, wall-clock time or an unseeded RNG).
inline constexpr const char* kDetNondetPointerKey = "nondet-pointer-key";
inline constexpr const char* kDetNondetAddrHash = "nondet-addr-hash";
inline constexpr const char* kDetNondetWallClock = "nondet-wallclock";
inline constexpr const char* kDetNondetRand = "nondet-rand";

struct Finding {
  std::string detector;
  std::string file;
  int line = 0;
  std::string message;
};

/// Mirror of seep::SeepClass (the analyzer must not link the runtime; the
/// integration test cross-checks the two enums stay in sync).
enum class SeepClass : std::uint8_t { kNonStateModifying, kStateModifying };

/// Mirror of the windowed subset of seep::Policy.
enum class Policy : std::uint8_t { kPessimistic, kEnhanced };
inline constexpr int kNumPolicies = 2;

const char* seep_class_name(SeepClass c);
const char* policy_name(Policy p);

/// Static mirror of seep::policy_closes_window for the windowed policies.
[[nodiscard]] constexpr bool policy_closes_window(Policy p, SeepClass cls) {
  switch (p) {
    case Policy::kPessimistic:
      return true;
    case Policy::kEnhanced:
      return cls == SeepClass::kStateModifying;
  }
  return true;
}

/// One row of the declarative OSIRIS_MSG_SPEC table (servers/msg_spec.hpp).
struct SpecRow {
  std::string name;
  std::uint32_t value = 0;
  std::string owner;  // pm / vm / vfs / ds / rs / sys / client / any
  SeepClass cls = SeepClass::kStateModifying;
  std::string kind;  // REQ / NOTE
  int args = 0;
  bool text = false;
  std::string file;
  int line = 0;
};

/// One handler registration (`on(...)` / `on_notify(...)` / `on_reply(...)`)
/// in a server's register_handlers().
struct HandlerReg {
  std::string server;  // registering server
  std::string msg;     // message-type constant
  std::string kind;    // request / notify / reply
  std::string fn;      // handler member function (`&Pm::do_fork` -> "do_fork")
  std::string file;
  int line = 0;
};

/// One outbound SEEP call site in a server implementation.
struct SendSite {
  std::string server;  // pm / vm / vfs / ds / rs / sys
  std::string file;
  int line = 0;
  std::string kind;  // call / send / notify / deferred_reply
  std::string msg;   // message-type constant; "<dynamic>" when not statically known
  std::string dst;   // destination server, "client", or "<dynamic>"
  SeepClass cls = SeepClass::kStateModifying;
  bool classified = false;  // class known: from a spec row, or written at the site
};

/// A deduplicated edge of the static inter-component channel graph.
struct ChannelEdge {
  std::string from;
  std::string to;
  std::string msg;
  SeepClass cls = SeepClass::kStateModifying;
};

/// Per-server, per-policy static recovery-window prediction.
struct WindowPrediction {
  std::string server;
  /// Any outbound site whose class closes the window under the policy?
  bool may_close_by_seep[kNumPolicies] = {false, false};
  /// Distinct SEEP classes seen across the server's outbound sites.
  std::vector<SeepClass> classes_used;
};

// --- Pass 4: interprocedural handler-effect summaries -----------------------

/// One element of a handler's flattened, flow-ordered effect sequence.
enum class EffectKind : std::uint8_t {
  kMutation,       // ckpt store mutation through a st()-rooted wrapper chain
  kSend,           // outbound SEEP (seep_* wrapper or explicit on_outbound)
  kBlocking,       // fiber suspend or synchronous blockdev wait
  kYield,          // explicit window().on_yield() force-close marker
  kUnboundedLoop,  // `for (;;)` / `while (true)` in the flow
  kRecursiveCall,  // summarization hit a call cycle and cut it here
  kUnresolvedCall  // callee with no definition and no intrinsic model
};

const char* effect_kind_name(EffectKind k);

struct Effect {
  EffectKind kind = EffectKind::kMutation;
  std::string detail;  // mutation chain / blocking kind / callee name
  std::string msg;     // kSend: message constant ("<explicit>", "<dynamic>")
  std::string dst;     // kSend: destination server or "client"/"<domain>"
  SeepClass cls = SeepClass::kStateModifying;  // kSend only
  bool classified = false;                     // kSend: class statically known
  bool sync = false;                           // kSend: seep_call (blocks for reply)
  /// kBlocking only: an analyze-suppress(blocking-in-handler) comment covers
  /// the site (boot path, the worker fiber's disk wait) — the point stays in the
  /// inventory but is not an open finding.
  bool suppressed = false;
  std::string file;
  int line = 0;
};

/// Effect summary + window prediction for one handler registration (one
/// (server, msg, kind) row of the dispatch table).
struct HandlerEffects {
  std::string server;
  std::string msg;
  std::string kind;  // request / notify / reply
  std::string fn;    // handler member function name
  std::string file;  // handler definition location (registration site when
  int line = 0;      // the body was not found)
  bool has_body = false;
  /// REQ-kind requests open the window at dispatch; notifications and
  /// replies never do (ServerCommon::dispatch).
  bool opens_window = false;
  std::vector<Effect> effects;  // flattened, in straight-line flow order
  bool recursive = false;
  bool has_unbounded_loop = false;
  int unresolved_callees = 0;
  int mutations_total = 0;
  /// Mutations ordered after the first window-closing send under the
  /// enhanced policy (the straight-line approximation of the paper's
  /// "dirtied past the point of no rollback" set).
  int mutations_after_close = 0;
  /// Handler-granularity window predictions (existential over the effect
  /// sequence — sound against branches skipping any prefix).
  bool may_close_by_seep[kNumPolicies] = {false, false};
  bool may_close_by_yield = false;  // any blocking/yield effect in the flow
};

struct Report {
  std::vector<Finding> findings;
  std::vector<SpecRow> spec;
  std::vector<HandlerReg> handlers;
  std::vector<SendSite> sites;
  std::vector<ChannelEdge> edges;
  std::vector<WindowPrediction> predictions;
  std::vector<HandlerEffects> handler_effects;
  int files_scanned = 0;
  int state_structs_checked = 0;
  int state_fields_checked = 0;

  [[nodiscard]] std::map<std::string, int> findings_by_detector() const;
  [[nodiscard]] const WindowPrediction* prediction_for(const std::string& server) const;
  [[nodiscard]] const HandlerEffects* effects_for(const std::string& server,
                                                  const std::string& msg,
                                                  const std::string& kind) const;
};

}  // namespace osiris::analyze
