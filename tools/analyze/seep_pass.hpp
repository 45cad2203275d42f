// Pass 2 — SEEP analysis: rebuild the artifacts of the paper's call-site
// classification pass from the source tree and verify the hand-authored
// substitution.
//
//   * take message names, values and classes from the OSIRIS_MSG_SPEC rows
//     (parse_spec_rows), the only protocol declaration;
//   * extract all outbound seep_call / seep_send / seep_notify /
//     seep_deferred_reply sites per server, resolving each site's message
//     type (inline make_msg, or a local `Message x = make_msg(...)`);
//   * build the static inter-component channel graph;
//   * flag send sites whose type has no spec row or cannot be resolved
//     statically (unclassified-send);
//   * emit per-server, per-policy static recovery-window predictions that
//     an integration test cross-validates against runtime WindowStats.
#pragma once

#include <vector>

#include "lexer.hpp"
#include "model.hpp"

namespace osiris::analyze {

/// Extract outbound SEEP sites from one server implementation file.
std::vector<SendSite> extract_send_sites(const LexedFile& f, const std::string& server);

/// Parse the rows of the declarative OSIRIS_MSG_SPEC X-macro table:
/// `X(NAME, value, owner, CLS, KIND, nargs, TXT|NOTEXT, "doc")`. The lexer
/// exposes the macro body specifically for this pass.
std::vector<SpecRow> parse_spec_rows(const LexedFile& f);

/// Extract `on(MSG, ...)` / `on_notify(MSG, ...)` / `on_reply(MSG, ...)`
/// handler registrations from one server implementation file.
std::vector<HandlerReg> extract_handler_regs(const LexedFile& f, const std::string& server);

/// Cross-reference the send sites with the spec rows: resolves each site's
/// SEEP class, appends unclassified-send findings, and fills the channel
/// graph and the per-policy window predictions.
void resolve_and_predict(Report& report);

/// Pass 3 — spec cross-check: every handler registration must name a spec
/// row of the matching delivery kind registered by the owning server, and
/// every server-owned spec row must have a handler (RS_PING-style "any" and
/// client-delivered rows are exempt). No-op when the tree has no spec table.
void crosscheck_spec_handlers(Report& report);

}  // namespace osiris::analyze
