// Side Effect Engraved Passages (SEEPs) — paper SIII-A / SIV-B.
//
// Every inter-component channel is wrapped in a SEEP that carries a static
// classification of the messages flowing through it: does the request modify
// the receiver's state, creating a cross-component dependency?
//
// The paper computes this classification with an LLVM pass over outbound
// call sites; we hand-author the same static table. Each message's class is
// a column of its row in the declarative spec (servers/msg_spec.hpp), the
// one place the class is declared and read.
#pragma once

#include <cstdint>

namespace osiris::seep {

enum class SeepClass : std::uint8_t {
  /// The interaction does not change the receiver's state (read-only query,
  /// lookups, retrievals). Safe inside a recovery window under the enhanced
  /// policy: the receiver learns nothing about the sender's state.
  kNonStateModifying,
  /// The interaction changes the receiver's state: rolling back the sender
  /// afterwards would orphan that change. Closes the recovery window.
  kStateModifying,
};

}  // namespace osiris::seep
