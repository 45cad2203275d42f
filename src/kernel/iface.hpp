// Kernel-visible interfaces of the two process kinds.
//
// System servers are event-driven (paper SIV-A): the kernel invokes
// dispatch() for every incoming message; the server either returns a reply
// inline or takes ownership of replying later (multithreaded servers that
// block on I/O). User processes ("clients") are driven by the OS layer; the
// kernel only pushes replies and signals into them via callbacks.
#pragma once

#include <optional>
#include <string_view>

#include "kernel/message.hpp"

namespace osiris::kernel {

class IServer {
 public:
  virtual ~IServer() = default;

  /// Name for logs and statistics ("pm", "vfs", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Handle one incoming message. Returns the reply to send back to
  /// msg.sender, or nullopt if the server will reply asynchronously (or the
  /// message needs no reply). May throw FailStopFault.
  virtual std::optional<Message> dispatch(const Message& msg) = 0;

  /// Monotonic useful-work counter sampled by the health monitor around
  /// each dispatch: recovery windows opened plus deferred replies sent. A
  /// dispatch that moves neither is physiologically idle — if a component
  /// produces many such dispatches in a burst, it is storming, not working.
  [[nodiscard]] virtual std::uint64_t useful_work() const { return 0; }
};

class IClient {
 public:
  virtual ~IClient() = default;

  /// Deliver the reply to the client's outstanding sendrec.
  virtual void on_reply(const Message& reply) = 0;

  /// Deliver an asynchronous notification (signal) to the client.
  virtual void on_notify(const Message& msg) = 0;
};

}  // namespace osiris::kernel
