// DS: the Data Store — a small publish/subscribe key-value service.
//
// DS is the paper's show-case for the enhanced policy (Table I): when a key
// is published, DS notifies matching subscribers *early* in the request.
// That notification is informational (non-state-modifying), so under the
// enhanced policy the recovery window survives it and DS is almost always
// recoverable (92.8%); under the pessimistic policy the very same notify
// closes the window, leaving the rest of the publish path unprotected
// (47.1%).
#pragma once

#include "ckpt/cell.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

inline constexpr std::size_t kDsKeyCap = 28;

struct DsEntry {
  osiris::FixedString<kDsKeyCap> key;
  std::uint64_t value = 0;
};

struct DsSub {
  std::int32_t ep = -1;
  osiris::FixedString<kDsKeyCap> prefix;
  std::uint32_t events = 0;
};

struct DsState {
  ckpt::Table<DsEntry, 128> entries;
  ckpt::Table<DsSub, 16> subs;
  ckpt::Cell<std::uint64_t> publishes;
  ckpt::Cell<std::uint64_t> notifications;
  ckpt::Str<kDsKeyCap> last_changed_key;
};

class Ds final : public ServerBase<DsState> {
 public:
  Ds(kernel::Kernel& kernel, seep::Policy policy, ckpt::Mode mode)
      : ServerBase(kernel, kernel::kDsEp, "ds", policy, mode) {
    init_state();
    register_handlers();
  }

 /// Boot: install a subscription directly (before the message loop runs).
  void boot_subscribe(kernel::Endpoint ep, std::string_view prefix);

 protected:
  void on_message(const kernel::Message& m) override;
  void init_state() override {}

 private:
  void register_handlers();

  std::size_t entry_of(std::string_view key) const;
  void notify_subscribers(std::string_view key);

  std::optional<kernel::Message> do_publish(const kernel::Message& m);
  std::optional<kernel::Message> do_retrieve(const kernel::Message& m);
  std::optional<kernel::Message> do_delete(const kernel::Message& m);
  std::optional<kernel::Message> do_subscribe(const kernel::Message& m);
  std::optional<kernel::Message> do_check(const kernel::Message& m);
};

}  // namespace osiris::servers
