// SYS: the kernel task (MINIX's SYSTEM task equivalent).
//
// Privileged low-level operations — kernel process slots, page mappings,
// uptime — are requested from servers via messages to SYS. SYS is part of
// the message-passing substrate in the paper's RCB: it carries NO
// fault-injection probes, is never registered with the recovery engine, and
// is assumed fault-free. Its purpose in the reproduction is to give the
// system servers realistic window-closing kernel interactions (SYS_MAP,
// SYS_FORK, ...) and a window-preserving read-only one (SYS_TIMES).
#pragma once

#include "ckpt/cell.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

struct SysProcSlot {
  std::int32_t pid = 0;
  std::uint32_t mapped_pages = 0;
};

struct SysState {
  ckpt::Table<SysProcSlot, 64> slots;
  ckpt::Cell<std::uint64_t> maps;
  ckpt::Cell<std::uint64_t> unmaps;
};

class SysTask final : public ServerBase<SysState> {
 public:
  explicit SysTask(kernel::Kernel& kernel)
      : ServerBase(kernel, kSysEp, "sys", seep::Policy::kEnhanced, ckpt::Mode::kOff) {
    init_state();
    register_handlers();
  }

  /// Boot-time registration of the init process's kernel slot.
  void register_boot_proc(std::int32_t pid);

 protected:
  void init_state() override {}

 private:
  void register_handlers();

  std::size_t slot_of(std::int32_t pid) const;

  std::optional<kernel::Message> do_fork(const kernel::Message& m);
  std::optional<kernel::Message> do_exit(const kernel::Message& m);
  std::optional<kernel::Message> do_map(const kernel::Message& m);
  std::optional<kernel::Message> do_unmap(const kernel::Message& m);
  std::optional<kernel::Message> do_times(const kernel::Message& m);
};

}  // namespace osiris::servers
