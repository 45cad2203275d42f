#include "servers/sys_task.hpp"

namespace osiris::servers {

using kernel::E_INVAL;
using kernel::E_NOMEM;
using kernel::E_SRCH;
using kernel::make_reply;
using kernel::Message;
using kernel::OK;

void SysTask::register_boot_proc(std::int32_t pid) {
  const std::size_t i = st().slots.alloc();
  OSIRIS_ASSERT(i != decltype(st().slots)::npos);
  auto& slot = st().slots.mutate(i);
  slot.pid = pid;
  slot.mapped_pages = 4;
}

std::size_t SysTask::slot_of(std::int32_t pid) const {
  return st().slots.find([pid](const SysProcSlot& s) { return s.pid == pid; });
}

namespace {
constexpr auto kNpos = decltype(SysState{}.slots)::npos;
}

void SysTask::register_handlers() {
  on(SYS_FORK, &SysTask::do_fork);
  on(SYS_EXIT, &SysTask::do_exit);
  on(SYS_MAP, &SysTask::do_map);
  on(SYS_UNMAP, &SysTask::do_unmap);
  on(SYS_TIMES, &SysTask::do_times);
}

std::optional<Message> SysTask::do_fork(const Message& m) {
  const std::int32_t child = MsgView(m).i32(1);
  if (slot_of(child) != kNpos) return make_reply(m.type, E_INVAL);
  const std::size_t i = st().slots.alloc();
  if (i == kNpos) return make_reply(m.type, E_NOMEM);
  auto& slot = st().slots.mutate(i);
  slot.pid = child;
  slot.mapped_pages = 0;
  return make_reply(m.type, OK);
}

std::optional<Message> SysTask::do_exit(const Message& m) {
  const std::size_t i = slot_of(MsgView(m).i32(0));
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  st().slots.free(i);
  return make_reply(m.type, OK);
}

std::optional<Message> SysTask::do_map(const Message& m) {
  const MsgView v(m);
  const std::size_t i = slot_of(v.i32(0));
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  st().slots.mutate(i).mapped_pages += static_cast<std::uint32_t>(v.u(2));
  st().maps += 1;
  return make_reply(m.type, OK);
}

std::optional<Message> SysTask::do_unmap(const Message& m) {
  const MsgView v(m);
  const std::size_t i = slot_of(v.i32(0));
  if (i == kNpos) return make_reply(m.type, E_SRCH);
  auto& slot = st().slots.mutate(i);
  const auto n = static_cast<std::uint32_t>(v.u(2));
  slot.mapped_pages = slot.mapped_pages >= n ? slot.mapped_pages - n : 0;
  st().unmaps += 1;
  return make_reply(m.type, OK);
}

std::optional<Message> SysTask::do_times(const Message& m) {
  Message r = make_reply(m.type, OK);
  r.arg[1] = kern().clock().now();
  return r;
}

}  // namespace osiris::servers
