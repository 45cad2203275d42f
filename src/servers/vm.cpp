#include "servers/vm.hpp"

#include <algorithm>

namespace osiris::servers {

using kernel::E_INVAL;
using kernel::E_NOMEM;
using kernel::E_SRCH;
using kernel::make_reply;
using kernel::Message;
using kernel::OK;

namespace {
constexpr auto kNpos = decltype(VmState{}.spaces)::npos;
}

void Vm::init_state() {
  st().free_frames = kTotalFrames;
  st().next_region_id = 1;
}

void Vm::register_boot_proc(std::int32_t pid) {
  const std::size_t i = st().spaces.alloc();
  OSIRIS_ASSERT(i != kNpos);
  auto& as = st().spaces.mutate(i);
  as.pid = pid;
  as.image_pages = 2;
  const bool ok = claim_frames(pid, as.image_pages);
  OSIRIS_ASSERT(ok);
}

std::size_t Vm::space_of(std::int32_t pid) const {
  return st().spaces.find([pid](const VmAddrSpace& a) { return a.pid == pid; });
}

bool Vm::claim_frames(std::int32_t pid, std::uint32_t n) {
  if (n == 0) return true;
  SRV_CHECK(st().free_frames <= kTotalFrames, "vm: frame accounting corrupt");
  if (st().free_frames < n) return false;
  std::uint32_t claimed = 0;
  for (std::uint32_t f = 0; f < kTotalFrames && claimed < n; ++f) {
    if (st().frame_owner.at(f) == 0) {
      if (claimed % 8 == 4) FI_BLOCK("vm");  // mid-mutation fault candidates
      st().frame_owner.set(f, pid);
      frame_bound_ = std::max(frame_bound_, f + 1);
      ++claimed;
    }
  }
  SRV_CHECK(claimed == n, "vm: frame pool vs free count mismatch");
  st().free_frames -= n;
  st().allocs += n;
  return true;
}

std::uint32_t Vm::release_frames(std::int32_t pid, std::uint32_t n) {
  std::uint32_t released = 0;
  for (std::uint32_t f = 0; f < frame_bound_ && released < n; ++f) {
    if (st().frame_owner.at(f) == pid) {
      if (released % 8 == 4) FI_BLOCK("vm");  // mid-mutation fault candidates
      // analyze-suppress(mutate-after-send): frame release runs after the
      // kernel mapping update by design (the kernel map is authoritative);
      // the ownership sweep is idempotent, so post-close replay converges.
      st().frame_owner.set(f, 0);
      ++released;
    }
  }
  st().free_frames += released;
  st().frees += released;
  SRV_CHECK(st().free_frames <= kTotalFrames, "vm: freed more frames than exist");
  return released;
}

void Vm::register_handlers() {
  on(VM_FORK_AS, &Vm::do_fork_as);
  on(VM_EXIT_AS, &Vm::do_exit_as);
  on(VM_EXEC_AS, &Vm::do_exec_as);
  on(VM_BRK_AS, &Vm::do_brk_as);
  on(VM_MMAP, &Vm::do_mmap);
  on(VM_MUNMAP, &Vm::do_munmap);
  on(VM_INFO, &Vm::do_info);
}

void Vm::on_message(const Message&) { FI_BLOCK("vm"); }

std::optional<Message> Vm::do_info(const Message& m) {
  FI_BLOCK("vm");
  Message r = make_reply(m.type, OK);
  r.arg[1] = st().free_frames;
  r.arg[2] = kTotalFrames;
  return r;
}

std::optional<Message> Vm::do_fork_as(const Message& m) {
  FI_BLOCK("vm");
  const MsgView v(m);
  const std::int32_t parent = v.i32(0);
  const std::int32_t child = v.i32(1);
  const std::size_t ps = space_of(parent);
  // PM only forks processes it knows; a missing parent space or an existing
  // child space means the VM and PM tables diverged (possible only after an
  // inconsistent recovery) — that is a fatal invariant violation.
  SRV_CHECK(ps != kNpos, "vm: fork for unknown parent (tables out of sync)");
  SRV_CHECK(space_of(child) == kNpos, "vm: fork child already exists (tables out of sync)");

  const VmAddrSpace snapshot = st().spaces.at(ps);
  const auto need = static_cast<std::uint32_t>(
      FI_VALUE("vm", snapshot.image_pages + snapshot.heap_pages));
  if (!FI_BRANCH("vm", claim_frames(child, need))) return make_reply(m.type, E_NOMEM);

  const std::size_t cs = st().spaces.alloc();
  if (cs == kNpos) {
    release_frames(child, need);
    return make_reply(m.type, E_NOMEM);
  }
  auto& as = st().spaces.mutate(cs);
  as = snapshot;
  as.pid = child;
  for (auto& r : as.regions) r = VmRegion{};  // mmap regions are not inherited

  // Mirror the new mappings into the kernel's page tables (batched).
  // State-modifying SEEP: closes the window under both policies.
  Message sys_r = seep_call(kSysEp, encode(SYS_MAP, child, 0, need));
  FI_BLOCK("vm");
  SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel map failed on fork");
  // Post-fork frame audit (outside the window: the SYS_MAP SEEP closed it).
  std::uint32_t owned = 0;
  for (std::uint32_t f = 0; f < frame_bound_ && owned < need; ++f) {
    if (st().frame_owner.at(f) == child) ++owned;
  }
  FI_BLOCK("vm");
  SRV_CHECK(owned == need, "vm: child frame count wrong after fork");
  FI_BLOCK("vm");
  SRV_CHECK(st().spaces.at(cs).pid == child, "vm: child space pid mismatch");
  FI_BLOCK("vm");
  // analyze-suppress(mutate-after-send): semantic no-op (+= 0) kept as an
  // undo-log audit barrier for the fault-injection probes around it.
  st().allocs += 0;  // accounting barrier
  FI_BLOCK("vm");
  return make_reply(m.type, OK);
}

std::optional<Message> Vm::do_exit_as(const Message& m) {
  FI_BLOCK("vm");
  const std::int32_t pid = MsgView(m).i32(0);
  const std::size_t s = space_of(pid);
  SRV_CHECK(s != kNpos, "vm: exit for unknown process (tables out of sync)");
  const std::uint32_t released = release_frames(pid, kTotalFrames);
  st().spaces.free(s);
  Message sys_r = seep_call(kSysEp, encode(SYS_UNMAP, pid, 0, released));
  FI_BLOCK("vm");
  SRV_CHECK(sys_r.sarg(0) == OK || sys_r.sarg(0) == E_SRCH, "vm: kernel unmap failed on exit");
  FI_BLOCK("vm");
  SRV_CHECK(space_of(pid) == kNpos, "vm: space survived exit");
  FI_BLOCK("vm");
  return make_reply(m.type, OK);
}

std::optional<Message> Vm::do_exec_as(const Message& m) {
  FI_BLOCK("vm");
  const MsgView v(m);
  const std::int32_t pid = v.i32(0);
  const auto image_pages = static_cast<std::uint32_t>(v.u(1));
  if (image_pages == 0 || image_pages > 1024) return make_reply(m.type, E_INVAL);
  const std::size_t s = space_of(pid);
  SRV_CHECK(s != kNpos, "vm: exec for unknown process (tables out of sync)");

  // Throw away the old image, load the new one.
  const std::uint32_t released = release_frames(pid, kTotalFrames);
  if (!claim_frames(pid, image_pages)) {
    st().spaces.free(s);
    return make_reply(m.type, E_NOMEM);
  }
  auto& as = st().spaces.mutate(s);
  as.image_pages = image_pages;
  as.heap_pages = 0;
  as.brk = 0x10000;
  for (auto& r : as.regions) r = VmRegion{};

  Message sys_r = seep_call(
      kSysEp, encode(SYS_UNMAP, pid, 0, released));
  SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel unmap failed on exec");
  sys_r = seep_call(kSysEp, encode(SYS_MAP, pid, 0, image_pages));
  FI_BLOCK("vm");
  SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel map failed on exec");
  return make_reply(m.type, OK);
}

std::optional<Message> Vm::do_brk_as(const Message& m) {
  FI_BLOCK("vm");
  const MsgView v(m);
  const std::int32_t pid = v.i32(0);
  const std::uint64_t want = v.u(1);
  const std::size_t s = space_of(pid);
  SRV_CHECK(s != kNpos, "vm: brk for unknown process (tables out of sync)");
  const VmAddrSpace& as = st().spaces.at(s);
  if (want < 0x10000) return make_reply(m.type, E_INVAL);

  const auto want_pages =
      static_cast<std::uint32_t>(FI_VALUE("vm", (want - 0x10000 + kPageSize - 1) / kPageSize));
  Message r = make_reply(m.type, OK);
  if (want_pages > as.heap_pages) {
    const std::uint32_t grow = want_pages - as.heap_pages;
    if (!claim_frames(pid, grow)) return make_reply(m.type, E_NOMEM);
    Message sys_r = seep_call(kSysEp, encode(SYS_MAP, pid, 0, grow));
    SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel map failed on brk");
  } else if (want_pages < as.heap_pages) {
    const std::uint32_t shrink = as.heap_pages - want_pages;
    release_frames(pid, shrink);
    Message sys_r = seep_call(kSysEp, encode(SYS_UNMAP, pid, 0, shrink));
    SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel unmap failed on brk");
  }
  auto& mas = st().spaces.mutate(s);
  mas.heap_pages = want_pages;
  mas.brk = want;
  FI_BLOCK("vm");
  r.arg[1] = want;
  return r;
}

std::optional<Message> Vm::do_mmap(const Message& m) {
  FI_BLOCK("vm");
  const MsgView v(m);
  const std::int32_t pid = v.i32(0);
  const std::uint64_t length = v.u(1);
  if (length == 0) return make_reply(m.type, E_INVAL);
  const std::size_t s = space_of(pid);
  if (s == kNpos) return make_reply(m.type, E_SRCH);

  const auto pages = static_cast<std::uint32_t>((length + kPageSize - 1) / kPageSize);
  std::size_t free_region = kMaxRegions;
  for (std::size_t i = 0; i < kMaxRegions; ++i) {
    if (st().spaces.at(s).regions[i].id == 0) {
      free_region = i;
      break;
    }
  }
  if (free_region == kMaxRegions) return make_reply(m.type, E_NOMEM);
  if (!claim_frames(pid, pages)) return make_reply(m.type, E_NOMEM);

  const std::uint32_t id = st().next_region_id;
  st().next_region_id = id + 1;
  auto& as = st().spaces.mutate(s);
  as.regions[free_region] = VmRegion{id, pages};

  Message sys_r = seep_call(kSysEp, encode(SYS_MAP, pid, 0, pages));
  FI_BLOCK("vm");
  SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel map failed on mmap");
  Message r = make_reply(m.type, OK);
  r.arg[1] = id;
  return r;
}

std::optional<Message> Vm::do_munmap(const Message& m) {
  FI_BLOCK("vm");
  const MsgView v(m);
  const std::int32_t pid = v.i32(0);
  const auto id = static_cast<std::uint32_t>(v.u(1));
  const std::size_t s = space_of(pid);
  if (s == kNpos) return make_reply(m.type, E_SRCH);

  for (std::size_t i = 0; i < kMaxRegions; ++i) {
    const VmRegion region = st().spaces.at(s).regions[i];
    if (region.id == id) {
      release_frames(pid, region.pages);
      st().spaces.mutate(s).regions[i] = VmRegion{};
      Message sys_r = seep_call(kSysEp, encode(SYS_UNMAP, pid, 0, region.pages));
      SRV_CHECK(sys_r.sarg(0) == OK, "vm: kernel unmap failed on munmap");
      return make_reply(m.type, OK);
    }
  }
  return make_reply(m.type, E_INVAL);
}

}  // namespace osiris::servers
