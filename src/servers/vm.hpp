// VM: the Virtual Memory Manager.
//
// Owns the physical page frame pool and per-process address spaces (heap
// break, mmap regions). All frame-count bookkeeping is mirrored to the
// kernel task through batched SYS_MAP/SYS_UNMAP SEEPs, which are
// state-modifying and therefore close VM's recovery window under *both*
// OSIRIS policies — the reason VM's recovery coverage is identical in the
// pessimistic and enhanced columns of Table I.
//
// VM also carries by far the largest data section of the five servers: the
// frame-ownership map. Its pre-allocated spare clone dominates the "+clone"
// column of Table VI, exactly like the paper's VM (42 MB of 50 MB total).
#pragma once

#include "ckpt/cell.hpp"
#include "servers/server_base.hpp"

namespace osiris::servers {

inline constexpr std::uint32_t kTotalFrames = 16384;  // 64 MiB of 4 KiB pages
inline constexpr std::uint32_t kPageSize = 4096;
inline constexpr std::size_t kMaxRegions = 8;

struct VmRegion {
  std::uint32_t id = 0;  // 0 = free slot
  std::uint32_t pages = 0;
};

struct VmAddrSpace {
  std::int32_t pid = 0;
  std::uint32_t image_pages = 0;  // text+data of the program image
  std::uint32_t heap_pages = 0;
  std::uint64_t brk = 0x10000;
  VmRegion regions[kMaxRegions];
};

struct VmState {
  ckpt::Table<VmAddrSpace, kMaxProcs> spaces;
  /// Frame ownership: pid per frame, 0 = free. This large array is what
  /// makes VM's clone (and undo-log) footprint dominate Table VI.
  ckpt::Array<std::int32_t, kTotalFrames> frame_owner;
  ckpt::Cell<std::uint32_t> free_frames;
  ckpt::Cell<std::uint32_t> next_region_id;
  ckpt::Cell<std::uint64_t> allocs;
  ckpt::Cell<std::uint64_t> frees;
};

class Vm final : public ServerBase<VmState> {
 public:
  Vm(kernel::Kernel& kernel, const seep::Classification& classification, seep::Policy policy,
     ckpt::Mode mode)
      : ServerBase(kernel, kernel::kVmEp, "vm", classification, policy, mode) {
    init_state();
    register_handlers();
  }

  /// Boot: give the init process an address space.
  void register_boot_proc(std::int32_t pid);

  [[nodiscard]] std::uint32_t free_frames() const { return st().free_frames; }

  /// The spare VM clone pre-allocates a frame-management arena so recovery
  /// never allocates through the (defunct) VM itself (paper SVI-D).
  [[nodiscard]] std::size_t recovery_arena_bytes() const override {
    return static_cast<std::size_t>(kTotalFrames) * 16;  // per-frame recovery metadata
  }

 protected:
  void on_message(const kernel::Message& m) override;
  void init_state() override;

 private:
  void register_handlers();

  std::size_t space_of(std::int32_t pid) const;

  /// Claim `n` frames for `pid`; returns false (no partial claim) if the
  /// pool is too small.
  bool claim_frames(std::int32_t pid, std::uint32_t n);
  /// Release up to `n` frames owned by `pid` (all of them if n is huge).
  std::uint32_t release_frames(std::int32_t pid, std::uint32_t n);

  std::optional<kernel::Message> do_fork_as(const kernel::Message& m);
  std::optional<kernel::Message> do_exit_as(const kernel::Message& m);
  std::optional<kernel::Message> do_exec_as(const kernel::Message& m);
  std::optional<kernel::Message> do_brk_as(const kernel::Message& m);
  std::optional<kernel::Message> do_mmap(const kernel::Message& m);
  std::optional<kernel::Message> do_munmap(const kernel::Message& m);
  std::optional<kernel::Message> do_info(const kernel::Message& m);

  /// One past the highest frame index claim_frames ever set. Only
  /// claim_frames and release_frames write frame_owner, and rollback and
  /// restart restore only values they wrote, so no frame at or above this
  /// bound is owned and ownership scans stop here. Not a VmState field: a
  /// rollback must not lower it, since it bounds every value a restore can
  /// bring back.
  std::uint32_t frame_bound_ = 0;
};

}  // namespace osiris::servers
