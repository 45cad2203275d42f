// MonoOs: the monolithic direct-call baseline (Table IV's "Linux" stand-in).
//
// Implements the same ISys semantics as the OSIRIS multiserver system —
// processes, wait/exit, signals, files on the same MiniFS, pipes, a
// key-value store — but as ONE kernel: every syscall is a direct function
// call into shared data structures. No message passing, no MMU-style
// isolation, no SEEPs, no checkpointing, no recovery. Comparing unixbench
// scores across MonoOs and OsInstance measures exactly the cost the paper
// attributes to the compartmentalized design ("overhead incurred by
// context-switching between OS components"), holding the workload and the
// filesystem implementation constant.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cothread/fiber.hpp"
#include "fs/blockdev.hpp"
#include "fs/direct_store.hpp"
#include "fs/minifs.hpp"
#include "os/isys.hpp"
#include "os/programs.hpp"
#include "support/clock.hpp"

namespace osiris::os {

class MonoOs {
 public:
  MonoOs();
  ~MonoOs();

  MonoOs(const MonoOs&) = delete;
  MonoOs& operator=(const MonoOs&) = delete;

  ProgramRegistry& programs() noexcept { return programs_; }

  void boot();

  /// Run `init_body` as pid 1 until it exits; returns its exit status.
  std::int64_t run(ISys::ProcBody init_body);

 private:
  friend class MonoSys;

  struct OpenFile {
    bool used = false;
    bool is_pipe_read = false;
    bool is_pipe_write = false;
    fs::Ino ino = fs::kNoIno;
    std::uint32_t pos = 0;
    std::uint32_t flags = 0;
    std::int32_t refcnt = 0;
    std::int32_t pipe = -1;
  };

  struct Pipe {
    bool used = false;
    std::deque<std::byte> data;
    std::int32_t readers = 0;
    std::int32_t writers = 0;
  };

  struct Proc {
    std::int32_t pid = 0;
    std::int32_t parent = 0;
    bool zombie = false;
    bool killed = false;
    bool waiting = false;  // blocked in wait_pid
    std::int32_t wait_target = 0;
    std::int64_t exit_status = 0;
    std::uint64_t pending_sigs = 0;
    std::uint64_t handled_sigs = 0;
    std::uint64_t brk = 0x10000;
    std::uint32_t uid = 0;
    std::string name;
    std::vector<std::int32_t> fds;  // open-file index or -1
    std::unique_ptr<cothread::Fiber> fiber;
    std::unique_ptr<class MonoSys> sys;
    bool ready = false;
    bool done = false;
  };

  Proc* proc_of_pid(std::int32_t pid);
  Proc* spawn(std::int32_t parent, std::string name, ISys::ProcBody body);
  void mark_ready(Proc* p);
  void terminate(Proc* p, std::int64_t status);
  void close_filei(std::size_t fidx);
  /// Wake every live process to re-check its blocking condition.
  void wake_all();

  VirtualClock clock_;  // virtual time for times(); no latency modelled
  std::unique_ptr<fs::BlockDevice> disk_;
  std::unique_ptr<fs::DirectStore> store_;
  std::unique_ptr<fs::MiniFs> fs_;
  ProgramRegistry programs_;

  std::vector<std::unique_ptr<Proc>> procs_;
  std::deque<Proc*> ready_;
  std::vector<OpenFile> files_;
  std::vector<Pipe> pipes_;
  std::map<std::string, std::uint64_t, std::less<>> ds_;
  std::int32_t next_pid_ = 2;
  std::uint32_t free_pages_ = 16384;
  bool booted_ = false;
};

}  // namespace osiris::os
