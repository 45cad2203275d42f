#include "os/instance.hpp"

#include "fi/registry.hpp"
#include "fs/direct_store.hpp"
#include "kernel/faults.hpp"
#include "os/syscalls.hpp"
#include "support/log.hpp"

namespace osiris::os {

using kernel::Message;

namespace {
/// Deliveries one kernel drain loop may make before the livelock valve
/// trips (a self-sustaining storm on a machine without recovery, where no
/// health monitor runs, would otherwise spin the host forever: the virtual
/// clock stands still while work is pending). Far above anything a
/// legitimate workload produces.
constexpr std::uint64_t kMaxDispatchBurst = 200'000;
/// Scheduler-step budget: exceeded = the run is classified as hung.
constexpr std::uint64_t kMaxSteps = 20'000'000;
/// Iterations without any user-process progress before declaring a hang.
/// Disk completions and hang-recovery all resolve within tens of
/// iterations; 2000 leaves two orders of magnitude of margin.
constexpr std::uint64_t kMaxIdleIters = 2'000;
}  // namespace

// --- UserProc -----------------------------------------------------------

UserProc::UserProc(OsInstance& os, std::string name, ISys::ProcBody body)
    : os_(os), name_(std::move(name)), body_(std::move(body)) {
  sys_ = std::make_unique<Sys>(os_, *this);
  ep_ = os_.kern().register_client(this);
  fiber_ = std::make_unique<cothread::Fiber>([this] {
    std::int64_t rc = 0;
    bool killed = false;
    try {
      body_(*sys_);
    } catch (const ProcExit& e) {
      rc = e.status;
      run_state_ = RunState::kDone;
      return;  // exit() already performed the PM_EXIT syscall
    } catch (const ProcKilled&) {
      killed = true;
    }
    run_state_ = RunState::kDone;
    if (!killed && os_.kern().state() == kernel::SystemState::kRunning) {
      // Program body returned without calling exit(): exit(rc) implicitly.
      try {
        sys_->exit(rc);
      } catch (const ProcExit&) {
      } catch (const ProcKilled&) {
      }
    }
  });
}

UserProc::~UserProc() = default;

void UserProc::on_reply(const kernel::Message& reply) {
  has_reply_ = true;
  reply_ = reply;
  if (run_state_ == RunState::kBlocked) {
    run_state_ = RunState::kReady;
    os_.mark_ready(this);
  }
}

void UserProc::on_notify(const kernel::Message& msg) {
  if ((msg.type & ~kernel::kNotifyBit) == servers::PM_SIG_NOTIFY) {
    const std::uint64_t mask = msg.arg[0];
    pending_sig_mask_ |= mask;
    if ((mask & (1ULL << servers::kSigKill)) != 0) {
      killed_ = true;
      // Wake the fiber so it can unwind, even mid-sendrec.
      if (run_state_ == RunState::kBlocked) {
        run_state_ = RunState::kReady;
        os_.mark_ready(this);
      }
    }
  }
}

// --- OsInstance -----------------------------------------------------------

OsInstance::OsInstance(OsConfig cfg) : cfg_(cfg) {
#if OSIRIS_TRACE_ENABLED
  if (cfg_.trace_enabled) {
    tracer_ = std::make_unique<trace::Tracer>(clock_, cfg_.trace_ring_capacity);
    tracer_->set_component_name(kernel::kKernelEp.value, "kernel");
    tracer_->set_component_name(kernel::kRsEp.value, "rs");
    tracer_->set_component_name(kernel::kPmEp.value, "pm");
    tracer_->set_component_name(kernel::kVmEp.value, "vm");
    tracer_->set_component_name(kernel::kVfsEp.value, "vfs");
    tracer_->set_component_name(kernel::kDsEp.value, "ds");
    tracer_->set_component_name(servers::kSysEp.value, "sys");
    // Install as this thread's active tracer; the previous one (normally
    // nullptr, but OS instances may nest in harness code) is restored on
    // destruction, mirroring ckpt::Context::Scope.
    prev_tracer_ = trace::Tracer::exchange_active(tracer_.get());
  }
#endif
}

OsInstance::~OsInstance() {
#if OSIRIS_TRACE_ENABLED
  if (tracer_) trace::Tracer::exchange_active(prev_tracer_);
#endif
}

const char* OsInstance::outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kShutdown: return "shutdown";
    case Outcome::kCrashed: return "crashed";
    case Outcome::kHung: return "hung";
  }
  return "?";
}

void OsInstance::boot() {
  OSIRIS_ASSERT(!booted_);
  booted_ = true;

  // Boot opens the fault-injection run: nothing armed for an earlier
  // machine on this thread carries over, and every counter starts at zero.
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();

  disk_ = std::make_unique<fs::BlockDevice>(clock_, cfg_.disk_blocks);
  fs::MiniFs::mkfs(*disk_);

  // Populate the filesystem before the servers come up: /bin with a marker
  // file per registered program, /tmp for the workloads.
  {
    fs::DirectStore direct(*disk_);
    fs::MiniFs boot_fs(direct);
    OSIRIS_ASSERT(boot_fs.mount() == kernel::OK);
    const std::int64_t bin = boot_fs.create(fs::kRootIno, "bin", fs::FileType::kDirectory);
    OSIRIS_ASSERT(bin > 0);
    OSIRIS_ASSERT(boot_fs.create(fs::kRootIno, "tmp", fs::FileType::kDirectory) > 0);
    OSIRIS_ASSERT(boot_fs.create(fs::kRootIno, "etc", fs::FileType::kDirectory) > 0);
    for (const auto& [name, body] : programs_.all()) {
      const std::int64_t ino =
          boot_fs.create(static_cast<fs::Ino>(bin), name, fs::FileType::kRegular);
      OSIRIS_ASSERT(ino > 0);
      // A tiny "image" so exec's binary check reads real file data.
      const std::string image = "#!osiris " + name;
      boot_fs.write(static_cast<fs::Ino>(ino), 0,
                    std::as_bytes(std::span<const char>(image.data(), image.size())));
    }
  }

  kernel_ = std::make_unique<kernel::Kernel>(clock_);
  kernel_->set_health_exempt(&servers::is_health_exempt);
  kernel_->set_dispatch_burst_cap(kMaxDispatchBurst);

  const ckpt::Mode mode =
      seep::policy_uses_windows(cfg_.policy) ? cfg_.ckpt_mode : ckpt::Mode::kOff;
  sys_ = std::make_unique<servers::SysTask>(*kernel_);
  pm_ = std::make_unique<servers::Pm>(*kernel_, cfg_.policy, mode);
  vm_ = std::make_unique<servers::Vm>(*kernel_, cfg_.policy, mode);
  vfs_ = std::make_unique<servers::Vfs>(*kernel_, cfg_.policy, mode, *disk_, cfg_.cache_blocks);
  ds_ = std::make_unique<servers::Ds>(*kernel_, cfg_.policy, mode);
  rs_ = std::make_unique<servers::Rs>(*kernel_, cfg_.policy, mode);

  kernel_->register_server(servers::kSysEp, sys_.get());
  kernel_->register_server(kernel::kPmEp, pm_.get());
  kernel_->register_server(kernel::kVmEp, vm_.get());
  kernel_->register_server(kernel::kVfsEp, vfs_.get());
  kernel_->register_server(kernel::kDsEp, ds_.get());
  kernel_->register_server(kernel::kRsEp, rs_.get());

  vfs_->mount();

  components_ = {pm_.get(), vm_.get(), vfs_.get(), ds_.get(), rs_.get()};
  if (cfg_.recovery_enabled) {
    engine_ = std::make_unique<recovery::Engine>(*kernel_, cfg_.policy, cfg_.max_recoveries,
                                                 cfg_.quarantine_cooldown_ticks);
    rs_->attach_engine(engine_.get());
    // Fever decisions route into the ladder's storm rung, and installing the
    // handler is what switches the kernel's health monitor on. The handler
    // fires only at the dispatch boundary (never nested), so the engine may
    // park the fevered component on the spot.
    kernel_->set_storm_handler(
        [this](kernel::Endpoint ep) { engine_->on_storm(ep); });
  }

  // RS watches every published key (component status publications), so DS
  // publishes always notify at least one subscriber early in the request.
  ds_->boot_subscribe(kernel::kRsEp, "");

  for (const kernel::Endpoint ep : {kernel::kPmEp, kernel::kVmEp, kernel::kVfsEp, kernel::kDsEp}) {
    const bool monitored = rs_->monitor(ep);
    OSIRIS_ASSERT(monitored);  // boot servers must never lose heartbeat coverage
  }
  if (cfg_.heartbeat_interval > 0) rs_->start_heartbeats(cfg_.heartbeat_interval);

  // Seed the data store with boot facts (consumed by uname and the suite).
  {
    Message m = servers::encode_text(servers::DS_PUBLISH, "sys.release", 316);
    kernel_->send(kernel::kKernelEp, kernel::kDsEp, m);
    kernel_->dispatch_pending();
  }

  // Registration captures each component's boot image, so it comes after
  // the wiring above: a component reset to its boot image (stateless
  // restart, quarantine) comes back with it, RS with its heartbeat table
  // and DS with RS's subscription and the boot facts.
  if (engine_) {
    for (recovery::Recoverable* c : components_) engine_->register_component(c);
  }

  // Everything up to here is boot: executed fault candidates are excluded
  // from injection campaigns (paper SVI-B), and campaigns arm faults only
  // after boot() returns.
  fi::Registry::instance().mark_boot_complete();
}

UserProc* OsInstance::create_proc(std::string name, ISys::ProcBody body) {
  procs_.push_back(std::make_unique<UserProc>(*this, std::move(name), std::move(body)));
  return procs_.back().get();
}

void OsInstance::mark_ready(UserProc* p) {
  if (!p->in_ready_queue_ && p->run_state_ != UserProc::RunState::kDone) {
    p->in_ready_queue_ = true;
    ready_.push_back(p);
  }
}

UserProc* OsInstance::pop_ready() {
  while (!ready_.empty()) {
    UserProc* p = ready_.front();
    ready_.pop_front();
    p->in_ready_queue_ = false;
    if (p->run_state_ != UserProc::RunState::kDone) return p;
  }
  return nullptr;
}

void OsInstance::resume_proc(UserProc* p) {
  p->run_state_ = UserProc::RunState::kRunning;
  p->fiber_->resume();
  if (auto e = p->fiber_->take_exception()) {
    // Nothing legitimate escapes a user fiber; this is a harness bug.
    std::rethrow_exception(e);
  }
  if (p->fiber_->finished()) {
    p->run_state_ = UserProc::RunState::kDone;
    kernel_->unregister_client(p->ep_);
  } else if (p->run_state_ == UserProc::RunState::kRunning) {
    p->run_state_ = UserProc::RunState::kBlocked;
  }
}

OsInstance::Outcome OsInstance::run(ISys::ProcBody init_body) {
  OSIRIS_ASSERT(booted_);
  UserProc* init = create_proc("init", std::move(init_body));
  init->pid_ = 1;
  pm_->register_boot_proc(1, init->ep(), "init");
  vm_->register_boot_proc(1);
  vfs_->register_boot_proc(1, init->ep());
  sys_->register_boot_proc(1);

  mark_ready(init);
  bool hung = false;
  std::uint64_t idle_iters = 0;
  try {
    while (kernel_->state() == kernel::SystemState::kRunning) {
      bool progress = false;
      if (kernel_->dispatch_pending()) progress = true;
      if (UserProc* p = pop_ready()) {
        resume_proc(p);
        if (p->run_state_ == UserProc::RunState::kDone) {
          if (p == init) break;
          // Destroy the finished process now, fiber and all, so host memory
          // follows live processes, not every process ever forked. It was
          // just popped, and nothing queues a finished process. A killed
          // process stays until the instance goes: it can die with a request
          // in flight, and a VFS worker waiting on the disk for that request
          // still writes through a grant span into its stack.
          OSIRIS_ASSERT(!p->in_ready_queue_);
          if (!p->killed_) {
            std::erase_if(procs_,
                          [p](const std::unique_ptr<UserProc>& q) { return q.get() == p; });
          }
        }
        progress = true;
        idle_iters = 0;  // only *user-process* progress counts: background
                         // heartbeat chatter must not mask a hung workload
      } else {
        ++idle_iters;
      }
      if (!progress && !clock_.advance_to_next()) {
        hung = true;  // deadlock: nothing runnable, nothing pending
        break;
      }
      if (++steps_ > kMaxSteps || idle_iters > kMaxIdleIters) {
        hung = true;
        break;
      }
    }
  } catch (const kernel::ControlledShutdown&) {
    // Unwound from deep inside a dispatch chain; kernel state is kShutdown.
  }

  switch (kernel_->state()) {
    case kernel::SystemState::kShutdown:
      return Outcome::kShutdown;
    case kernel::SystemState::kCrashed:
      return Outcome::kCrashed;
    case kernel::SystemState::kRunning:
      return hung ? Outcome::kHung : Outcome::kCompleted;
  }
  return Outcome::kCrashed;
}

}  // namespace osiris::os
