// Data-store, virtual-memory and cross-cutting tests: tests 65-89.
#include "workload/suite_internal.hpp"

namespace osiris::workload {

using os::ISys;
using os::StatResult;
using namespace osiris::servers;
using kernel::E_INVAL;
using kernel::E_NOENT;
using kernel::OK;

namespace {

// --- data store (DS) -----------------------------------------------------

std::int64_t t_ds_publish_retrieve(ISys& sys) {
  REQ_EQ(sys.ds_publish("suite.k1", 111), OK);
  std::uint64_t v = 0;
  REQ_EQ(sys.ds_retrieve("suite.k1", &v), OK);
  REQ_EQ(v, 111u);
  REQ_EQ(sys.ds_delete("suite.k1"), OK);
  return 0;
}

std::int64_t t_ds_overwrite(ISys& sys) {
  REQ_EQ(sys.ds_publish("suite.k2", 1), OK);
  REQ_EQ(sys.ds_publish("suite.k2", 2), OK);
  std::uint64_t v = 0;
  REQ_EQ(sys.ds_retrieve("suite.k2", &v), OK);
  REQ_EQ(v, 2u);
  REQ_EQ(sys.ds_delete("suite.k2"), OK);
  return 0;
}

std::int64_t t_ds_missing_key(ISys& sys) {
  std::uint64_t v = 0;
  REQ_EQ(sys.ds_retrieve("suite.absent", &v), E_NOENT);
  REQ_EQ(sys.ds_delete("suite.absent"), E_NOENT);
  return 0;
}

std::int64_t t_ds_empty_key_invalid(ISys& sys) {
  REQ_EQ(sys.ds_publish("", 5), E_INVAL);
  return 0;
}

std::int64_t t_ds_many_keys(ISys& sys) {
  for (int i = 0; i < 30; ++i) {
    REQ_EQ(sys.ds_publish("suite.many." + std::to_string(i), i * 10), OK);
  }
  for (int i = 0; i < 30; ++i) {
    std::uint64_t v = 0;
    REQ_EQ(sys.ds_retrieve("suite.many." + std::to_string(i), &v), OK);
    REQ_EQ(v, static_cast<std::uint64_t>(i) * 10);
  }
  for (int i = 0; i < 30; ++i) {
    REQ_EQ(sys.ds_delete("suite.many." + std::to_string(i)), OK);
  }
  return 0;
}

std::int64_t t_ds_subscribe_notify(ISys& sys) {
  REQ_EQ(sys.ds_subscribe("suite.sub."), OK);
  REQ_EQ(sys.ds_publish("suite.sub.x", 7), OK);
  std::uint64_t events = 99;
  REQ_EQ(sys.ds_check(&events), OK);
  REQ_EQ(sys.ds_delete("suite.sub.x"), OK);
  return 0;
}

std::int64_t t_ds_shared_across_procs(ISys& sys) {
  REQ_EQ(sys.ds_publish("suite.shared", 42), OK);
  const std::int64_t pid = sys.fork([](ISys& c) {
    std::uint64_t v = 0;
    if (c.ds_retrieve("suite.shared", &v) != OK || v != 42) c.exit(1);
    if (c.ds_publish("suite.shared", 43) != OK) c.exit(2);
    c.exit(0);
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  std::uint64_t v = 0;
  REQ_EQ(sys.ds_retrieve("suite.shared", &v), OK);
  REQ_EQ(v, 43u);
  REQ_EQ(sys.ds_delete("suite.shared"), OK);
  return 0;
}

std::int64_t t_ds_sys_release(ISys& sys) {
  std::uint64_t v = 0;
  REQ_EQ(sys.ds_retrieve("sys.release", &v), OK);
  REQ(v > 0);
  return 0;
}

// --- virtual memory (VM) ----------------------------------------------------

std::int64_t t_mmap_munmap(ISys& sys) {
  const std::int64_t region = sys.mmap(64 * 1024);
  REQ(region > 0);
  REQ_EQ(sys.munmap(region), OK);
  REQ_EQ(sys.munmap(region), E_INVAL);  // already unmapped
  return 0;
}

std::int64_t t_mmap_zero_invalid(ISys& sys) {
  REQ_EQ(sys.mmap(0), E_INVAL);
  return 0;
}

std::int64_t t_mmap_regions_independent(ISys& sys) {
  const std::int64_t r1 = sys.mmap(4096);
  const std::int64_t r2 = sys.mmap(8192);
  REQ(r1 > 0 && r2 > 0 && r1 != r2);
  REQ_EQ(sys.munmap(r1), OK);
  REQ_EQ(sys.munmap(r2), OK);
  return 0;
}

std::int64_t t_meminfo_accounting(ISys& sys) {
  std::uint64_t free0 = 0, total = 0;
  REQ_EQ(sys.getmeminfo(&free0, &total), OK);
  REQ(total > 0 && free0 <= total);
  const std::int64_t region = sys.mmap(16 * 4096);
  REQ(region > 0);
  std::uint64_t free1 = 0;
  REQ_EQ(sys.getmeminfo(&free1, nullptr), OK);
  REQ_EQ(free0 - free1, 16u);
  REQ_EQ(sys.munmap(region), OK);
  std::uint64_t free2 = 0;
  REQ_EQ(sys.getmeminfo(&free2, nullptr), OK);
  REQ_EQ(free2, free0);
  return 0;
}

std::int64_t t_brk_meminfo(ISys& sys) {
  const std::int64_t pid = sys.fork([](ISys& c) {
    std::uint64_t free0 = 0;
    if (c.getmeminfo(&free0, nullptr) != OK) c.exit(1);
    if (c.brk(0x10000 + 4 * 4096) < 0) c.exit(2);
    std::uint64_t free1 = 0;
    if (c.getmeminfo(&free1, nullptr) != OK) c.exit(3);
    c.exit(free0 - free1 == 4 ? 0 : 4);
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  return 0;
}

std::int64_t t_exit_releases_memory(ISys& sys) {
  std::uint64_t free0 = 0;
  REQ_EQ(sys.getmeminfo(&free0, nullptr), OK);
  const std::int64_t pid = sys.fork([](ISys& c) {
    if (c.mmap(32 * 4096) <= 0) c.exit(1);
    c.exit(0);  // exits without munmap: VM must reclaim
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  std::uint64_t free1 = 0;
  REQ_EQ(sys.getmeminfo(&free1, nullptr), OK);
  REQ_EQ(free1, free0);
  return 0;
}

std::int64_t t_fork_copies_address_space(ISys& sys) {
  std::uint64_t free0 = 0;
  REQ_EQ(sys.getmeminfo(&free0, nullptr), OK);
  const std::int64_t pid = sys.fork([free0](ISys& c) {
    std::uint64_t free1 = 0;
    if (c.getmeminfo(&free1, nullptr) != OK) c.exit(1);
    c.exit(free1 < free0 ? 0 : 2);  // the child's copy consumed frames
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  return 0;
}

// --- cross-cutting -------------------------------------------------------

std::int64_t t_shell_script(ISys& sys) {
  // Run the canned shell script via fork+exec, like unixbench shell1.
  const std::int64_t pid = sys.fork([](ISys& c) {
    c.exec("/bin/sh_script");
    c.exit(99);
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  return 0;
}

std::int64_t t_exec_chain(ISys& sys) {
  // chain0 execs chain1 which execs true.
  const std::int64_t pid = sys.fork([](ISys& c) {
    c.exec("/bin/chain0");
    c.exit(99);
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  return 0;
}

std::int64_t t_pipe_between_execd_children(ISys& sys) {
  // Parent writes into a pipe; an exec'd child (the "wc" program) counts
  // bytes from the inherited fd published in the data store.
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  REQ_EQ(sys.ds_publish("suite.wc.fd", static_cast<std::uint64_t>(fds[0])), OK);
  const std::int64_t wfd = fds[1];
  const std::int64_t pid = sys.fork([wfd](ISys& c) {
    c.close(wfd);  // or the child would never see EOF on its read end
    c.exec("/bin/wc_fd");
    c.exit(99);
  });
  REQ(pid > 0);
  REQ_EQ(wr(sys, fds[1], "12345678"), 8);
  REQ_EQ(sys.close(fds[1]), OK);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 8);  // wc_fd exits with the byte count
  REQ_EQ(sys.close(fds[0]), OK);
  return 0;
}

std::int64_t t_file_passed_across_exec(ISys& sys) {
  const std::int64_t fd = sys.open("/tmp/xexec", O_CREAT | O_WRONLY);
  REQ(fd >= 0);
  REQ_EQ(wr(sys, fd, "payload"), 7);
  REQ_EQ(sys.close(fd), OK);
  const std::int64_t pid = sys.fork([](ISys& c) {
    c.exec("/bin/cat_size");  // stats /tmp/xexec, exits with its size
    c.exit(99);
  });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 7);
  REQ_EQ(sys.unlink("/tmp/xexec"), OK);
  return 0;
}

std::int64_t t_fork_storm_with_files(ISys& sys) {
  for (int round = 0; round < 4; ++round) {
    std::int64_t pids[4];
    for (int i = 0; i < 4; ++i) {
      pids[i] = sys.fork([i, round](ISys& c) {
        const std::string path = "/tmp/storm" + std::to_string(i);
        const std::int64_t f = c.open(path, O_CREAT | O_RDWR | O_TRUNC);
        if (f < 0) c.exit(1);
        if (wr(c, f, std::to_string(round)) < 1) c.exit(2);
        if (c.close(f) != OK) c.exit(3);
        c.exit(0);
      });
      if (pids[i] <= 0) return __LINE__;
    }
    for (int i = 0; i < 4; ++i) {
      std::int64_t s = -1;
      REQ(sys.wait_pid(0, &s) > 0);
      REQ_EQ(s, 0);
    }
  }
  for (int i = 0; i < 4; ++i) sys.unlink("/tmp/storm" + std::to_string(i));
  return 0;
}

std::int64_t t_kill_blocked_reader(ISys& sys) {
  // SIGKILL must terminate a child blocked inside a pipe read.
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  const std::int64_t pid = sys.fork([fds](ISys& c) {
    char b;
    rd(c, fds[0], &b, 1);  // blocks forever
    c.exit(0);
  });
  REQ(pid > 0);
  for (int i = 0; i < 5; ++i) sys.getpid();  // let the child block
  REQ_EQ(sys.kill(pid, kSigKill), OK);
  std::int64_t s = 0;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, -9);
  sys.close(fds[0]);
  sys.close(fds[1]);
  return 0;
}

std::int64_t t_uname_after_activity(ISys& sys) {
  for (int i = 0; i < 3; ++i) {
    std::string name;
    REQ_EQ(sys.uname(&name), OK);
    REQ(!name.empty());
    std::uint64_t t = 0;
    REQ_EQ(sys.times(&t), OK);
  }
  // Health monitoring: restart counts are queryable (non-negative). A
  // recovered component is healthy — a nonzero count is not a failure.
  for (std::int32_t ep : {2, 3, 4, 5}) {
    REQ(sys.rs_status(ep) >= 0);
  }
  return 0;
}

std::int64_t t_readdir_root(ISys& sys) {
  bool saw_bin = false, saw_tmp = false;
  for (std::uint64_t i = 0;; ++i) {
    std::string name;
    const std::int64_t r = sys.readdir("/", i, &name);
    if (r == E_NOENT) break;
    REQ(r > 0);
    if (name == "bin") saw_bin = true;
    if (name == "tmp") saw_tmp = true;
  }
  REQ(saw_bin && saw_tmp);
  return 0;
}

std::int64_t t_full_syscall_mix(ISys& sys) {
  // A little bit of everything, back to back (cross-server traffic).
  REQ(sys.getpid() > 0);
  const std::int64_t fd = sys.open("/tmp/mix", O_CREAT | O_RDWR);
  REQ(fd >= 0);
  REQ_EQ(wr(sys, fd, "mix"), 3);
  REQ_EQ(sys.ds_publish("suite.mix", 1), OK);
  const std::int64_t region = sys.mmap(4096);
  REQ(region > 0);
  const std::int64_t pid = sys.fork([](ISys& c) { c.exit(c.getuid() == 0 ? 0 : 1); });
  REQ(pid > 0);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  REQ_EQ(sys.munmap(region), OK);
  REQ(sys.rs_status(2) >= 0);  // RS answers status queries mid-mix
  REQ_EQ(sys.ds_delete("suite.mix"), OK);
  REQ_EQ(sys.close(fd), OK);
  REQ_EQ(sys.unlink("/tmp/mix"), OK);
  return 0;
}

std::int64_t t_error_codes_are_stable(ISys& sys) {
  // Programs rely on exact error values (E_CRASH handling depends on this).
  REQ_EQ(sys.open("/nope/nothere", O_RDONLY), E_NOENT);
  REQ_EQ(sys.kill(-5, 1000), E_INVAL);
  std::uint64_t v;
  REQ_EQ(sys.ds_retrieve("suite.nokey", &v), E_NOENT);
  REQ_EQ(sys.munmap(424242), E_INVAL);
  return 0;
}

}  // namespace

void add_misc_tests(std::vector<SuiteTest>& out) {
  auto add = [&out](const char* name, const char* group,
                    std::function<std::int64_t(os::ISys&)> body) {
    out.push_back(SuiteTest{name, group, std::move(body)});
  };
  add("ds-publish-retrieve", "ds", t_ds_publish_retrieve);
  add("ds-overwrite", "ds", t_ds_overwrite);
  add("ds-missing-key", "ds", t_ds_missing_key);
  add("ds-empty-key-invalid", "ds", t_ds_empty_key_invalid);
  add("ds-many-keys", "ds", t_ds_many_keys);
  add("ds-subscribe-notify", "ds", t_ds_subscribe_notify);
  add("ds-shared-across-procs", "ds", t_ds_shared_across_procs);
  add("ds-sys-release", "ds", t_ds_sys_release);
  add("mmap-munmap", "vm", t_mmap_munmap);
  add("mmap-zero-invalid", "vm", t_mmap_zero_invalid);
  add("mmap-regions-independent", "vm", t_mmap_regions_independent);
  add("meminfo-accounting", "vm", t_meminfo_accounting);
  add("brk-meminfo", "vm", t_brk_meminfo);
  add("exit-releases-memory", "vm", t_exit_releases_memory);
  add("fork-copies-address-space", "vm", t_fork_copies_address_space);
  add("shell-script", "cross", t_shell_script);
  add("exec-chain", "cross", t_exec_chain);
  add("pipe-into-execd-child", "cross", t_pipe_between_execd_children);
  add("file-across-exec", "cross", t_file_passed_across_exec);
  add("fork-storm-with-files", "cross", t_fork_storm_with_files);
  add("kill-blocked-reader", "cross", t_kill_blocked_reader);
  add("uname-after-activity", "cross", t_uname_after_activity);
  add("readdir-root", "cross", t_readdir_root);
  add("full-syscall-mix", "cross", t_full_syscall_mix);
  add("error-codes-stable", "cross", t_error_codes_are_stable);
}

}  // namespace osiris::workload
