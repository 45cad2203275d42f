// Parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  - the full policy x instrumentation-mode matrix must run a compact
//    workload to completion with identical observable results;
//  - MiniFS must work across device geometries and inode-table sizes;
//  - pipe transfers must preserve data for every chunk size across the
//    4 KiB ring buffer, including wrap-around.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "fs/direct_store.hpp"
#include "fs/minifs.hpp"
#include "os/instance.hpp"
#include "workload/suite.hpp"

using namespace osiris;
using os::ISys;

// --- policy x mode matrix ----------------------------------------------

namespace {

using PolicyMode = std::tuple<seep::Policy, ckpt::Mode>;

class PolicyModeP : public ::testing::TestWithParam<PolicyMode> {};

std::string compact_workload(os::OsInstance& inst) {
  std::string trace;
  const auto outcome = inst.run([&trace](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/pm", servers::O_CREAT | servers::O_RDWR);
    trace += std::to_string(fd >= 0);
    trace += std::to_string(sys.write_str(fd, "matrix"));
    const std::int64_t pid = sys.fork([](ISys& c) { c.exit(3); });
    std::int64_t s = -1;
    trace += std::to_string(sys.wait_pid(pid, &s) == pid ? s : -1);
    std::int64_t p[2];
    trace += std::to_string(sys.pipe(p) == kernel::OK);
    sys.write_str(p[1], "zz");
    char b[2];
    trace += std::to_string(sys.read(p[0], std::as_writable_bytes(std::span<char>(b, 2))));
    trace += std::to_string(sys.ds_publish("m.k", 5) == kernel::OK);
    std::uint64_t v = 0;
    sys.ds_retrieve("m.k", &v);
    trace += std::to_string(v);
    trace += std::to_string(sys.close(fd) == kernel::OK);
  });
  EXPECT_EQ(outcome, os::OsInstance::Outcome::kCompleted);
  return trace;
}

}  // namespace

TEST_P(PolicyModeP, CompactWorkloadIdenticalAcrossMatrix) {
  // Reference trace: uninstrumented enhanced configuration, computed once.
  static const std::string reference = [] {
    os::OsConfig ref_cfg;
    ref_cfg.ckpt_mode = ckpt::Mode::kOff;
    os::OsInstance ref(ref_cfg);
    workload::register_suite_programs(ref.programs());
    ref.boot();
    return compact_workload(ref);
  }();
  ASSERT_FALSE(reference.empty());

  const auto [policy, mode] = GetParam();
  os::OsConfig cfg;
  cfg.policy = policy;
  cfg.ckpt_mode = mode;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  EXPECT_EQ(compact_workload(inst), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyModeP,
    ::testing::Combine(::testing::Values(seep::Policy::kStateless, seep::Policy::kNaive,
                                         seep::Policy::kPessimistic, seep::Policy::kEnhanced),
                       ::testing::Values(ckpt::Mode::kOff, ckpt::Mode::kAlways,
                                         ckpt::Mode::kWindowOnly)),
    [](const ::testing::TestParamInfo<PolicyMode>& info) {
      return std::string(seep::policy_name(std::get<0>(info.param))) + "_mode" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// --- MiniFS geometry sweep ---------------------------------------------

namespace {
struct FsGeometry {
  std::size_t blocks;
  std::uint32_t inodes;
};
// gtest's default printer would dump the struct's bytes, padding included,
// into the ctest names, which would then differ from one build to the next.
void PrintTo(const FsGeometry& g, std::ostream* os) {
  *os << g.blocks << " blocks, " << g.inodes << " inodes";
}
class FsGeometryP : public ::testing::TestWithParam<FsGeometry> {};
}  // namespace

TEST_P(FsGeometryP, FormatPopulateVerify) {
  const auto [blocks, inodes] = GetParam();
  VirtualClock clock;
  fs::BlockDevice dev(clock, blocks);
  fs::MiniFs::mkfs(dev, inodes);
  fs::DirectStore store(dev);
  fs::MiniFs mfs(store);
  ASSERT_EQ(mfs.mount(), kernel::OK);
  EXPECT_EQ(mfs.super().ninodes, inodes);

  // Create as many files as fit (bounded by inodes and directory space).
  std::vector<fs::Ino> created;
  for (std::uint32_t i = 0; i < inodes + 4; ++i) {
    const std::int64_t ino =
        mfs.create(fs::kRootIno, "f" + std::to_string(i), fs::FileType::kRegular);
    if (ino < 0) {
      EXPECT_TRUE(ino == kernel::E_NOSPC) << ino;
      break;
    }
    created.push_back(static_cast<fs::Ino>(ino));
  }
  // One inode is the root directory.
  EXPECT_LE(created.size(), static_cast<std::size_t>(inodes) - 1);
  EXPECT_GE(created.size(), std::min<std::size_t>(inodes - 1, 8));

  // Every created file stores and returns its own index.
  for (std::size_t i = 0; i < created.size(); ++i) {
    const std::string payload = "payload-" + std::to_string(i);
    ASSERT_EQ(mfs.write(created[i], 0,
                        std::as_bytes(std::span<const char>(payload.data(), payload.size()))),
              static_cast<std::int64_t>(payload.size()));
  }
  for (std::size_t i = 0; i < created.size(); ++i) {
    const std::string want = "payload-" + std::to_string(i);
    std::string got(want.size(), '?');
    ASSERT_EQ(mfs.read(created[i], 0,
                       std::as_writable_bytes(std::span<char>(got.data(), got.size()))),
              static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, FsGeometryP,
                         ::testing::Values(FsGeometry{64, 16}, FsGeometry{256, 32},
                                           FsGeometry{1024, 64}, FsGeometry{4096, 224},
                                           FsGeometry{8192, 512}),
                         [](const ::testing::TestParamInfo<FsGeometry>& info) {
                           return "b" + std::to_string(info.param.blocks) + "_i" +
                                  std::to_string(info.param.inodes);
                         });

// --- pipe chunk-size sweep ----------------------------------------------

namespace {
class PipeChunkP : public ::testing::TestWithParam<std::size_t> {};
}  // namespace

TEST_P(PipeChunkP, RoundTripPreservesBytesAcrossWraparound) {
  const std::size_t chunk = GetParam();
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto outcome = inst.run([chunk](ISys& sys) {
    std::int64_t p[2];
    if (sys.pipe(p) != kernel::OK) sys.exit(1);
    // Transfer ~3 buffer-loads so the ring wraps several times.
    const std::size_t total = 3 * 4096 / chunk * chunk;
    std::vector<std::byte> out(chunk);
    std::vector<std::byte> in(chunk);
    std::uint8_t counter = 0;
    for (std::size_t sent = 0; sent < total; sent += chunk) {
      for (auto& b : out) b = std::byte{counter++};
      std::size_t done = 0;
      while (done < chunk) {
        const std::int64_t n =
            sys.write(p[1], std::span<const std::byte>(out.data() + done, chunk - done));
        if (n <= 0) sys.exit(2);
        done += static_cast<std::size_t>(n);
        // Drain to keep the pipe from filling (single-process test).
        std::size_t got = 0;
        while (got < done) {
          const std::int64_t m =
              sys.read(p[0], std::span<std::byte>(in.data() + got, done - got));
          if (m <= 0) sys.exit(3);
          got += static_cast<std::size_t>(m);
        }
        if (std::memcmp(in.data(), out.data(), done) != 0) sys.exit(4);
        done = chunk;  // single write covers the chunk in this regime
      }
    }
    sys.close(p[0]);
    sys.close(p[1]);
  });
  EXPECT_EQ(outcome, os::OsInstance::Outcome::kCompleted);
}

INSTANTIATE_TEST_SUITE_P(Chunks, PipeChunkP, ::testing::Values(1, 7, 64, 512, 1024, 4096));
