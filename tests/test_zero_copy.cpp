// Zero-copy IPC tests (DESIGN.md §14): grant-span semantics against
// safecopy, round trips over the spec table's bulk rows, the MiniFs borrow
// path, and the IPC counters' surfacing in collect_metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "servers/msg_spec.hpp"
#include "servers/protocol.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

using namespace osiris;
using kernel::Access;
using kernel::Endpoint;
using kernel::Kernel;
using kernel::Message;
using os::ISys;
using os::OsInstance;

namespace {

class NullServer : public kernel::IServer {
 public:
  [[nodiscard]] std::string_view name() const override { return "null"; }
  std::optional<Message> dispatch(const Message&) override { return std::nullopt; }
};

class NullClient : public kernel::IClient {
 public:
  void on_reply(const Message&) override {}
  void on_notify(const Message&) override {}
};

struct GrantFixture : ::testing::Test {
  VirtualClock clock;
  Kernel kern{clock};
  NullServer server;
  NullClient client;
  Endpoint client_ep;

  void SetUp() override {
    kern.register_server(kernel::kVfsEp, &server);
    client_ep = kern.register_client(&client);
  }
};

}  // namespace

// --- grant spans: zero-copy semantics match safecopy ------------------------

TEST_F(GrantFixture, SpanIsDirectViewOfGrantRegion) {
  std::byte buf[256] = {};
  const kernel::GrantId g =
      kern.make_grant(client_ep, kernel::kVfsEp, buf, sizeof buf, Access::kWrite);
  std::int64_t err = kernel::OK;
  std::byte* span = kern.grant_span(kernel::kVfsEp, g, 16, 64, Access::kWrite, &err);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(err, kernel::OK);
  EXPECT_EQ(span, buf + 16) << "span must alias the granted memory, not a copy";
  std::memset(span, 0x7f, 64);
  EXPECT_EQ(buf[16], std::byte{0x7f});
  EXPECT_EQ(buf[79], std::byte{0x7f});
  EXPECT_EQ(kern.stats().grant_spans, 1u);

  kern.note_grant_bypass(kernel::kVfsEp, 64, /*dir=*/1);
  EXPECT_EQ(kern.stats().grant_bypass_bytes, 64u);
  EXPECT_EQ(kern.stats().safecopy_bytes, 0u) << "bypass must not masquerade as a safecopy";
}

TEST_F(GrantFixture, SpanRejectsExactlyWhatSafecopyRejects) {
  std::byte buf[64] = {};
  const kernel::GrantId g =
      kern.make_grant(client_ep, kernel::kVfsEp, buf, sizeof buf, Access::kRead);
  std::byte tmp[128] = {};

  // Grant smaller than the request: span fails with the same error safecopy
  // returns, which is what lets callers fall back to the staging path.
  std::int64_t span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 128, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kVfsEp, g, 0, tmp, 128));

  // Wrong access direction.
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 16, Access::kWrite, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_to(kernel::kVfsEp, g, 0, tmp, 16));

  // Wrong grantee.
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kPmEp, g, 0, 16, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kPmEp, g, 0, tmp, 16));

  // Revoked grant.
  kern.revoke_grant(g);
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 16, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kVfsEp, g, 0, tmp, 16));
  EXPECT_EQ(kern.stats().grant_spans, 0u) << "failed spans must not count as handouts";
}

// --- zero-copy through the OS stack: every bulk-eligible spec row -----------

namespace {

/// Spec rows that carry a grant argument — the bulk-eligible surface. Driven
/// from the table so a future bulk message type fails this test until it is
/// covered below.
std::vector<std::string> bulk_rows() {
  std::vector<std::string> rows;
  for (const servers::MsgSpec& s : servers::kMsgSpecTable) {
    if (std::strstr(s.doc, "grant") != nullptr) rows.emplace_back(s.name);
  }
  return rows;
}

}  // namespace

TEST(ZeroCopy, EveryBulkEligibleSpecRowRoundTripsThroughGrantSpans) {
  // If this assertion fires, a new grant-carrying row joined the table:
  // extend the body below to exercise it end to end.
  EXPECT_EQ(bulk_rows(), (std::vector<std::string>{"VFS_READ", "VFS_WRITE"}));

  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const std::size_t bulk = 3 * kernel::kMsgTextCap;

  std::uint64_t bypass_after_write = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/zc", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);

    // VFS_WRITE: payload travels grant -> cache with no staging copy.
    std::vector<std::byte> out(bulk);
    for (std::size_t i = 0; i < bulk; ++i) out[i] = static_cast<std::byte>(i * 7 + 3);
    ASSERT_EQ(sys.write(fd, out), static_cast<std::int64_t>(bulk));
    bypass_after_write = inst.kern().stats().grant_bypass_bytes;
    EXPECT_GE(bypass_after_write, bulk) << "VFS_WRITE did not take the zero-copy path";

    // VFS_READ: payload travels cache -> grant with no staging copy.
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    std::vector<std::byte> back(bulk);
    ASSERT_EQ(sys.read(fd, back), static_cast<std::int64_t>(bulk));
    EXPECT_EQ(back, out);
    EXPECT_GE(inst.kern().stats().grant_bypass_bytes, bypass_after_write + bulk)
        << "VFS_READ did not take the zero-copy path";
    EXPECT_EQ(sys.close(fd), kernel::OK);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GT(inst.kern().stats().grant_spans, 0u);
  EXPECT_EQ(inst.kern().stats().safecopy_bytes, 0u) << "file payloads must never stage";
}

TEST(ZeroCopy, InlineSizedPayloadsAlsoTakeTheSpan) {
  // There is no size threshold: a payload that would fit the inline message
  // text rides the grant span like any other.
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/small", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> buf(64, std::byte{0x11});
    ASSERT_EQ(sys.write(fd, buf), 64);
    EXPECT_EQ(inst.kern().stats().grant_bypass_bytes, 64u);
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    std::vector<std::byte> back(64);
    ASSERT_EQ(sys.read(fd, back), 64);
    EXPECT_EQ(back, buf);
    EXPECT_EQ(inst.kern().stats().grant_bypass_bytes, 128u);
    EXPECT_EQ(inst.kern().stats().safecopy_bytes, 0u);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

namespace {

/// A raw kernel client registered with VFS as a boot process, so a test can
/// send VFS requests whose grant and length disagree — which ISys never does.
class RawVfsClient : public kernel::IClient {
 public:
  RawVfsClient(OsInstance& inst, std::int32_t pid) : inst_(inst) {
    ep_ = inst.kern().register_client(this);
    inst.vfs().register_boot_proc(pid, ep_);
  }
  void on_reply(const Message& m) override {
    reply_ = m;
    waiting_ = false;
  }
  void on_notify(const Message&) override {}

  /// sendrec: run the machine until the reply lands.
  Message call(const Message& m) {
    waiting_ = true;
    inst_.kern().send(ep_, kernel::kVfsEp, m);
    while (waiting_) {
      if (!inst_.kern().dispatch_pending() && !inst_.clock().advance_to_next()) {
        ADD_FAILURE() << "request never answered";
        break;
      }
    }
    return reply_;
  }
  /// VFS_READ/VFS_WRITE of `len` bytes through a grant over `buf`.
  std::int64_t rw(std::uint32_t type, std::int64_t fd, std::span<std::byte> buf, std::size_t len) {
    const Access access = type == servers::VFS_READ ? Access::kWrite : Access::kRead;
    const kernel::GrantId g =
        inst_.kern().make_grant(ep_, kernel::kVfsEp, buf.data(), buf.size(), access);
    const Message r = call(servers::encode(type, fd, g, len));
    inst_.kern().revoke_grant(g);
    return r.sarg(0);
  }

 private:
  OsInstance& inst_;
  Endpoint ep_;
  bool waiting_ = false;
  Message reply_;
};

}  // namespace

TEST(ZeroCopy, ShortGrantReadFallsBackAndShortGrantWriteFails) {
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  RawVfsClient cli(inst, 77);
  const std::int64_t fd =
      cli.call(servers::encode_text(servers::VFS_OPEN, "/tmp/short",
                                    servers::O_CREAT | servers::O_RDWR))
          .sarg(0);
  ASSERT_GE(fd, 0);
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  ASSERT_EQ(cli.rw(servers::VFS_WRITE, fd, data, data.size()), 100);
  const std::uint64_t spans = inst.kern().stats().grant_spans;

  // A write whose grant is shorter than its length is refused up front,
  // exactly as safecopy_from refuses it.
  EXPECT_EQ(cli.rw(servers::VFS_WRITE, fd, std::span(data).first(30), 64), kernel::E_INVAL);
  EXPECT_EQ(inst.kern().stats().grant_spans, spans);

  // A read asking for 64 bytes through a 40-byte grant, with 40 bytes left
  // in the file: the span is refused, the staging fallback copies what was
  // read, and the read succeeds.
  ASSERT_EQ(cli.call(servers::encode(servers::VFS_LSEEK, fd, 60, 0)).sarg(0), 60);
  std::vector<std::byte> tail(40, std::byte{0xee});
  EXPECT_EQ(cli.rw(servers::VFS_READ, fd, tail, 64), 40);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), data.begin() + 60));
  EXPECT_EQ(inst.kern().stats().safecopy_bytes, 40u);

  // However long the request says the read is, the staging buffer holds at
  // most a whole file: a 1 TiB read of the same tail returns it.
  ASSERT_EQ(cli.call(servers::encode(servers::VFS_LSEEK, fd, 60, 0)).sarg(0), 60);
  std::fill(tail.begin(), tail.end(), std::byte{0xee});
  EXPECT_EQ(cli.rw(servers::VFS_READ, fd, tail, std::size_t{1} << 40), 40);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), data.begin() + 60));
  EXPECT_EQ(inst.kern().stats().safecopy_bytes, 80u);

  // The same short grant over a longer tail cannot hold what was read.
  ASSERT_EQ(cli.call(servers::encode(servers::VFS_LSEEK, fd, 0, 0)).sarg(0), 0);
  EXPECT_EQ(cli.rw(servers::VFS_READ, fd, tail, 64), kernel::E_INVAL);
}

TEST(ZeroCopy, CacheMissesMatchDiskReadsOnTheBorrowPath) {
  // A borrow that misses falls back to read_block, which fetches the block:
  // the miss is counted once, at the fetch, so every counted miss is one
  // device read.
  os::OsConfig cfg;
  cfg.cache_blocks = 4;
  OsInstance inst(cfg);
  inst.boot();
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/cold", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> buf(16 * fs::kBlockSize, std::byte{0x5c});
    ASSERT_EQ(sys.write(fd, buf), static_cast<std::int64_t>(buf.size()));
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    const std::uint64_t misses = inst.vfs().cache_stats().misses;
    const std::uint64_t reads = inst.disk().stats().reads;
    std::vector<std::byte> back(buf.size());
    ASSERT_EQ(sys.read(fd, back), static_cast<std::int64_t>(back.size()));
    EXPECT_EQ(back, buf);
    EXPECT_GT(inst.disk().stats().reads, reads) << "the read never went to disk";
    EXPECT_EQ(inst.vfs().cache_stats().misses - misses, inst.disk().stats().reads - reads);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

// --- MiniFs borrow path: contents match a byte model at any cache size ------

TEST(ZeroCopy, RandomizedFileOpsMatchReferenceModelAcrossCacheSizes) {
  // Random read/write/lseek sequences, mirrored against an in-memory byte
  // model, once with a 4-block cache (borrows miss and evict constantly) and
  // once with the default 64. This exercises the MiniFs peek path:
  // indirect-block borrows, partial-block RMW, full-block write-through,
  // holes from sparse lseek, and the borrow-invalidates-on-store rule.
  for (const std::size_t cache_blocks : {4u, 64u}) {
    os::OsConfig cfg;
    cfg.cache_blocks = cache_blocks;
    OsInstance inst(cfg);
    inst.boot();
    const auto outcome = inst.run([&](ISys& sys) {
      // Big enough that block 10+ goes through the indirect block.
      constexpr std::size_t kMax = 48 * 1024;
      std::vector<std::byte> model(kMax, std::byte{0});
      std::size_t model_size = 0;

      const std::int64_t fd = sys.open("/tmp/prop", servers::O_CREAT | servers::O_RDWR);
      ASSERT_GE(fd, 0);
      Rng rng(cache_blocks);
      std::uint8_t tint = 1;
      for (int op = 0; op < 150; ++op) {
        const std::size_t pos = rng.below(kMax);
        const std::size_t len = 1 + rng.below(std::min<std::uint64_t>(kMax - pos, 5000));
        ASSERT_EQ(sys.lseek(fd, static_cast<std::int64_t>(pos), 0),
                  static_cast<std::int64_t>(pos));
        if (rng.below(2) == 0) {
          std::vector<std::byte> w(len, static_cast<std::byte>(tint++));
          ASSERT_EQ(sys.write(fd, w), static_cast<std::int64_t>(len));
          std::memcpy(model.data() + pos, w.data(), len);
          model_size = std::max(model_size, pos + len);
        } else {
          std::vector<std::byte> r(len, std::byte{0xee});
          const std::int64_t n = sys.read(fd, r);
          const std::size_t expect_n = pos >= model_size ? 0 : std::min(len, model_size - pos);
          ASSERT_EQ(n, static_cast<std::int64_t>(expect_n)) << "op " << op;
          ASSERT_EQ(std::memcmp(r.data(), model.data() + pos, expect_n), 0)
              << "op " << op << " at pos " << pos;
        }
      }
      EXPECT_EQ(sys.close(fd), kernel::OK);
    });
    EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted) << "cache_blocks=" << cache_blocks;
  }
}

// --- metrics surfacing ------------------------------------------------------

TEST(FastPathMetrics, IpcCountersSurfaceInCollectMetrics) {
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const std::size_t bulk = 3 * kernel::kMsgTextCap;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/metrics", servers::O_CREAT | servers::O_RDWR);
    std::vector<std::byte> buf(bulk, std::byte{0x33});
    sys.write(fd, buf);
    sys.close(fd);
  });
  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);

  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_GT(m.kernel.queue_high_water, 0u);
  EXPECT_GT(m.kernel.grant_bypass_bytes, 0u);
  EXPECT_GT(m.kernel.grant_spans, 0u);

  const std::string report = m.report();
  EXPECT_NE(report.find("ipc: queue high-water"), std::string::npos);
  EXPECT_NE(report.find("zero-copy"), std::string::npos);
}

TEST(FastPathMetrics, QueueHighWaterTracksWithoutFlags) {
  // The high-water mark is substrate accounting, always live — a clean run
  // must report a sane depth.
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const auto outcome = inst.run([](ISys& sys) {
    for (int i = 0; i < 10; ++i) (void)sys.getpid();
  });
  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_GT(m.kernel.queue_high_water, 0u);
  EXPECT_EQ(m.kernel.grant_bypass_bytes, 0u);
}
