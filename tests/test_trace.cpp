// Unit and property tests for the tracing subsystem proper: EventRing
// flight-recorder semantics, Tracer sequencing/merging, and the exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/clock.hpp"
#include "trace/export.hpp"
#include "trace/ring.hpp"
#include "trace/tracer.hpp"

using namespace osiris;
using trace::Event;
using trace::EventKind;
using trace::EventRing;
using trace::Tracer;

namespace {

Event ev(std::uint64_t seq, std::uint64_t a0 = 0) {
  Event e;
  e.seq = seq;
  e.comp = 0;
  e.kind = EventKind::kIpcSend;
  e.a0 = a0;
  return e;
}

std::vector<std::uint64_t> seqs(const EventRing& ring) {
  std::vector<Event> out;
  ring.snapshot(out);
  std::vector<std::uint64_t> s;
  for (const Event& e : out) s.push_back(e.seq);
  return s;
}

}  // namespace

TEST(EventRing, FillsToCapacityWithoutDropping) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) ring.push(ev(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.high_water(), 4u);
  EXPECT_EQ(seqs(ring), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(EventRing, WraparoundKeepsNewestAndCountsDrops) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(ev(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);  // events 0..5 were overwritten
  // Snapshot is oldest-first and holds exactly the newest four.
  EXPECT_EQ(seqs(ring), (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(EventRing, WraparoundPropertyManySizes) {
  // Property: after n pushes into a ring of capacity c, the ring retains the
  // last min(n, c) events in order and dropped() == max(0, n - c).
  for (std::size_t cap = 1; cap <= 9; ++cap) {
    for (std::uint64_t n = 0; n <= 40; ++n) {
      EventRing ring(cap);
      for (std::uint64_t i = 0; i < n; ++i) ring.push(ev(i));
      const std::uint64_t kept = std::min<std::uint64_t>(n, cap);
      ASSERT_EQ(ring.size(), kept) << "cap=" << cap << " n=" << n;
      ASSERT_EQ(ring.dropped(), n - kept) << "cap=" << cap << " n=" << n;
      const auto got = seqs(ring);
      for (std::uint64_t i = 0; i < kept; ++i) {
        ASSERT_EQ(got[i], n - kept + i) << "cap=" << cap << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(EventRing, ZeroCapacityCountsEverythingAsDropped) {
  EventRing ring(0);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(ev(i));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 5u);
  EXPECT_EQ(ring.high_water(), 0u);
  std::vector<Event> out;
  ring.snapshot(out);
  EXPECT_TRUE(out.empty());
}

TEST(EventRing, ClearForgetsRecordsButKeepsAccounting) {
  EventRing ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(ev(i));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.dropped(), 2u);      // history of loss survives the clear
  EXPECT_EQ(ring.high_water(), 3u);   // as does the memory high-water mark
  ring.push(ev(100));
  EXPECT_EQ(seqs(ring), (std::vector<std::uint64_t>{100}));
}

TEST(Tracer, StampsSequenceTickAndComponent) {
  VirtualClock clock;
  Tracer tracer(clock, 16);
  tracer.emit(EventKind::kWindowOpen, 2);
  clock.spin(7);
  tracer.emit(EventKind::kWindowClose, 2, 1);
  const auto events = tracer.merged();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].tick, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].tick, 7u);
  EXPECT_EQ(events[1].comp, 2);
  EXPECT_EQ(events[1].a0, 1u);
}

TEST(Tracer, MergedInterleavesRingsInEmissionOrder) {
  VirtualClock clock;
  Tracer tracer(clock, 16);
  tracer.emit(EventKind::kIpcSend, 0);
  tracer.emit(EventKind::kWindowOpen, 3);
  tracer.emit(EventKind::kIpcDeliver, 0);
  tracer.emit(EventKind::kWindowClose, 3);
  const auto events = tracer.merged();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // the merge is the total emission order
  }
  EXPECT_EQ(events[1].comp, 3);
  EXPECT_EQ(events[2].comp, 0);
}

TEST(Tracer, NegativeComponentIsIgnored) {
  VirtualClock clock;
  Tracer tracer(clock, 16);
  tracer.emit(EventKind::kUndoAppend, -1, 8);  // standalone harness log
  EXPECT_EQ(tracer.events_emitted(), 0u);
  EXPECT_TRUE(tracer.merged().empty());
}

TEST(Tracer, PerComponentRingsOverflowIndependently) {
  VirtualClock clock;
  Tracer tracer(clock, 2);  // tiny rings
  for (int i = 0; i < 5; ++i) tracer.emit(EventKind::kIpcSend, 0);
  tracer.emit(EventKind::kWindowOpen, 3);
  ASSERT_NE(tracer.ring(0), nullptr);
  ASSERT_NE(tracer.ring(3), nullptr);
  EXPECT_EQ(tracer.ring(0)->dropped(), 3u);
  EXPECT_EQ(tracer.ring(3)->dropped(), 0u);
  EXPECT_EQ(tracer.total_dropped(), 3u);
  // The merge still interleaves correctly: the retained kernel events carry
  // larger seq than nothing — order is by seq regardless of drops.
  const auto events = tracer.merged();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 3u);
  EXPECT_EQ(events[2].comp, 3);
}

TEST(Tracer, ActiveExchangeNestsLikeAScope) {
  VirtualClock clock;
  Tracer outer(clock, 8);
  Tracer inner(clock, 8);
  ASSERT_EQ(Tracer::active(), nullptr);

  Tracer* prev0 = Tracer::exchange_active(&outer);
  EXPECT_EQ(prev0, nullptr);
  trace::emit_active(EventKind::kIpcSend, 0);

  Tracer* prev1 = Tracer::exchange_active(&inner);
  EXPECT_EQ(prev1, &outer);
  trace::emit_active(EventKind::kIpcSend, 0);
  Tracer::exchange_active(prev1);

  trace::emit_active(EventKind::kIpcSend, 0);
  Tracer::exchange_active(prev0);
  trace::emit_active(EventKind::kIpcSend, 0);  // no active tracer: a no-op

  EXPECT_EQ(outer.events_emitted(), 2u);
  EXPECT_EQ(inner.events_emitted(), 1u);
  EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(TraceExport, TextFormatsOneLinePerEventWithLabels) {
  VirtualClock clock;
  Tracer tracer(clock, 8);
  tracer.set_component_name(0, "kernel");
  tracer.emit(EventKind::kIpcSend, 0, 1, 2, 3);
  clock.spin(5);
  tracer.emit(EventKind::kWindowOpen, 4);
  const std::string text = trace::format_text(tracer.merged(), tracer);
  EXPECT_NE(text.find("IpcSend"), std::string::npos);
  EXPECT_NE(text.find("kernel"), std::string::npos);
  EXPECT_NE(text.find("ep4"), std::string::npos);  // unnamed component fallback
  EXPECT_NE(text.find("@5"), std::string::npos);
  // Unsequenced variant drops the leading seq column but keeps the rest.
  const std::string unseq = trace::format_text_unsequenced(tracer.merged(), tracer);
  EXPECT_NE(unseq.find("WindowOpen"), std::string::npos);
  ASSERT_FALSE(unseq.empty());
  EXPECT_EQ(unseq[0], '@');  // every line starts at the tick, no seq column
  EXPECT_NE(unseq.find("\n@"), std::string::npos);
}

TEST(TraceExport, ChromeJsonPairsWindowSpansAndNamesThreads) {
  VirtualClock clock;
  Tracer tracer(clock, 8);
  tracer.set_component_name(2, "pm");
  tracer.emit(EventKind::kWindowOpen, 2);
  clock.spin(3);
  tracer.emit(EventKind::kWindowClose, 2, 0);
  tracer.emit(EventKind::kFaultFire, 2, 17, 1);
  const std::string json = trace::to_chrome_json(tracer.merged(), tracer);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);  // window open = span begin
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);  // window close = span end
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // fault = instant
  EXPECT_NE(json.find("recovery-window"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pm\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"cause\":\"seep\""), std::string::npos);
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}
