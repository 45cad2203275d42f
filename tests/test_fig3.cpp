// Figure 3 pinned: every faulted cell of the disruption sweep completes, and
// completes exactly the work units recorded here.
//
// The cells are deterministic (virtual time, seeded faults), so the work a
// workload completes under a given fault influx is exact; only the host
// scores that bench/fig3_disruption prints from them vary. Each cell runs
// once, at the bench's iteration count, through the same runner.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "workload/unixbench.hpp"

using namespace osiris;

namespace {

struct Fig3Row {
  const char* workload;
  /// Completed work units per interval of workload::kFig3Intervals.
  std::array<std::uint64_t, workload::kFig3Intervals.size()> units;
};

void PrintTo(const Fig3Row& row, std::ostream* os) { *os << row.workload; }

// At interval 1 every PM request faults, so no fork, exec or getpid ever
// succeeds: the PM-dependent rows complete nothing there, but still complete.
// Intervals:                 10000    1000     100      30      10       3       1
constexpr Fig3Row kRows[] = {
    {"dhry2reg",         {200000, 200000, 200000, 200000, 200000, 200000, 200000}},
    {"whetstone-double", {300000, 300000, 300000, 300000, 300000, 300000, 300000}},
    {"execl",            {   300,    300,    300,    300,    300,    300,      0}},
    {"fstime",           {   300,    300,    300,    300,    300,    300,    300}},
    {"fsbuffer",         {   300,    300,    300,    300,    300,    300,    300}},
    {"fsdisk",           {    75,     75,     75,     75,     75,     75,     75}},
    {"pipe",             {  6000,   6000,   6000,   6000,   6000,   6000,   6000}},
    {"context1",         {  3000,   3000,   3000,   3000,   3000,   3000,      0}},
    {"spawn",            {   400,    400,    400,    400,    400,    400,      0}},
    {"syscall",          { 25000,  25000,  25000,  25000,  25000,  25000,      0}},
    {"shell1",           {    75,     75,     75,     62,      1,      1,      0}},
    {"shell8",           {    93,     92,     88,     92,     59,      0,      0}},
};

class Fig3CellsP : public ::testing::TestWithParam<Fig3Row> {};

}  // namespace

TEST_P(Fig3CellsP, EveryCellCompletesItsRecordedUnits) {
  const Fig3Row& row = GetParam();
  const workload::UbWorkload& w = workload::ub_workload(row.workload);
  fi::Site* site = workload::pm_entry_site();
  for (std::size_t i = 0; i < workload::kFig3Intervals.size(); ++i) {
    const std::uint64_t interval = workload::kFig3Intervals[i];
    const workload::Fig3Cell cell = workload::run_fig3_cell(w, site, interval);
    EXPECT_EQ(cell.outcome, os::OsInstance::Outcome::kCompleted) << "interval " << interval;
    EXPECT_EQ(cell.completed, row.units[i]) << "interval " << interval;
  }
}

INSTANTIATE_TEST_SUITE_P(Fig3, Fig3CellsP, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Fig3Row>& info) {
                           std::string name = info.param.workload;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });
