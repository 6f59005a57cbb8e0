/**
 * @file
 * Integer-width audit of the counting path. The paper's production
 * measurements ran for days; at 5 MHz a weekend is ~2^31 cycles, so
 * any 32-bit accumulator between the memory system and the analyzer
 * is a time bomb. These tests pin the widths with static_asserts (a
 * regression to uint32_t fails to *compile*) and exercise the
 * first-to-wrap spots with values beyond 2^32.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>

#include "mem/memsys.hh"
#include "mem/sbi.hh"
#include "mem/writebuffer.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "upc/histogram.hh"
#include "upc/monitor.hh"

using namespace upc780;

// ----- width locks ------------------------------------------------------
// Every accumulator a histogram count or stall cycle flows through must
// be 64-bit. decltype-based so a narrowing refactor breaks the build.

static_assert(std::is_same_v<decltype(mem::MemResult::stallCycles),
                             uint64_t>,
              "per-access stall counts feed histogram stall buckets "
              "and must be 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<mem::WriteBuffer>().issue(0)),
                   uint64_t>,
    "write-buffer stall cycles must be 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<const upc::Histogram>().count(0)),
                   uint64_t>,
    "histogram execution counters must be 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<const upc::Histogram>().stall(0)),
                   uint64_t>,
    "histogram stall counters must be 64-bit");
static_assert(
    std::is_same_v<
        decltype(std::declval<const upc::UpcMonitor>().observedCycles()),
        uint64_t>,
    "the monitor's cycle count must be 64-bit");
static_assert(std::is_same_v<decltype(sim::WorkloadResult::cycles),
                             uint64_t>,
              "workload cycle totals must be 64-bit");
static_assert(std::is_same_v<decltype(sim::HwCounters::writeStallCycles),
                             uint64_t>,
              "hardware stall counters must be 64-bit");

// The obs fabric is the only count of the hardware events and a
// second, independent bookkeeping of the cycles the histogram sees —
// both its views must be 64-bit.
static_assert(
    std::is_same_v<
        decltype(std::declval<const obs::CounterRegistry>().value(
            obs::Ev::EboxUops)),
        uint64_t>,
    "obs event windows must be 64-bit");
static_assert(
    std::is_same_v<
        decltype(std::declval<const obs::CounterRegistry>().total(
            obs::Ev::EboxUops)),
        uint64_t>,
    "obs event totals must be 64-bit");
static_assert(std::is_same_v<decltype(obs::Snapshot::counters),
                             std::array<uint64_t, obs::NumEvents>>,
              "obs snapshots must carry 64-bit counters");
static_assert(std::is_same_v<decltype(obs::TraceEvent::ts), uint64_t>,
              "trace timestamps are machine cycles and must be 64-bit");

namespace
{

constexpr uint64_t Big = (uint64_t(1) << 32) + 12345;  // wraps a uint32

} // namespace

TEST(CounterWidth, HistogramBucketHoldsPast32Bits)
{
    // The offline data-reduction path: a board readout whose counters
    // exceed 32 bits must round-trip exactly. With uint32_t buckets
    // this comes back as 12345.
    std::string path = testing::TempDir() + "/upc780_big_histogram.txt";
    {
        FILE *f = fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        fprintf(f, "upc780-histogram v1\n");
        fprintf(f, "1 %llu %llu\n", static_cast<unsigned long long>(Big),
                static_cast<unsigned long long>(Big + 7));
        fclose(f);
    }

    upc::Histogram h;
    ASSERT_TRUE(h.loadFrom(path));
    EXPECT_EQ(h.count(1), Big);
    EXPECT_EQ(h.stall(1), Big + 7);
    EXPECT_EQ(h.totalCycles(), Big + Big + 7);
    remove(path.c_str());
}

TEST(CounterWidth, HistogramAccumulateCrosses32Bits)
{
    // Composite experiments sum per-workload histograms (§2.2); the
    // sum is the first place a wrap would surface.
    std::string path = testing::TempDir() + "/upc780_half_histogram.txt";
    constexpr uint64_t half = uint64_t(1) << 31;
    {
        FILE *f = fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        fprintf(f, "upc780-histogram v1\n");
        fprintf(f, "2 %llu 0\n", static_cast<unsigned long long>(half));
        fclose(f);
    }

    upc::Histogram sum, part;
    ASSERT_TRUE(part.loadFrom(path));
    for (int i = 0; i < 3; ++i)
        sum.accumulate(part);
    EXPECT_EQ(sum.count(2), 3 * half);  // > 2^32
    EXPECT_GT(sum.count(2), uint64_t(UINT32_MAX));
    remove(path.c_str());
}

TEST(CounterWidth, WriteBufferStallSurvivesPast32Bits)
{
    // A write that finds the buffer busy stalls for (drain - now)
    // cycles. Force that difference beyond 2^32: under the old
    // uint32_t return this truncated silently.
    obs::CounterRegistry n;
    mem::Sbi sbi{mem::SbiConfig{}};
    mem::WriteBuffer wb(n, sbi, 1);

    uint64_t far_future = uint64_t(1) << 33;
    EXPECT_EQ(wb.issue(far_future), 0u);  // buffer empty, no stall

    uint64_t stall = wb.issue(0);  // drain time is ~2^33 away
    EXPECT_GT(stall, uint64_t(UINT32_MAX));
    EXPECT_EQ(n.total(obs::Ev::WbStallCycles), stall);
}

TEST(CounterWidth, ObsRegistryCrosses32Bits)
{
    // Bulk-add path (e.g. WbStallCycles adds whole stall runs at
    // once): one add can carry the registry straight past 2^32, in the
    // ungated total and in the window alike.
    obs::CounterRegistry reg;
    reg.add(obs::Ev::WbStallCycles, Big);  // gate closed: total only
    reg.setEnabled(true);
    reg.add(obs::Ev::WbStallCycles, Big);
    reg.bump(obs::Ev::WbStallCycles);
    reg.setEnabled(false);
    EXPECT_EQ(reg.value(obs::Ev::WbStallCycles), Big + 1);
    EXPECT_GT(reg.value(obs::Ev::WbStallCycles),
              uint64_t(UINT32_MAX));
    EXPECT_EQ(reg.total(obs::Ev::WbStallCycles), 2 * Big + 1);

    // A window opened past 2^32 subtracts exactly.
    reg.setEnabled(true);
    reg.add(obs::Ev::WbStallCycles, 5);
    EXPECT_EQ(reg.value(obs::Ev::WbStallCycles), Big + 6);
    EXPECT_EQ(reg.total(obs::Ev::WbStallCycles), 2 * Big + 6);
}

TEST(CounterWidth, ObsSnapshotAccumulateCrosses32Bits)
{
    // The composite result sums per-workload snapshots exactly like
    // Histogram::accumulate; the sum is the first place a 32-bit
    // element would wrap.
    constexpr uint64_t half = uint64_t(1) << 31;
    obs::CounterRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::Ev::UpcCycles, half);

    obs::Snapshot part = reg.snapshot();
    obs::Snapshot sum;
    for (int i = 0; i < 3; ++i)
        sum.accumulate(part);
    EXPECT_EQ(sum.value(obs::Ev::UpcCycles), 3 * half);  // > 2^32
    EXPECT_GT(sum.value(obs::Ev::UpcCycles), uint64_t(UINT32_MAX));
}
