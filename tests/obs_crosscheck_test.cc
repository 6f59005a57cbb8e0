/**
 * @file
 * Differential observability test (the CounterPoint-style refutation
 * check): the simulator keeps two fully independent bookkeepings of
 * the same events —
 *
 *   1. the UPC histogram, a passive per-micro-address cycle count
 *      interpreted offline by upc/analyzer against the static control
 *      store map, and
 *   2. the obs counter fabric, incremented live at each component as
 *      the event happens;
 *
 * and for quantities both can see, the two must agree EXACTLY, on
 * every one of the paper's five workloads. Any divergence means the
 * attribution chain (cycle reporting, landmark addresses, analyzer
 * column rules) or the instrumentation is wrong — the counters refute
 * the histogram or vice versa, which is the point.
 */

#include <gtest/gtest.h>

#include "obs/counters.hh"
#include "sim/experiment.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "workload/profile.hh"

using namespace upc780;
using obs::Ev;

namespace
{

sim::ExperimentConfig
smallConfig()
{
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 9000;
    cfg.warmupInstructions = 1500;
    cfg.obs.counters = true;
    return cfg;
}

} // namespace

class ObsCrosscheck
    : public ::testing::TestWithParam<wkl::WorkloadProfile>
{};

TEST_P(ObsCrosscheck, HistogramAndCountersAgreeExactly)
{
    sim::ExperimentRunner runner(smallConfig());
    sim::WorkloadResult r = runner.runWorkload(GetParam());
    ASSERT_TRUE(r.ok) << r.error;

    const auto &img = ucode::microcodeImage();
    upc::HistogramAnalyzer an(r.histogram, img);

    // Instructions: decode-bucket count vs live I-Decode dispatches.
    EXPECT_EQ(an.instructions(), r.obs.value(Ev::IboxDecodes));

    // D-stream references: execution counts at read/write words vs the
    // EBOX's live classification of each completed memory cycle.
    EXPECT_EQ(an.readCycles(), r.obs.value(Ev::EboxMemReadCycles));
    EXPECT_EQ(an.writeCycles(), r.obs.value(Ev::EboxMemWriteCycles));

    // IB stalls: the four "insufficient bytes" landmark buckets vs the
    // EBOX's live stall returns.
    EXPECT_EQ(an.ibStallCycles(), r.obs.value(Ev::EboxIbStallCycles));

    // TB misses: miss-routine entry executions vs microtraps taken.
    // (Deliberately not the raw hardware lookup-miss counters, which
    // include speculative I-stream misses a redirect discards before
    // any service routine runs.)
    EXPECT_EQ(an.tbMissServices(false), r.obs.value(Ev::TbMissServicesD));
    EXPECT_EQ(an.tbMissServices(true), r.obs.value(Ev::TbMissServicesI));

    // Interrupts dispatched (Table 7's numerator).
    EXPECT_EQ(an.irqDispatches(), r.obs.value(Ev::IrqDispatches));

    // Stall cycles and total cycles: histogram totals vs the EBOX's
    // stall count and the monitor board's own observation count.
    EXPECT_EQ(r.histogram.totalStalls(), r.obs.value(Ev::EboxStallCycles));
    EXPECT_EQ(r.histogram.totalCycles(), r.obs.value(Ev::UpcCycles));
    EXPECT_EQ(r.histogram.totalStalls(),
              r.obs.value(Ev::UpcStallCycles));

    // Cycle-conservation identity: every counted (non-stall) cycle is
    // exactly one of executed-uop / IB-stall / abort / halt.
    EXPECT_EQ(r.histogram.totalCounts(),
              r.obs.value(Ev::EboxUops) +
                  r.obs.value(Ev::EboxIbStallCycles) +
                  r.obs.value(Ev::EboxAborts) +
                  r.obs.value(Ev::EboxHaltCycles));

    // The histogram-derived per-instruction reference rates (Table 5)
    // must be the integer counts above divided by instructions —
    // i.e. the double-valued table path and the integer path agree.
    double instr = static_cast<double>(an.instructions());
    ASSERT_GT(instr, 0);
    upc::RefRow refs = an.refsTotal();
    EXPECT_NEAR(refs.reads * instr,
                static_cast<double>(an.readCycles()), 1e-6 * instr);
    EXPECT_NEAR(refs.writes * instr,
                static_cast<double>(an.writeCycles()), 1e-6 * instr);

    // The gated window sits inside the measurement interval, whose
    // ungated deltas are the hardware counters.
    EXPECT_EQ(r.obs.value(Ev::UpcCycles), r.cycles);
    EXPECT_GT(r.obs.value(Ev::EboxUops), 0u);
    for (const sim::HwField &f : sim::HwFields)
        EXPECT_GE(r.hw.*f.member, r.obs.value(f.ev)) << f.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, ObsCrosscheck,
    ::testing::ValuesIn(wkl::paperWorkloads()),
    [](const ::testing::TestParamInfo<wkl::WorkloadProfile> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });
