/**
 * @file
 * End-to-end experiment-harness tests: a full workload measurement
 * produces self-consistent statistics, composites sum correctly, the
 * idle exclusion matches the paper's methodology, and results are
 * reproducible.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/experiment.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

sim::ExperimentConfig
smallConfig()
{
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 20000;
    cfg.warmupInstructions = 4000;
    return cfg;
}

} // namespace

TEST(Experiment, MeetsInstructionBudget)
{
    sim::ExperimentRunner runner(smallConfig());
    auto p = wkl::timesharing1Profile();
    p.users = 6;
    auto r = runner.runWorkload(p);
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    EXPECT_GE(an.instructions(), 20000u);
    EXPECT_LT(an.instructions(), 21000u);  // stops promptly
    EXPECT_EQ(r.cycles, r.histogram.totalCycles());
}

TEST(Experiment, CpiInPlausibleBand)
{
    sim::ExperimentRunner runner(smallConfig());
    auto r = runner.runWorkload(wkl::educationalProfile());
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    // The 780's measured 10.6; any healthy configuration of this model
    // lands well within a factor of two.
    EXPECT_GT(an.cpi(), 5.0);
    EXPECT_LT(an.cpi(), 21.0);
}

TEST(Experiment, CompositeSumsWorkloads)
{
    sim::ExperimentRunner runner(smallConfig());
    auto profiles = std::vector<wkl::WorkloadProfile>{
        wkl::timesharing1Profile(), wkl::commercialProfile()};
    profiles[0].users = 5;
    profiles[1].users = 5;
    auto c = runner.runComposite(profiles);
    ASSERT_EQ(c.workloads.size(), 2u);
    EXPECT_EQ(c.instructions(),
              upc::HistogramAnalyzer(c.workloads[0].histogram,
                                     ucode::microcodeImage())
                      .instructions() +
                  upc::HistogramAnalyzer(c.workloads[1].histogram,
                                         ucode::microcodeImage())
                      .instructions());
    EXPECT_EQ(c.hw.dReads, c.workloads[0].hw.dReads +
                               c.workloads[1].hw.dReads);
}

TEST(Experiment, Reproducible)
{
    sim::ExperimentRunner r1(smallConfig()), r2(smallConfig());
    auto p = wkl::scientificProfile();
    p.users = 5;
    auto a = r1.runWorkload(p);
    auto b = r2.runWorkload(p);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.hw.dReadMisses, b.hw.dReadMisses);
    EXPECT_EQ(a.osStats.contextSwitches, b.osStats.contextSwitches);
}

TEST(Experiment, IdleExclusionMatchesPaperMethod)
{
    // With one user, a short program and long think times, the
    // machine idles between sessions. Excluding the Null process (the
    // default, as in the paper) must yield a lower per-instruction
    // cycle count than including it, and must not count the idle
    // loop's instructions.
    auto p = wkl::timesharing1Profile();
    p.users = 1;
    p.codeBlocks = 20;  // short enough to reach terminal wait
    p.thinkMeanCycles = 150000;

    sim::ExperimentConfig cfg = smallConfig();
    cfg.instructionsPerWorkload = 8000;
    cfg.warmupInstructions = 1000;

    cfg.excludeIdle = true;
    auto excl = sim::ExperimentRunner(cfg).runWorkload(p);
    cfg.excludeIdle = false;
    auto incl = sim::ExperimentRunner(cfg).runWorkload(p);

    // The idle loop's branch-to-self instructions fill the budget
    // cheaply, so the inclusive measurement ends sooner.
    EXPECT_GT(excl.osStats.contextSwitches, incl.osStats.contextSwitches);
    EXPECT_GT(excl.cycles, incl.cycles);

    upc::HistogramAnalyzer ax(excl.histogram,
                              ucode::microcodeImage());
    upc::HistogramAnalyzer ai(incl.histogram,
                              ucode::microcodeImage());
    // ...and inflate the SIMPLE group, lowering measured CPI (the bias
    // the paper removed it to avoid).
    auto fx = ax.opcodeGroupFrequency();
    auto fi = ai.opcodeGroupFrequency();
    EXPECT_GT(fi[size_t(arch::Group::Simple)],
              fx[size_t(arch::Group::Simple)]);
    EXPECT_GT(ax.cpi(), ai.cpi());

    // Two windows: the hardware counters span the whole measurement,
    // Null process included, while the obs window is gated with the
    // monitor. They differ exactly when the Null process was excluded.
    EXPECT_GT(excl.hw.ibFills, excl.obs.value(obs::Ev::IbFills));
    for (const sim::HwField &f : sim::HwFields) {
        EXPECT_GE(excl.hw.*f.member, excl.obs.value(f.ev)) << f.name;
        EXPECT_EQ(incl.hw.*f.member, incl.obs.value(f.ev)) << f.name;
    }
}

TEST(Experiment, HardwareCountersMoveTogether)
{
    sim::ExperimentRunner runner(smallConfig());
    auto r = runner.runWorkload(wkl::timesharing2Profile());
    // Reads seen by the cache = D-stream reads + IB refills; both
    // sides of the hierarchy must have been exercised.
    EXPECT_GT(r.hw.dReads, 0u);
    EXPECT_GT(r.hw.iReads, 0u);
    EXPECT_GT(r.hw.writes, 0u);
    EXPECT_GE(r.hw.dReads, r.hw.dReadMisses);
    EXPECT_GE(r.hw.iReads, r.hw.iReadMisses);
    EXPECT_GT(r.hw.tbDMisses, 0u);
    EXPECT_GT(r.hw.ibFills, 0u);
}

TEST(Experiment, TbMissServiceLengthStable)
{
    sim::ExperimentRunner runner(smallConfig());
    auto r = runner.runWorkload(wkl::commercialProfile());
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    auto tb = an.tbMisses();
    ASSERT_GT(tb.missesPerInstr, 0.0);
    // The service routine is ~20 compute cycles plus PTE-read stalls.
    EXPECT_GT(tb.cyclesPerMiss, 15.0);
    EXPECT_LT(tb.cyclesPerMiss, 40.0);
    EXPECT_LT(tb.stallCyclesPerMiss, tb.cyclesPerMiss);
}

class AblationSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(AblationSweep, SmallerCachesNeverHelp)
{
    auto [size_kb, ways] = GetParam();
    sim::ExperimentConfig cfg = smallConfig();
    cfg.instructionsPerWorkload = 12000;
    cfg.warmupInstructions = 2000;
    cfg.machine.mem.cache.sizeBytes = size_kb * 1024;
    cfg.machine.mem.cache.ways = ways;
    sim::ExperimentRunner runner(cfg);
    auto p = wkl::timesharing1Profile();
    p.users = 6;
    auto r = runner.runWorkload(p);
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    double cpi = an.cpi();
    EXPECT_GT(cpi, 4.0);
    EXPECT_LT(cpi, 30.0);
    // Record: larger caches within the sweep must not be slower by
    // more than noise. (Checked pairwise via static ordering.)
    static std::map<uint32_t, double> cpi_by_size;
    if (ways == 2) {
        for (auto &[sz, c] : cpi_by_size) {
            if (sz < size_kb) {
                EXPECT_GT(c + 1.5, cpi)
                    << sz << " KB vs " << size_kb << " KB";
            }
        }
        cpi_by_size[size_kb] = cpi;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, AblationSweep,
    ::testing::Values(std::make_tuple(2u, 2u), std::make_tuple(8u, 2u),
                      std::make_tuple(32u, 2u), std::make_tuple(8u, 1u),
                      std::make_tuple(8u, 4u)));
