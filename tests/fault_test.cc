/**
 * @file
 * Fault-injection, machine-check, and watchdog tests: seeded injection
 * is deterministic, a disabled injector is bit-identical to none at
 * all, correctable faults are logged and survived, uncorrectable ones
 * kill exactly the afflicted process, a dead population and a wedged
 * machine are both detected in bounded time, composites deliver
 * partial results, and the cycle-accounting audit holds under load.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "fault/fault.hh"
#include "mem/memory.hh"
#include "sim/experiment.hh"
#include "sim/watchdog.hh"
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
    cfg.instructionsPerWorkload = 15000;
    cfg.warmupInstructions = 3000;
    return cfg;
}

/** Bucket-wise equality of two UPC histograms (counts and stalls). */
bool
histogramsIdentical(const upc::Histogram &a, const upc::Histogram &b)
{
    for (uint32_t i = 0; i < upc::Histogram::NumBuckets; ++i)
        if (a.count(i) != b.count(i) || a.stall(i) != b.stall(i))
            return false;
    return true;
}

/** A fault mix exercising every correctable kind at survivable rates. */
fault::FaultConfig
correctableMix()
{
    fault::FaultConfig fc;
    fc.memEccSingleRate = 2e-3;  // per miss-fill longword
    fc.sbiTimeoutRate = 1e-3;    // per SBI transaction
    fc.tbParityRate = 1e-4;      // per valid-entry lookup
    fc.csParityRate = 1e-5;      // per microcycle
    return fc;
}

} // namespace

TEST(FaultInjection, ScheduledInjectionDeterministic)
{
    sim::ExperimentConfig cfg = smallConfig();
    cfg.fault = correctableMix();
    cfg.fault.schedule = {{fault::FaultKind::MemEccSingle, 3},
                          {fault::FaultKind::TbParity, 100}};

    auto p = wkl::timesharing1Profile();
    p.users = 6;
    auto a = sim::ExperimentRunner(cfg).runWorkload(p);
    auto b = sim::ExperimentRunner(cfg).runWorkload(p);

    // Same seed, same schedule: the entire measurement — histogram,
    // fault stream, and recovery bookkeeping — reproduces exactly.
    EXPECT_TRUE(histogramsIdentical(a.histogram, b.histogram));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.faultStats.injected, b.faultStats.injected);
    EXPECT_EQ(a.osStats.machineChecks, b.osStats.machineChecks);
    EXPECT_EQ(a.errorLog.size(), b.errorLog.size());
    EXPECT_GT(a.faultStats.total(), 0u);
}

TEST(FaultInjection, AttachedButSilentInjectorIsBitIdentical)
{
    // A run with no injector at all vs. one whose only fault source is
    // a schedule entry that can never fire: every consult site is
    // active in the second run, yet the measurement must come out
    // bit-identical (no timing perturbation, no randomness consumed).
    auto p = wkl::commercialProfile();
    p.users = 5;

    sim::ExperimentConfig plain = smallConfig();
    auto a = sim::ExperimentRunner(plain).runWorkload(p);

    sim::ExperimentConfig armed = smallConfig();
    armed.fault.schedule = {
        {fault::FaultKind::MemEccDouble, uint64_t(1) << 60}};
    auto b = sim::ExperimentRunner(armed).runWorkload(p);

    EXPECT_TRUE(histogramsIdentical(a.histogram, b.histogram));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.hw.dReadMisses, b.hw.dReadMisses);
    EXPECT_EQ(b.faultStats.total(), 0u);
    EXPECT_EQ(b.osStats.machineChecks, 0u);
}

TEST(FaultInjection, CorrectableFaultsAreRetried)
{
    sim::ExperimentConfig cfg = smallConfig();
    cfg.fault = correctableMix();

    auto p = wkl::timesharing2Profile();
    p.users = 6;
    auto r = sim::ExperimentRunner(cfg).runWorkload(p);

    // The machine rode through every fault: the budget was met, each
    // injected fault was delivered as a machine check and logged, and
    // nothing was killed.
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    EXPECT_GE(an.instructions(), cfg.instructionsPerWorkload);
    EXPECT_GT(r.faultStats.total(), 0u);
    EXPECT_EQ(r.faultStats.uncorrectable(), 0u);
    EXPECT_GT(r.osStats.machineChecks, 0u);
    EXPECT_EQ(r.osStats.faultsCorrected, r.osStats.machineChecks);
    EXPECT_EQ(r.osStats.processesTerminated, 0u);
    ASSERT_FALSE(r.errorLog.empty());
    for (const auto &e : r.errorLog)
        EXPECT_TRUE(e.corrected);
}

TEST(FaultInjection, UncorrectableFaultKillsOnlyAfflictedProcess)
{
    sim::ExperimentConfig cfg = smallConfig();
    // A burst of double-bit ECC errors early in the run; with six
    // users the remaining population absorbs the losses.
    cfg.fault.schedule = {{fault::FaultKind::MemEccDouble, 40},
                          {fault::FaultKind::MemEccDouble, 90},
                          {fault::FaultKind::MemEccDouble, 140}};

    auto p = wkl::educationalProfile();
    p.users = 6;
    auto r = sim::ExperimentRunner(cfg).runWorkload(p);

    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    EXPECT_GE(an.instructions(), cfg.instructionsPerWorkload);
    EXPECT_EQ(r.faultStats.count(fault::FaultKind::MemEccDouble), 3u);
    EXPECT_GE(r.osStats.processesTerminated, 1u);
    EXPECT_LE(r.osStats.processesTerminated, 3u);
    // The error log records the uncorrectable entries as such.
    size_t uncorrected = 0;
    for (const auto &e : r.errorLog)
        if (!e.corrected) {
            ++uncorrected;
            EXPECT_EQ(e.kind, fault::FaultKind::MemEccDouble);
        }
    EXPECT_EQ(uncorrected, 3u);
}

TEST(FaultInjection, DeadPopulationIsDetectedNotHung)
{
    // A double-bit rate high enough to wipe out a two-user population;
    // the runner must notice that only the Null process is left and
    // fail with a diagnosis instead of spinning to the cycle cap.
    sim::ExperimentConfig cfg = smallConfig();
    cfg.fault.memEccDoubleRate = 0.05;

    auto p = wkl::timesharing1Profile();
    p.users = 2;
    EXPECT_THROW(sim::ExperimentRunner(cfg).runWorkload(p),
                 upc780::SimError);
}

TEST(FaultInjection, CycleAuditHoldsUnderFaultLoad)
{
    // Machine checks thread extra microcode through the measurement;
    // the UPC board must still account for every observed cycle (the
    // run audits it unconditionally, and the test again below).
    sim::ExperimentConfig cfg = smallConfig();
    cfg.fault = correctableMix();

    auto p = wkl::scientificProfile();
    p.users = 5;
    auto r = sim::ExperimentRunner(cfg).runWorkload(p);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.osStats.machineChecks, 0u);
    EXPECT_EQ(r.histogram.totalCycles(), r.cycles);
}

TEST(FaultInjection, CompositeDeliversPartialResults)
{
    // One healthy workload and one that cannot even boot (an empty
    // user population): the composite records the failure and still
    // returns the healthy measurement, as an overnight campaign must.
    sim::ExperimentConfig cfg = smallConfig();
    auto good = wkl::timesharing1Profile();
    good.users = 5;
    auto bad = wkl::commercialProfile();
    bad.users = 0;

    auto c = sim::ExperimentRunner(cfg).runComposite({good, bad});
    ASSERT_EQ(c.workloads.size(), 2u);
    EXPECT_FALSE(c.allOk());
    EXPECT_TRUE(c.workloads[0].ok);
    EXPECT_FALSE(c.workloads[1].ok);
    EXPECT_FALSE(c.workloads[1].error.empty());
    // Only the healthy workload contributes to the composite sums.
    EXPECT_EQ(c.histogram.totalCycles(),
              c.workloads[0].histogram.totalCycles());
    EXPECT_GT(c.instructions(), 0u);
}

TEST(Watchdog, DetectsNoForwardProgress)
{
    const auto &img = ucode::microcodeImage();
    sim::Watchdog wd(img, 1000, 100000);

    // Healthy stream: decodes keep arriving, the dog stays quiet.
    for (int i = 0; i < 5000; ++i)
        wd.cycle(i % 8 == 0 ? img.marks.decode : img.marks.tbMissD,
                 false);
    EXPECT_FALSE(wd.expired());
    EXPECT_GT(wd.decodes(), 0u);

    // Livelock: cycles advance but no decode ever lands.
    for (int i = 0; i < 1000; ++i)
        wd.cycle(img.marks.abort, false);
    EXPECT_TRUE(wd.expired());

    auto d = wd.diagnostic();
    EXPECT_NE(d.find("no forward progress"), std::string::npos);
    EXPECT_NE(d.find("trailing upc trace"), std::string::npos);
}

TEST(Watchdog, DetectsRunawayStall)
{
    const auto &img = ucode::microcodeImage();
    sim::Watchdog wd(img, 1000000, 200);
    wd.cycle(img.marks.decode, false);
    for (int i = 0; i < 199; ++i)
        wd.cycle(img.marks.decode + 1, true);
    EXPECT_FALSE(wd.expired());
    wd.cycle(img.marks.decode + 1, true);
    EXPECT_TRUE(wd.expired());
    EXPECT_NE(wd.diagnostic().find("stall"), std::string::npos);
}

TEST(FaultConfig, BadConfigurationsThrow)
{
    {
        fault::FaultConfig fc;
        fc.memEccSingleRate = 1.5;
        EXPECT_THROW(fault::FaultInjector inj(fc), upc780::ConfigError);
    }
    {
        fault::FaultConfig fc;
        fc.tbParityRate = -0.1;
        EXPECT_THROW(fault::FaultInjector inj(fc), upc780::ConfigError);
    }
    {
        fault::FaultConfig fc;
        fc.schedule = {{fault::FaultKind::SbiTimeout, 0}};
        EXPECT_THROW(fault::FaultInjector inj(fc), upc780::ConfigError);
    }
    EXPECT_THROW(sim::Watchdog wd(ucode::microcodeImage(), 0),
                 upc780::ConfigError);
    EXPECT_THROW(sim::Watchdog wd(ucode::microcodeImage(), 1000, 0),
                 upc780::ConfigError);

    // And a bad rate reaching the runner surfaces as the same typed
    // error, not a process exit.
    sim::ExperimentConfig cfg = smallConfig();
    cfg.fault.csParityRate = 2.0;
    auto p = wkl::timesharing1Profile();
    p.users = 2;
    EXPECT_THROW(sim::ExperimentRunner(cfg).runWorkload(p),
                 upc780::ConfigError);
}

TEST(FaultDeathTest, InternalInvariantsStillPanic)
{
    // Typed exceptions cover user/guest errors; true simulator bugs
    // (here: a physical access beyond the configured array) must still
    // abort loudly rather than unwind into a half-valid state.
    mem::PhysicalMemory m(4096);
    EXPECT_DEATH(m.read(8192, 4), "beyond memory");
}
