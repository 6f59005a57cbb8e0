/**
 * @file
 * Shared body of the dual-dispatch differential tests: the experiment
 * configuration both dispatchers run under, and the byte-identity
 * check on everything a workload run produces.
 */

#ifndef UPC780_TESTS_DISPATCH_DIFF_HH
#define UPC780_TESTS_DISPATCH_DIFF_HH

#include <gtest/gtest.h>

#include <cstring>

#include "sim/experiment.hh"
#include "ucode/decoded.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"

namespace upc780::dispatchdiff
{

inline sim::ExperimentConfig
configFor(ucode::DispatchMode d)
{
    sim::ExperimentConfig cfg;
    cfg.machine.dispatch = d;
    // Short but non-trivial: enough instructions that every workload
    // schedules several processes, takes timer and terminal
    // interrupts, and touches every counter class.
    cfg.instructionsPerWorkload = 20000;
    cfg.warmupInstructions = 4000;
    cfg.obs.counters = true;
    cfg.obs.traceDepth = 4096;  // compare event streams, not just sums
    return cfg;
}

inline void
expectIdentical(const sim::WorkloadResult &sw, const sim::WorkloadResult &th)
{
    ASSERT_TRUE(sw.ok && th.ok) << sw.name;
    EXPECT_EQ(sw.name, th.name);
    EXPECT_EQ(sw.cycles, th.cycles) << sw.name;
    EXPECT_TRUE(sw.histogram == th.histogram) << sw.name;

    // All event counters, by name, so a drift identifies itself.
    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(sw.obs.counters[i], th.obs.counters[i])
            << sw.name << ": counter "
            << obs::evName(static_cast<obs::Ev>(i));

    EXPECT_EQ(0, std::memcmp(&sw.hw, &th.hw, sizeof(sw.hw))) << sw.name;

    EXPECT_EQ(sw.osStats.contextSwitches, th.osStats.contextSwitches);
    EXPECT_EQ(sw.osStats.reschedRequests, th.osStats.reschedRequests);
    EXPECT_EQ(sw.osStats.forkRequests, th.osStats.forkRequests);
    EXPECT_EQ(sw.osStats.syscalls, th.osStats.syscalls);
    EXPECT_EQ(sw.osStats.termWrites, th.osStats.termWrites);
    EXPECT_EQ(sw.timerInterrupts, th.timerInterrupts) << sw.name;
    EXPECT_EQ(sw.terminalInterrupts, th.terminalInterrupts) << sw.name;

    // The structured event trace: same events, same cycles, same
    // payloads, in the same order.
    ASSERT_EQ(sw.trace.size(), th.trace.size()) << sw.name;
    for (size_t i = 0; i < sw.trace.size(); ++i)
        EXPECT_EQ(0, std::memcmp(&sw.trace[i], &th.trace[i],
                                 sizeof(obs::TraceEvent)))
            << sw.name << ": trace event " << i;

    // The rendered report (every paper table) is byte-identical.
    upc::HistogramAnalyzer asw(sw.histogram, ucode::microcodeImage());
    upc::HistogramAnalyzer ath(th.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw_sw{sw.hw.ibFills, sw.hw.iReadMisses,
                              sw.hw.dReadMisses, sw.hw.unalignedRefs,
                              sw.osStats.softIntRequests()};
    upc::ReportHwInputs hw_th{th.hw.ibFills, th.hw.iReadMisses,
                              th.hw.dReadMisses, th.hw.unalignedRefs,
                              th.osStats.softIntRequests()};
    EXPECT_EQ(upc::writeReport(asw, hw_sw), upc::writeReport(ath, hw_th))
        << sw.name;
}

} // namespace upc780::dispatchdiff

#endif // UPC780_TESTS_DISPATCH_DIFF_HH
