/**
 * @file
 * Snapshot round-trip through a ground-truth kernel: checkpoint a
 * ubench run mid-flight, restore into brand-new machine/monitor/
 * counter objects, finish the run — the final measurement must be
 * byte-identical to the uninterrupted run, and the closed-form
 * per-iteration vector must still hold exactly when the checkpointed
 * run supplies one side of the delta measurement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/counters.hh"
#include "ubench/ubench.hh"

namespace
{

using namespace upc780;
using ubench::Kernel;

Kernel
kernelNamed(const std::string &name)
{
    for (const Kernel &k : ubench::allKernels())
        if (k.name == name)
            return k;
    ADD_FAILURE() << "no kernel named " << name;
    return Kernel{};
}

void
expectSameMeasurement(const ubench::Measurement &a,
                      const ubench::Measurement &b)
{
    EXPECT_EQ(a.machineCycles, b.machineCycles);
    EXPECT_EQ(a.monitorCycles, b.monitorCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hist, b.hist);
    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(a.obs.counters[i], b.obs.counters[i])
            << obs::evName(obs::Ev(i));
}

/**
 * read_miss carries the most restorable state of the classes: cache
 * fills in flight, an autoincremented pointer, SBI occupancy.
 */
TEST(UbenchSnap, MidRunRestoreIsInvisible)
{
    Kernel k = kernelNamed("read_miss");
    ubench::Measurement straight = ubench::runKernel(k, k.n2);
    for (uint64_t cut :
         std::vector<uint64_t>{1, 257, straight.machineCycles / 2}) {
        SCOPED_TRACE("checkpoint at cycle " + std::to_string(cut));
        expectSameMeasurement(
            ubench::runKernelCheckpointed(k, k.n2, cut), straight);
    }
}

/** Restore across trap service: checkpoint inside the TB-miss storm. */
TEST(UbenchSnap, RestoreAcrossTbMissServices)
{
    Kernel k = kernelNamed("tb_miss");
    ubench::Measurement straight = ubench::runKernel(k, k.n2);
    expectSameMeasurement(
        ubench::runKernelCheckpointed(k, k.n2, straight.machineCycles / 3),
        straight);
}

/** The closed form survives a restore inside the measured window. */
TEST(UbenchSnap, ClosedFormHoldsThroughRestore)
{
    Kernel k = kernelNamed("read_miss");
    ubench::PerIteration want = ubench::expectedPerIteration(k);

    ubench::Measurement m1 = ubench::runKernel(k, k.n1);
    ubench::Measurement m2 =
        ubench::runKernelCheckpointed(k, k.n2, m1.machineCycles / 2);
    const uint64_t q = (k.n2 - k.n1) / want.period;

    ASSERT_EQ((m2.machineCycles - m1.machineCycles) % q, 0u);
    EXPECT_EQ((m2.machineCycles - m1.machineCycles) / q, want.cycles);
    for (size_t i = 0; i < obs::NumEvents; ++i) {
        uint64_t d = m2.obs.counters[i] - m1.obs.counters[i];
        ASSERT_EQ(d % q, 0u) << obs::evName(obs::Ev(i));
        EXPECT_EQ(d / q, want.ev[i]) << obs::evName(obs::Ev(i));
    }
}

} // namespace
