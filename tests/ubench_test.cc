/**
 * @file
 * Ground-truth validation: every generated kernel's closed-form
 * per-iteration vector — machine cycles, all 33 obs counters, and the
 * full sparse micro-PC histogram — must match the real machine
 * *exactly* (integer equality, no tolerance). Plus the perturbation
 * negative controls: moving one timing constant on either side of the
 * comparison must make the suite refute the match, proving the
 * agreement is not vacuous.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/counters.hh"
#include "ubench/ubench.hh"
#include "ucode/controlstore.hh"

namespace
{

using namespace upc780;
using ubench::Kernel;
using ubench::PerIteration;

const std::vector<Kernel> &
kernels()
{
    static const std::vector<Kernel> k = ubench::allKernels();
    return k;
}

const Kernel &
kernelNamed(const std::string &name)
{
    for (const Kernel &k : kernels())
        if (k.name == name)
            return k;
    ADD_FAILURE() << "no kernel named " << name;
    static Kernel none;
    return none;
}

/** The model-side params a kernel runs under (for perturbation). */
ubench::TimingParams
paramsFor(const Kernel &k)
{
    ubench::TimingParams tp = ubench::TimingParams::design();
    tp.cacheEnabled = k.cacheEnabled;
    tp.mapped = k.mapped;
    tp.sbr = k.sbr;
    tp.wbDepth = k.wbDepth;
    return tp;
}

const ucode::MicrocodeImage &
imageFor(const Kernel &k)
{
    return k.fpa ? ucode::microcodeImage() : ucode::microcodeImageNoFpa();
}

/** True if the two per-iteration vectors agree on every component. */
bool
sameVector(const PerIteration &a, const PerIteration &b)
{
    return a.cycles == b.cycles && a.ev == b.ev && a.hist == b.hist;
}

void
expectExactMatch(const Kernel &k)
{
    PerIteration want = ubench::expectedPerIteration(k);
    SCOPED_TRACE(k.name + " (period " + std::to_string(want.period) +
                 ", converged after " +
                 std::to_string(want.itersToConverge) + " iters)");
    ASSERT_LT(want.itersToConverge, k.n1 / 2)
        << "kernel converges too slowly for the delta measurement";

    PerIteration got = ubench::measuredPerPeriod(k, want.period);

    EXPECT_EQ(got.cycles, want.cycles) << "machine cycles per period";

    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(got.ev[i], want.ev[i])
            << "counter " << obs::evName(obs::Ev(i));

    // Assert the histogram's full sparse map, and name any bucket that
    // disagrees.
    for (const auto &[addr, cs] : want.hist) {
        auto it = got.hist.find(addr);
        if (it == got.hist.end()) {
            ADD_FAILURE() << "bucket 0x" << std::hex << addr
                          << " expected but never hit";
            continue;
        }
        EXPECT_EQ(it->second.first, cs.first)
            << "counts at bucket 0x" << std::hex << addr;
        EXPECT_EQ(it->second.second, cs.second)
            << "stalls at bucket 0x" << std::hex << addr;
    }
    for (const auto &[addr, cs] : got.hist)
        EXPECT_TRUE(want.hist.count(addr))
            << "unexpected bucket 0x" << std::hex << addr << std::dec
            << " (" << cs.first << " counts, " << cs.second << " stalls)";
}

class UbenchClass : public testing::TestWithParam<std::string>
{
};

TEST_P(UbenchClass, MatchesClosedForm)
{
    expectExactMatch(kernelNamed(GetParam()));
}

/** Cycle conservation on the closed form itself (DESIGN.md §14). */
TEST_P(UbenchClass, ClosedFormConserves)
{
    const Kernel &k = kernelNamed(GetParam());
    PerIteration want = ubench::expectedPerIteration(k);

    uint64_t counts = 0, stalls = 0;
    for (const auto &[addr, cs] : want.hist) {
        counts += cs.first;
        stalls += cs.second;
    }
    // IrqDispatches/MachineChecks/IboxDecodes flag uop cycles rather
    // than forming classes of their own, so the partition is exactly
    // uops + IB stalls + aborts + halt cycles.
    using obs::Ev;
    EXPECT_EQ(counts, want.value(Ev::EboxUops) +
                          want.value(Ev::EboxIbStallCycles) +
                          want.value(Ev::EboxAborts) +
                          want.value(Ev::EboxHaltCycles))
        << "histogram counts must partition into cycle classes";
    EXPECT_EQ(stalls, want.value(Ev::EboxStallCycles));
    EXPECT_EQ(counts + stalls, want.cycles)
        << "every machine cycle lands in exactly one bucket";
    EXPECT_EQ(want.value(Ev::UpcCycles), want.cycles);
    EXPECT_EQ(want.value(Ev::UpcStallCycles), stalls);

    // Kernels run no OS: the OS counters must be exactly zero.
    EXPECT_EQ(want.value(Ev::OsContextSwitches), 0u);
    EXPECT_EQ(want.value(Ev::OsSyscalls), 0u);
    EXPECT_EQ(want.value(Ev::OsReschedRequests), 0u);
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const Kernel &k : kernels())
        names.push_back(k.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllClasses, UbenchClass,
                         testing::ValuesIn(kernelNames()),
                         [](const auto &info) { return info.param; });

// ----- each class forces its namesake behaviour ---------------------------

TEST(UbenchBehaviour, ClassesForceTheirBehaviours)
{
    using obs::Ev;
    auto per = [](const char *name) {
        return ubench::expectedPerIteration(kernelNamed(name));
    };

    PerIteration alu = per("alu_reg");
    EXPECT_EQ(alu.value(Ev::CacheDReads), 0u);
    EXPECT_EQ(alu.value(Ev::EboxStallCycles), 0u);

    EXPECT_EQ(per("read_hit").value(Ev::CacheDReadMisses), 0u);
    EXPECT_EQ(per("read_unaligned").value(Ev::MemUnalignedRefs), 1u);
    EXPECT_GE(per("read_miss").value(Ev::CacheDReadMisses), 1u);
    EXPECT_GE(per("cache_off").value(Ev::CacheDReadMisses), 1u);
    EXPECT_GE(per("cache_off").value(Ev::CacheIReadMisses), 1u);

    PerIteration wh = per("write_hit");
    EXPECT_EQ(wh.value(Ev::CacheWriteHits), 1u);
    EXPECT_EQ(wh.value(Ev::WbWrites), 1u);
    EXPECT_GE(per("write_sat").value(Ev::WbStallCycles), 1u)
        << "saturation kernel must actually back up the write buffer";

    EXPECT_GE(per("ib_starve").value(Ev::EboxIbStallCycles), 6u);
    EXPECT_EQ(per("ib_starve").value(Ev::IbRedirects), 4u);

    PerIteration tbm = per("tb_miss");
    EXPECT_EQ(tbm.value(Ev::TbMissServicesD), 2u)
        << "A and B evict each other every iteration";
    EXPECT_EQ(tbm.value(Ev::TbFills), 2u);
    EXPECT_EQ(tbm.value(Ev::EboxAborts), 2u);

    PerIteration tbf = per("tb_iflush");
    EXPECT_EQ(tbf.value(Ev::TbFlushes), 1u);
    EXPECT_GE(tbf.value(Ev::TbMissServicesI), 1u);

    PerIteration irq = per("softirq");
    EXPECT_EQ(irq.value(Ev::IrqDispatches), 1u);
    EXPECT_EQ(irq.value(Ev::IbRedirects), 3u)
        << "dispatch, REI return, SOBGTR";
}

TEST(UbenchBehaviour, FpaPairDeltaIsTheMicrocodeDifference)
{
    PerIteration with = ubench::expectedPerIteration(kernelNamed("float_fpa"));
    PerIteration without =
        ubench::expectedPerIteration(kernelNamed("float_nofpa"));
    // ExecCost: AddF is 6 with the accelerator, 24 without — and the
    // no-FPA image spends the difference in execute cycles, not IB or
    // memory behaviour.
    using obs::Ev;
    EXPECT_EQ(without.cycles - with.cycles, 18u);
    EXPECT_EQ((without.value(Ev::EboxUops) +
               without.value(Ev::EboxStallCycles)) -
                  (with.value(Ev::EboxUops) +
                   with.value(Ev::EboxStallCycles)),
              18u);
    EXPECT_EQ(without.value(Ev::EboxIbStallCycles),
              with.value(Ev::EboxIbStallCycles));
    EXPECT_EQ(without.value(Ev::IbFills), with.value(Ev::IbFills));
}

// ----- negative controls: perturbations must be refuted -------------------

/**
 * Model-side: recompute the closed form under one wrong constant; the
 * real machine must contradict it. A vacuously-passing model (one that
 * ignores the constant) would sail through the positive tests — this
 * is the tripwire.
 */
TEST(UbenchNegativeControl, ModelRefutesWrongIbFillTime)
{
    const Kernel &k = kernelNamed("ib_starve");
    ubench::TimingParams tp = paramsFor(k);
    tp.ibFillCycles = 3;  // design: 2
    PerIteration wrong = ubench::expectedPerIteration(k, imageFor(k), tp);
    PerIteration right = ubench::expectedPerIteration(k);
    PerIteration got = ubench::measuredPerPeriod(k, wrong.period);
    EXPECT_TRUE(sameVector(got, right));
    EXPECT_FALSE(sameVector(got, wrong))
        << "model must be sensitive to the IB fill time";
}

TEST(UbenchNegativeControl, ModelRefutesWrongSbiReadLatency)
{
    const Kernel &k = kernelNamed("read_miss");
    ubench::TimingParams tp = paramsFor(k);
    tp.sbiReadLatency = 7;  // design: 6
    PerIteration wrong = ubench::expectedPerIteration(k, imageFor(k), tp);
    PerIteration got = ubench::measuredPerPeriod(k, wrong.period);
    EXPECT_FALSE(sameVector(got, wrong));
}

TEST(UbenchNegativeControl, ModelRefutesWrongSbiWriteLatency)
{
    const Kernel &k = kernelNamed("write_sat");
    ubench::TimingParams tp = paramsFor(k);
    tp.sbiWriteLatency = 7;
    PerIteration wrong = ubench::expectedPerIteration(k, imageFor(k), tp);
    PerIteration got = ubench::measuredPerPeriod(k, wrong.period);
    EXPECT_FALSE(sameVector(got, wrong));
}

/**
 * Machine-side: perturb the real machine through the test-only
 * override hook; the design-point closed form must refuse it. Checks
 * the other direction of the same tripwire — a measurement that never
 * sees the constant would also pass vacuously.
 */
TEST(UbenchNegativeControl, MeasurementRefutesPerturbedReadLatency)
{
    const Kernel &k = kernelNamed("read_miss");
    PerIteration want = ubench::expectedPerIteration(k);
    ubench::RunOverrides ov;
    ov.sbiReadLatency = 7;
    PerIteration got = ubench::measuredPerPeriod(k, want.period, ov);
    EXPECT_FALSE(sameVector(got, want));
}

TEST(UbenchNegativeControl, MeasurementRefutesPerturbedWriteLatency)
{
    const Kernel &k = kernelNamed("write_sat");
    PerIteration want = ubench::expectedPerIteration(k);
    ubench::RunOverrides ov;
    ov.sbiWriteLatency = 7;
    PerIteration got = ubench::measuredPerPeriod(k, want.period, ov);
    EXPECT_FALSE(sameVector(got, want));
}

} // namespace
