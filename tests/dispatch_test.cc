/**
 * @file
 * Dual-dispatch differential suite: the threaded dispatcher (decoded
 * rows, fused handlers, batched pad superblocks) must be
 * observationally indistinguishable from the legacy switch
 * interpreter, which stays a pristine per-cycle reference. Every paper
 * workload, the bursty RTE profile and every microbenchmark kernel run
 * under both dispatchers pinned via MachineConfig::dispatch;
 * histograms, all event counters, hardware counters, OS statistics,
 * trace streams and the rendered report must be byte-identical (see
 * dispatch_diff.hh). A final lockstep test drives both dispatchers
 * with no probe attached and compares their serialized machine and OS
 * state as they go. Seeded random program mixes are checked the same
 * way in dispatch_random_test.cc.
 *
 * The kernel cases carry the raw bytes of their ubench::Kernel in
 * their listed names, so any test added to this binary shifts those
 * names; new differential cases go in another binary.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/assembler.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "dispatch_diff.hh"
#include "os/kernel.hh"
#include "sim/experiment.hh"
#include "ubench/ubench.hh"
#include "workload/profile.hh"

using namespace upc780;
using namespace upc780::arch;
using namespace upc780::dispatchdiff;
using ucode::DispatchMode;

namespace
{

class DispatchWorkload
    : public ::testing::TestWithParam<wkl::WorkloadProfile>
{};

} // namespace

TEST_P(DispatchWorkload, ByteIdenticalAcrossDispatchers)
{
    const wkl::WorkloadProfile &profile = GetParam();
    sim::ExperimentRunner sw(configFor(DispatchMode::Switch));
    sim::ExperimentRunner th(configFor(DispatchMode::Threaded));
    expectIdentical(sw.runWorkload(profile), th.runWorkload(profile));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, DispatchWorkload,
    ::testing::Values(wkl::timesharing1Profile(), wkl::timesharing2Profile(),
                      wkl::educationalProfile(), wkl::scientificProfile(),
                      wkl::commercialProfile(), wkl::burstyNetworkProfile()),
    [](const ::testing::TestParamInfo<wkl::WorkloadProfile> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

namespace
{

class DispatchKernel : public ::testing::TestWithParam<ubench::Kernel>
{};

} // namespace

TEST_P(DispatchKernel, ByteIdenticalAcrossDispatchers)
{
    const ubench::Kernel &k = GetParam();
    constexpr uint32_t Iters = 300;
    ubench::RunOverrides sw, th;
    sw.dispatch = DispatchMode::Switch;
    th.dispatch = DispatchMode::Threaded;
    ubench::Measurement a = ubench::runKernel(k, Iters, sw);
    ubench::Measurement b = ubench::runKernel(k, Iters, th);

    EXPECT_EQ(a.machineCycles, b.machineCycles) << k.name;
    EXPECT_EQ(a.monitorCycles, b.monitorCycles) << k.name;
    EXPECT_EQ(a.instructions, b.instructions) << k.name;
    EXPECT_TRUE(a.hist == b.hist) << k.name;
    for (size_t i = 0; i < obs::NumEvents; ++i)
        EXPECT_EQ(a.obs.counters[i], b.obs.counters[i])
            << k.name << ": counter "
            << obs::evName(static_cast<obs::Ev>(i));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, DispatchKernel, ::testing::ValuesIn(ubench::allKernels()),
    [](const ::testing::TestParamInfo<ubench::Kernel> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

namespace
{

os::ProcessImage
counterProcess(uint32_t stamp)
{
    Assembler a(0);
    VAddr entry = a.pc();
    a.emit(Op::MOVL, {Operand::imm(stamp), Operand::reg(6)});
    Label top = a.here();
    a.emit(Op::ADDL2, {Operand::lit(1), Operand::abs(0x2000)});
    a.emit(Op::MOVL, {Operand::reg(6), Operand::abs(0x2004)});
    // A multiply's ExecCost pads give the loop a pad superblock.
    a.emit(Op::MULL2, {Operand::lit(1), Operand::reg(7)});
    a.emitBr(Op::BRB, top);
    auto bytes = a.finish();

    os::ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;
    img.thinkMeanCycles = 50000;
    return img;
}

std::vector<uint8_t>
snapState(const cpu::Vax780 &m, const os::VmsLite &v)
{
    ByteWriter w;
    m.serialize(w);
    v.serialize(w);
    return w.take();
}

} // namespace

// Every other test here runs with the UPC monitor attached. With no
// probe attached and the timer and terminal devices ticking, the
// threaded machine (fused handlers, batched pad superblocks) must
// still track the switch reference state for state. Run a full OS
// scenario — context switches, TB misses, device interrupts — in
// lockstep on one machine per dispatcher and compare complete
// serialized machine and OS state at every chunk boundary.
TEST(LockstepState, ThreadedMatchesSwitchStateExactly)
{
    cpu::MachineConfig swc, thc;
    swc.dispatch = DispatchMode::Switch;
    thc.dispatch = DispatchMode::Threaded;
    cpu::Vax780 sw(swc), th(thc);
    os::OsConfig cfg;
    cfg.timerPeriodCycles = 2000;
    cfg.quantumTicks = 2;
    os::VmsLite vsw(sw, cfg), vth(th, cfg);
    for (os::VmsLite *v : {&vsw, &vth}) {
        v->addProcess(counterProcess(1));
        v->addProcess(counterProcess(2));
        v->boot();
    }

    const uint64_t chunk = 4096;
    for (uint64_t t = 0; t < 300000; t += chunk) {
        sw.run(chunk);
        th.run(chunk);
        ASSERT_EQ(snapState(sw, vsw), snapState(th, vth))
            << "diverged in chunk starting at cycle " << t;
    }
    EXPECT_GT(vsw.stats().contextSwitches, 5u);
}
