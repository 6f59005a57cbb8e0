/**
 * @file
 * Lockstep differential of the run loop itself: a machine advanced by
 * the batched, probe-fused Vax780::runBatch with sim::RunProbes, as
 * WorkloadRun drives it (pad superblocks and stall
 * windows in one step, monitor and watchdog inline) must leave exactly
 * the state that tick()-stepping leaves with the same monitor and
 * watchdog attached as ordinary probes. Compared at every chunk
 * boundary: both histogram banks, every counter, the watchdog's counts
 * and diagnostic text, the serialized machine (EBOX, IBox, TB, memory
 * hierarchy) and kernel, and cycles(). Run on the seeded random mixes
 * and one paper workload, under both dispatch modes, bare, with an
 * InstrTracer attached, and with a fault injector attached.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "cpu/trace.hh"
#include "dispatch_diff.hh"
#include "fault/fault.hh"
#include "os/kernel.hh"
#include "sim/run.hh"
#include "sim/watchdog.hh"
#include "ucode/controlstore.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
using ucode::DispatchMode;

namespace
{

/** What rides along on the machine besides the fixed probes. */
enum class Extra
{
    None,
    Tracer,
    Faults,
};

/**
 * An optional probe that tallies what it is shown: every cycle, and
 * how many multi-cycle windows arrived through cycles().
 */
class Tally final : public cpu::CycleProbe
{
  public:
    void
    cycle(ucode::UAddr upc, bool stalled) override
    {
        ++cycles_;
        sum_ += upc + (stalled ? 0x10000u : 0u);
    }

    void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n) override
    {
        if (n > 1)
            ++windows_;
        CycleProbe::cycles(upc, stalled, n);
    }

    uint64_t cycles_ = 0, sum_ = 0, windows_ = 0;
};

/**
 * One booted machine with the run's instruments: its own counter
 * registry, the UPC board gated like WorkloadRun gates it (idle
 * excluded), a watchdog, and the optional extra.
 */
struct Rig
{
    Rig(const wkl::WorkloadProfile &profile, DispatchMode mode, Extra extra)
        : machine(configFor(mode)),
          vms(machine),
          watchdog(machine.microcode())
    {
        obs::ObsScope scope(&registry, nullptr);
        if (extra == Extra::Tracer) {
            tracer = std::make_unique<cpu::InstrTracer>(machine, 512);
            machine.attachProbe(tracer.get());
        }
        if (extra == Extra::Faults) {
            fault::FaultConfig fc;
            fc.memEccSingleRate = 2e-3;
            fc.sbiTimeoutRate = 2e-3;
            fc.tbParityRate = 2e-4;
            fc.csParityRate = 1e-4;
            injector = std::make_unique<fault::FaultInjector>(fc);
            machine.attachFaultInjector(injector.get());
        }
        machine.attachProbe(&tally);
        const os::ProcessShape shape = wkl::programShape(profile);
        for (uint32_t u = 0; u < profile.users; ++u)
            vms.addProcess(shape, [profile, u] {
                return wkl::generateProgram(profile, u);
            });
        vms.setSwitchHook([this](int, bool is_idle) {
            if (is_idle) {
                monitor.stop();
                registry.setEnabled(false);
            } else {
                monitor.start();
                registry.setEnabled(true);
            }
        });
        vms.boot();
        monitor.start();
        registry.setEnabled(true);
    }

    static cpu::MachineConfig
    configFor(DispatchMode mode)
    {
        cpu::MachineConfig c;
        c.dispatch = mode;
        return c;
    }

    /** Reference: tick() with the monitor and watchdog attached. */
    void
    stepTo(uint64_t target)
    {
        obs::ObsScope scope(&registry, nullptr);
        if (!attached) {
            machine.attachProbe(&monitor);
            machine.attachProbe(&watchdog);
            attached = true;
        }
        while (machine.cycles() < target)
            ASSERT_TRUE(machine.tick());
    }

    /**
     * Under test: WorkloadRun's loop, probes fused, batched, each
     * batch also stopping at its third retire.
     */
    void
    batchTo(uint64_t target)
    {
        constexpr uint64_t Retires = 3;
        obs::ObsScope scope(&registry, nullptr);
        sim::RunProbes probes{monitor, watchdog};
        while (machine.cycles() < target) {
            const uint64_t budget = target - machine.cycles();
            const uint64_t before = machine.ebox().instructions();
            const uint64_t ran =
                machine.runBatch(probes, budget, Retires);
            ASSERT_GT(ran, 0u);
            const uint64_t retired =
                machine.ebox().instructions() - before;
            if (ran < budget)
                ASSERT_EQ(retired, Retires);
            else
                ASSERT_LE(retired, Retires);
        }
    }

    std::vector<uint8_t>
    state() const
    {
        ByteWriter w;
        machine.serialize(w);
        vms.serialize(w);
        monitor.serialize(w);
        watchdog.serialize(w);
        registry.serialize(w);
        if (tracer)
            tracer->serialize(w);
        if (injector)
            injector->serialize(w);
        return w.take();
    }

    obs::CounterRegistry registry;
    cpu::Vax780 machine;
    os::VmsLite vms;
    upc::UpcMonitor monitor;
    sim::Watchdog watchdog;
    Tally tally;
    std::unique_ptr<cpu::InstrTracer> tracer;
    std::unique_ptr<fault::FaultInjector> injector;
    bool attached = false;
};

void
expectSame(const Rig &ref, const Rig &bat, const std::string &where)
{
    ASSERT_EQ(ref.machine.cycles(), bat.machine.cycles()) << where;
    EXPECT_TRUE(ref.monitor.histogram() == bat.monitor.histogram())
        << where;
    EXPECT_EQ(ref.monitor.observedCycles(), bat.monitor.observedCycles())
        << where;
    for (size_t i = 0; i < obs::NumEvents; ++i) {
        const auto e = static_cast<obs::Ev>(i);
        EXPECT_EQ(ref.registry.total(e), bat.registry.total(e))
            << where << ": counter " << obs::evName(e);
        EXPECT_EQ(ref.registry.value(e), bat.registry.value(e))
            << where << ": window of " << obs::evName(e);
    }
    EXPECT_EQ(ref.watchdog.cycles(), bat.watchdog.cycles()) << where;
    EXPECT_EQ(ref.watchdog.decodes(), bat.watchdog.decodes()) << where;
    EXPECT_EQ(ref.watchdog.diagnostic(), bat.watchdog.diagnostic())
        << where;
    EXPECT_EQ(ref.tally.cycles_, bat.tally.cycles_) << where;
    EXPECT_EQ(ref.tally.sum_, bat.tally.sum_) << where;
    if (ref.tracer) {
        EXPECT_EQ(ref.tracer->str(), bat.tracer->str()) << where;
    }
    EXPECT_TRUE(ref.state() == bat.state())
        << where << ": serialized machine/kernel/instrument state";
}

struct Case
{
    std::string name;
    wkl::WorkloadProfile profile;
    DispatchMode mode;
    Extra extra;
};

std::vector<Case>
cases()
{
    std::vector<std::pair<std::string, wkl::WorkloadProfile>> programs;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        programs.emplace_back("mix" + std::to_string(seed),
                              dispatchdiff::randomProfile(seed));
    programs.emplace_back("ts1", wkl::timesharing1Profile());

    std::vector<Case> out;
    for (const auto &[pname, profile] : programs)
        for (DispatchMode mode :
             {DispatchMode::Threaded, DispatchMode::Switch})
            for (Extra extra : {Extra::None, Extra::Tracer, Extra::Faults}) {
                std::string n = pname;
                n += mode == DispatchMode::Threaded ? "_threaded"
                                                    : "_switch";
                n += extra == Extra::None     ? "_bare"
                     : extra == Extra::Tracer ? "_tracer"
                                              : "_faults";
                out.push_back({n, profile, mode, extra});
            }
    return out;
}

/** gtest prints a failing case by name (and lists it by name). */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class BatchLockstep : public ::testing::TestWithParam<Case>
{};

} // namespace

TEST_P(BatchLockstep, BatchedRunMatchesTickStepping)
{
    const Case &c = GetParam();
    Rig ref(c.profile, c.mode, c.extra);
    Rig bat(c.profile, c.mode, c.extra);

    constexpr uint64_t Chunk = 7919;  // prime: boundaries fall anywhere
    constexpr uint64_t Cycles = 160000;
    for (uint64_t t = Chunk; t <= Cycles; t += Chunk) {
        ref.stepTo(t);
        bat.batchTo(t);
        expectSame(ref, bat, c.name + " at cycle " + std::to_string(t));
        if (HasFailure())
            return;
    }

    // The run did what the shortcuts are for: it stalled, the batched
    // machine took windows when no injector forbade them, and the
    // reference never did.
    EXPECT_GT(ref.registry.total(obs::Ev::EboxStallCycles), 0u);
    EXPECT_GT(ref.registry.total(obs::Ev::UpcCycles), 0u);
    EXPECT_EQ(ref.tally.windows_, 0u);
    if (c.extra == Extra::Faults) {
        EXPECT_EQ(bat.tally.windows_, 0u);
        EXPECT_GT(ref.injector->stats().total(), 0u);
    } else {
        EXPECT_GT(bat.tally.windows_, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, BatchLockstep, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

// A window is n cycles at once, for any n: the run loop's windows are
// short (an SBI latency, a fill), so the ring wrap of a window longer
// than the watchdog's trace depth is pinned here, probe by probe.
TEST(ProbeWindows, OneCallEqualsTheCycleLoop)
{
    const ucode::MicrocodeImage &img = ucode::microcodeImage();
    const ucode::UAddr decode = img.marks.decode;
    const ucode::UAddr other = static_cast<ucode::UAddr>(decode + 1);
    struct Step
    {
        ucode::UAddr upc;
        bool stalled;
        uint64_t n;
    };
    const std::vector<Step> steps = {
        {decode, false, 3}, {other, true, 5},   {other, true, 100},
        {decode, false, 1}, {other, false, 33}, {decode, false, 70},
        {other, true, 32},  {other, true, 31},
    };

    obs::CounterRegistry reg_loop, reg_window;
    upc::UpcMonitor mon_loop, mon_window;
    sim::Watchdog wd_loop(img), wd_window(img);
    mon_loop.start();
    mon_window.start();
    for (const Step &s : steps) {
        {
            obs::ObsScope scope(&reg_loop, nullptr);
            for (uint64_t i = 0; i < s.n; ++i) {
                mon_loop.cycle(s.upc, s.stalled);
                wd_loop.cycle(s.upc, s.stalled);
            }
        }
        {
            obs::ObsScope scope(&reg_window, nullptr);
            mon_window.cycles(s.upc, s.stalled, s.n);
            wd_window.cycles(s.upc, s.stalled, s.n);
        }
        ByteWriter a, b;
        mon_loop.serialize(a);
        wd_loop.serialize(a);
        reg_loop.serialize(a);
        mon_window.serialize(b);
        wd_window.serialize(b);
        reg_window.serialize(b);
        ASSERT_TRUE(a.take() == b.take()) << "after a window of " << s.n;
        ASSERT_EQ(wd_loop.diagnostic(), wd_window.diagnostic());
    }
    EXPECT_EQ(mon_window.histogram().stall(other), 168u);
    EXPECT_EQ(wd_window.decodes(), 74u);
}
