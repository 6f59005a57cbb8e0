/**
 * @file
 * Cycle-attribution tests: precise behaviour of the stall machinery —
 * where read/write/IB stall cycles land in the histogram, microtrap
 * abort accounting, and the TB-miss retry path. These pin the exact
 * mechanics the paper's measurement technique depends on (§4.3).
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "mmu/prreg.hh"
#include "mmu/pagetable.hh"

using namespace upc780;
using namespace upc780::arch;

namespace
{

struct Rig
{
    explicit Rig(Assembler &a)
    {
        const auto &img = a.finish();
        machine.memsys().memory().load(
            0x1000, img.data(), static_cast<uint32_t>(img.size()));
        machine.ebox().reset(0x1000, false);
        machine.ebox().gpr(reg::SP) = 0x8000;
        machine.attachProbe(&monitor);
        monitor.start();
    }

    void
    runToHalt()
    {
        machine.run(100000);
        ASSERT_TRUE(machine.ebox().halted());
    }

    uint64_t
    stallsIn(ucode::Row row, bool writes)
    {
        const auto &image = ucode::microcodeImage();
        uint64_t n = 0;
        for (uint32_t u = 0; u < image.allocated; ++u) {
            if (image.rowOf(static_cast<ucode::UAddr>(u)) != row)
                continue;
            bool is_write =
                image.ops[u].mem == ucode::Mem::WriteV;
            if (is_write == writes)
                n += monitor.histogram().stall(
                    static_cast<ucode::UAddr>(u));
        }
        return n;
    }

    cpu::Vax780 machine;
    upc::UpcMonitor monitor{machine.counters()};
};

} // namespace

TEST(Timing, ColdReadStallsExactlySbiLatency)
{
    // One cold read: its six stall cycles must appear as stalled
    // counts at the reading micro-op's address (SPEC1 row).
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(0)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    // At least the 6-cycle SBI latency; concurrent IB-fill traffic on
    // the SBI can queue the D-read behind an in-flight fetch.
    uint64_t stalls = r.stallsIn(ucode::Row::Spec1, false);
    EXPECT_GE(stalls, 6u);
    EXPECT_LE(stalls, 14u);
    EXPECT_EQ(r.stallsIn(ucode::Row::Spec1, true), 0u);
}

TEST(Timing, WarmReadHasNoStall)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(1)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    // Only the first (cold) read stalls; the warm second read adds
    // nothing beyond the cold read's (contention-dependent) stall.
    uint64_t stalls = r.stallsIn(ucode::Row::Spec1, false);
    EXPECT_GE(stalls, 6u);
    EXPECT_LE(stalls, 14u);
}

TEST(Timing, BackToBackWritesStallInSpecRow)
{
    // Two stores in adjacent instructions: the second write reaches
    // the one-longword buffer before the first drains.
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::lit(1), Operand::abs(0x4000)});
    a.emit(Op::MOVL, {Operand::lit(2), Operand::abs(0x4100)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    EXPECT_GT(r.stallsIn(ucode::Row::Spec26, true), 0u);
    EXPECT_EQ(r.stallsIn(ucode::Row::Spec26, false), 0u);
}

TEST(Timing, SpacedWritesDoNotStall)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::lit(1), Operand::abs(0x4000)});
    for (int i = 0; i < 8; ++i)
        a.emit(Op::INCL, {Operand::reg(0)});  // > 6 cycles apart
    a.emit(Op::MOVL, {Operand::lit(2), Operand::abs(0x4100)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    EXPECT_EQ(r.stallsIn(ucode::Row::Spec26, true), 0u);
}

TEST(Timing, TakenBranchCausesDecodeIbStall)
{
    // A taken branch flushes the IB; the next decode waits for the
    // refetch and the wait lands at the dedicated decode-stall bucket.
    Assembler a(0x1000);
    Label fwd = a.newLabel();
    a.emitBr(Op::BRB, fwd);
    a.zero(16);
    a.bind(fwd);
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    const auto &marks = ucode::microcodeImage().marks;
    EXPECT_GT(r.monitor.histogram().count(marks.ibStallDecode), 0u);
}

TEST(Timing, SequentialCodeHasLittleIbStall)
{
    Assembler a(0x1000);
    for (int i = 0; i < 30; ++i)
        a.emit(Op::INCL, {Operand::reg(0)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    const auto &marks = ucode::microcodeImage().marks;
    // Initial fill only; once streaming, the IB keeps ahead of 2-byte
    // instructions.
    uint64_t stall =
        r.monitor.histogram().count(marks.ibStallDecode) +
        r.monitor.histogram().count(marks.ibStallSpec1);
    EXPECT_LT(stall, 12u);
}

TEST(Timing, CycleBudgetOfRegisterAdd)
{
    // ADDL3 r1, r2, r3: decode(1) + two register SPEC reads (1+1) +
    // exec (1) + register-write SPEC (1) = 5 cycles, once the IB is
    // warm.
    Assembler a(0x1000);
    for (int i = 0; i < 4; ++i)
        a.emit(Op::NOP, {});  // absorb the cold-start fill
    uint64_t probe_start = 0;
    (void)probe_start;
    for (int i = 0; i < 10; ++i)
        a.emit(Op::ADDL3, {Operand::reg(1), Operand::reg(2),
                           Operand::reg(3)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    upc::HistogramAnalyzer an(r.monitor.histogram(),
                              ucode::microcodeImage());
    // Average CPI over the whole run is dominated by the ADDL3s.
    EXPECT_NEAR(an.cpi(), 5.0, 1.1);
}

TEST(Timing, AbortChargedOncePerTbMiss)
{
    // Run under the map with a fresh TB: every miss contributes one
    // abort cycle (checked via the full system in sim tests; here use
    // direct physical mode where no misses occur).
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(0)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    const auto &marks = ucode::microcodeImage().marks;
    EXPECT_EQ(r.monitor.histogram().count(marks.abort), 0u);
    EXPECT_EQ(r.monitor.histogram().count(marks.tbMissD), 0u);
}

TEST(Timing, EveryObservedCycleIsCounted)
{
    Assembler a(0x1000);
    a.emit(Op::MOVC3, {Operand::imm(40), Operand::abs(0x4000),
                       Operand::abs(0x4100)});
    a.emit(Op::MOVL, {Operand::lit(1), Operand::abs(0x4200)});
    a.emit(Op::HALT, {});
    Rig r(a);
    r.runToHalt();
    EXPECT_EQ(r.monitor.histogram().totalCycles(),
              r.monitor.observedCycles());
}

TEST(Timing, RmodeDecodeOptimizationSavesSpec1Cycles)
{
    // With the RMODE knob the register first operand is delivered by
    // decode: same architectural result, fewer cycles, and the SPEC1
    // row loses the one-cycle operand fetches.
    auto build = [] {
        Assembler a(0x1000);
        a.emit(Op::MOVL, {Operand::imm(7), Operand::reg(1)});
        for (int i = 0; i < 20; ++i)
            a.emit(Op::ADDL3, {Operand::reg(1), Operand::reg(1),
                               Operand::reg(2)});
        a.emit(Op::HALT, {});
        return a.finish();
    };
    auto run = [&](bool rmode) {
        cpu::MachineConfig cfg;
        cfg.rmodeDecode = rmode;
        auto m = std::make_unique<cpu::Vax780>(cfg);
        auto img = build();
        m->memsys().memory().load(0x1000, img.data(),
                                  static_cast<uint32_t>(img.size()));
        m->ebox().reset(0x1000, false);
        m->ebox().gpr(reg::SP) = 0x8000;
        m->run(100000);
        EXPECT_TRUE(m->ebox().halted());
        return std::make_pair(m->ebox().gpr(2), m->cycles());
    };
    auto [v_base, c_base] = run(false);
    auto [v_rmode, c_rmode] = run(true);
    EXPECT_EQ(v_base, v_rmode);
    EXPECT_EQ(v_base, 14u);
    // One cycle saved per ADDL3 (its register first operand).
    EXPECT_LE(c_rmode + 18, c_base);
}

TEST(Timing, StringInstructionIsAtomicAcrossInterrupts)
{
    // An interrupt raised mid-MOVC3 is only dispatched at the next
    // instruction boundary; the copy must complete untouched.
    class MidRunDevice : public cpu::Device
    {
      public:
        void tick(uint64_t now) override { now_ = now; }
        bool
        requesting(uint32_t &level, uint32_t &vector) override
        {
            if (delivered_ || now_ < 40)
                return false;
            level = 20;
            vector = 20;
            return true;
        }
        void acknowledge() override { delivered_ = true; }
        bool delivered_ = false;
        uint64_t now_ = 0;
    };

    Assembler a(0x1000);
    a.emit(Op::MOVC3, {Operand::imm(64), Operand::abs(0x4000),
                       Operand::abs(0x4200)});
    a.emit(Op::HALT, {});
    const auto &img = a.finish();

    cpu::Vax780 machine;
    machine.memsys().memory().load(0x1000, img.data(),
                                   static_cast<uint32_t>(img.size()));
    for (uint32_t i = 0; i < 64; ++i)
        machine.memsys().memory().writeByte(0x4000 + i,
                                            static_cast<uint8_t>(i));
    // SCB entry 20 -> handler that just REIs (on interrupt stack).
    Assembler k(0x2000);
    k.emit(Op::REI, {});
    const auto &kb = k.finish();
    machine.memsys().memory().load(0x2000, kb.data(),
                                   static_cast<uint32_t>(kb.size()));
    machine.ebox().writePr(mmu::pr::SCBB, 0x3000);
    machine.memsys().memory().write(0x3000 + 4 * 20, 4, 0x2000 | 1);
    machine.ebox().writePr(mmu::pr::ISP, 0x7000);

    MidRunDevice dev;
    machine.addDevice(&dev);
    machine.ebox().reset(0x1000, false);
    machine.ebox().gpr(reg::SP) = 0x8000;
    machine.run(100000);

    ASSERT_TRUE(machine.ebox().halted());
    EXPECT_TRUE(dev.delivered_);
    for (uint32_t i = 0; i < 64; ++i) {
        ASSERT_EQ(machine.memsys().memory().readByte(0x4200 + i), i)
            << "byte " << i;
    }
    // MOVC3's register results survived the interrupt round trip.
    EXPECT_EQ(machine.ebox().gpr(3), 0x4240u);
}

namespace
{

/**
 * A device that requests an IPL-20 interrupt from cycle @p at on and
 * counts the polls it gets before then. With @p fixed it reports @p at
 * as its next event; otherwise it keeps Device's default of 0, "poll me
 * at every instruction end".
 */
class CountingDevice : public cpu::Device
{
  public:
    CountingDevice(cpu::Vax780 &m, uint64_t at, bool fixed)
        : vax_(m), at_(at), fixed_(fixed)
    {}

    void tick(uint64_t now) override { now_ = now; }

    bool
    requesting(uint32_t &level, uint32_t &vector) override
    {
        if (now_ < at_)
            ++early_;
        if (delivered_ || now_ < at_)
            return false;
        level = 20;
        vector = 20;
        return true;
    }

    void
    acknowledge() override
    {
        delivered_ = true;
        ackCycle_ = vax_.cycles();
        ackInstruction_ = vax_.ebox().instructions();
    }

    uint64_t
    nextEventAt() const override
    {
        return fixed_ ? at_ : Device::nextEventAt();
    }

    cpu::Vax780 &vax_;
    uint64_t at_;
    bool fixed_;
    uint64_t now_ = 0;
    bool delivered_ = false;
    uint64_t early_ = 0, ackCycle_ = 0, ackInstruction_ = 0;
};

/** A counting loop under an interrupt handler that REIs. */
struct InterruptRig
{
    InterruptRig(uint64_t at, bool fixed) : device(machine, at, fixed)
    {
        Assembler a(0x1000);
        a.emit(Op::MOVL, {Operand::imm(400), Operand::reg(1)});
        Label loop = a.here();
        a.emit(Op::ADDL2, {Operand::reg(1), Operand::reg(2)});
        a.emit(Op::MOVL, {Operand::reg(2), Operand::abs(0x4000)});
        a.emitBr(Op::SOBGTR, {Operand::reg(1)}, loop);
        a.emit(Op::HALT, {});
        const auto &img = a.finish();
        auto &mem = machine.memsys().memory();
        mem.load(0x1000, img.data(), static_cast<uint32_t>(img.size()));
        Assembler k(0x2000);
        k.emit(Op::REI, {});
        const auto &kb = k.finish();
        mem.load(0x2000, kb.data(), static_cast<uint32_t>(kb.size()));
        machine.ebox().writePr(mmu::pr::SCBB, 0x3000);
        mem.write(0x3000 + 4 * 20, 4, 0x2000 | 1);
        machine.ebox().writePr(mmu::pr::ISP, 0x7000);
        machine.addDevice(&device);
        machine.ebox().reset(0x1000, false);
        machine.ebox().gpr(reg::SP) = 0x8000;
    }

    std::vector<uint8_t>
    state() const
    {
        ByteWriter w;
        machine.serialize(w);
        return w.take();
    }

    cpu::Vax780 machine;
    CountingDevice device;
};

} // namespace

TEST(Devices, PolledOnlyWhenDue)
{
    // The machine reads a device with a next event only once it is due,
    // and the interrupt lands where per-instruction polling puts it.
    constexpr uint64_t At = 1237;
    InterruptRig polled(At, false), due(At, true);
    polled.machine.run(100000);
    due.machine.run(100000);
    ASSERT_TRUE(polled.machine.ebox().halted());
    ASSERT_TRUE(due.machine.ebox().halted());
    ASSERT_TRUE(polled.device.delivered_);
    ASSERT_TRUE(due.device.delivered_);

    EXPECT_GT(polled.device.early_, 0u);
    EXPECT_EQ(due.device.early_, 0u);
    EXPECT_GT(due.device.ackCycle_, At);
    EXPECT_EQ(due.device.ackCycle_, polled.device.ackCycle_);
    EXPECT_EQ(due.device.ackInstruction_, polled.device.ackInstruction_);
    EXPECT_EQ(due.machine.cycles(), polled.machine.cycles());
    EXPECT_TRUE(due.state() == polled.state());
}

TEST(Timing, TbMissInsideStringLoopRetriesCleanly)
{
    // Under the map, a MOVC3 whose destination page is absent from the
    // TB microtraps mid-loop; the copy must still be exact.
    cpu::Vax780 machine;
    auto &mem = machine.memsys().memory();
    // System page table: identity map first 1024 pages.
    const uint32_t sbr = 0x40000;
    for (uint32_t vpn = 0; vpn < 1024; ++vpn)
        mem.write(sbr + 4 * vpn, 4, mmu::pte::make(vpn));

    Assembler a(0x1000);
    a.emit(Op::MOVC3,
           {Operand::imm(48), Operand::abs(0x80004000),
            Operand::abs(0x80004800)});  // distinct pages
    a.emit(Op::HALT, {});
    const auto &img = a.finish();
    mem.load(0x1000, img.data(), static_cast<uint32_t>(img.size()));
    for (uint32_t i = 0; i < 48; ++i)
        mem.writeByte(0x4000 + i, static_cast<uint8_t>(0xA0 + i));

    cpu::Ebox &e = machine.ebox();
    e.writePr(mmu::pr::SBR, sbr);
    e.writePr(mmu::pr::SLR, 1024);
    e.writePr(mmu::pr::MAPEN, 1);
    e.reset(0x80001000, true);
    e.gpr(reg::SP) = 0x80008000;

    upc::UpcMonitor mon(machine.counters());
    machine.attachProbe(&mon);
    mon.start();
    machine.run(100000);
    ASSERT_TRUE(e.halted());
    for (uint32_t i = 0; i < 48; ++i)
        ASSERT_EQ(mem.readByte(0x4800 + i), 0xA0 + i) << i;
    // The miss routine ran at least twice (source + dest pages) plus
    // the I-stream page.
    const auto &marks = ucode::microcodeImage().marks;
    EXPECT_GE(mon.histogram().count(marks.tbMissD), 2u);
}
