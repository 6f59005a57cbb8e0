/**
 * @file
 * VMS-lite tests: boot, scheduling, system services, interrupt
 * delivery, context-switch integrity (a process's registers survive a
 * round trip through SVPCTX/LDPCTX), and the Null process.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "common/error.hh"
#include "os/kernel.hh"

using namespace upc780;
using namespace upc780::arch;
using namespace upc780::os;

namespace
{

/** A process that stamps a counter forever. */
ProcessImage
counterProcess(uint32_t stamp)
{
    Assembler a(0);
    VAddr entry = a.pc();
    a.emit(Op::MOVL, {Operand::imm(stamp), Operand::reg(6)});
    Label top = a.here();
    a.emit(Op::ADDL2, {Operand::lit(1), Operand::abs(0x2000)});
    a.emit(Op::MOVL, {Operand::reg(6), Operand::abs(0x2004)});
    a.emitBr(Op::BRB, top);
    auto bytes = a.finish();

    ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;
    img.thinkMeanCycles = 50000;
    return img;
}

/** A process that alternates work and terminal waits. */
ProcessImage
interactiveProcess()
{
    Assembler a(0);
    VAddr entry = a.pc();
    Label top = a.here();
    a.emit(Op::MOVL, {Operand::lit(50), Operand::reg(1)});
    Label loop = a.here();
    a.emit(Op::INCL, {Operand::abs(0x2000)});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, loop);
    a.emit(Op::CHMK, {Operand::lit(sys::TermWrite)});
    a.emit(Op::CHMK, {Operand::lit(sys::TermWait)});
    a.emitBr(Op::BRW, top);
    auto bytes = a.finish();

    ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;
    img.thinkMeanCycles = 20000;
    return img;
}

} // namespace

TEST(Os, BootRunsFirstProcess)
{
    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(counterProcess(0xAAAA));
    vms.boot();
    machine.run(50000);
    // The counter in process memory advances (read through the map).
    uint32_t count = static_cast<uint32_t>(
        machine.ebox().backdoorRead(0x2000, 4));
    EXPECT_GT(count, 100u);
    EXPECT_EQ(machine.ebox().backdoorRead(0x2004, 4), 0xAAAAu);
    EXPECT_EQ(vms.currentPid(), 1);
}

TEST(Os, BackdoorAccessCrossingIntoUnmappedPage)
{
    // counterProcess maps 24 P0 pages, so VA 0x3000 is the first
    // unmapped byte after them.
    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(counterProcess(1));
    vms.boot();
    machine.run(50000);
    ASSERT_EQ(vms.currentPid(), 1);
    cpu::Ebox &e = machine.ebox();
    constexpr VAddr End = 24 * 512;

    // A boundary inside the mapping: two page runs, one value.
    e.backdoorWrite(End - 0x202, 4, 0x44332211);
    EXPECT_EQ(e.backdoorRead(End - 0x202, 4), 0x44332211u);
    EXPECT_EQ(e.backdoorRead(End - 0x200, 2), 0x4433u);

    // Into the unmapped page: the error names its first byte ...
    try {
        e.backdoorRead(End - 2, 8);
        ADD_FAILURE() << "read across the mapping's end did not throw";
    } catch (const GuestError &err) {
        EXPECT_STREQ(err.what(), "backdoor read of unmapped VA 0x00003000");
    }
    // ... and a write stores its mapped page's bytes before it throws.
    e.backdoorWrite(End - 4, 4, 0);
    try {
        e.backdoorWrite(End - 2, 4, 0xDDCCBBAA);
        ADD_FAILURE() << "write across the mapping's end did not throw";
    } catch (const GuestError &err) {
        EXPECT_STREQ(err.what(),
                     "backdoor write of unmapped VA 0x00003000");
    }
    EXPECT_EQ(e.backdoorRead(End - 4, 4), 0xBBAA0000u);
}

TEST(Os, RoundRobinSharesProcessor)
{
    cpu::Vax780 machine;
    OsConfig cfg;
    cfg.timerPeriodCycles = 2000;
    cfg.quantumTicks = 2;
    VmsLite vms(machine, cfg);
    vms.addProcess(counterProcess(1));
    vms.addProcess(counterProcess(2));
    vms.boot();

    int switches_seen = 0;
    vms.setSwitchHook([&](int, bool) { ++switches_seen; });
    machine.run(400000);

    EXPECT_GT(switches_seen, 5);
    EXPECT_GT(vms.stats().contextSwitches, 5u);
    // Both processes made progress: stamp cell alternates, and both
    // counters (same VA, different address spaces!) advanced.
    EXPECT_GT(vms.stats().reschedRequests, 0u);
}

TEST(Os, ContextSwitchPreservesRegisters)
{
    // Two compute-bound processes with distinct register signatures;
    // after many quantum switches each still sees its own values.
    cpu::Vax780 machine;
    OsConfig cfg;
    cfg.timerPeriodCycles = 1500;
    cfg.quantumTicks = 1;
    VmsLite vms(machine, cfg);
    vms.addProcess(counterProcess(0x11111111));
    vms.addProcess(counterProcess(0x22222222));
    vms.boot();
    machine.run(600000);

    // Whichever process is current, its r6 matches its own stamp and
    // the stamp cell in ITS address space matches too.
    uint32_t r6 = machine.ebox().gpr(6);
    uint32_t stamp = static_cast<uint32_t>(
        machine.ebox().backdoorRead(0x2004, 4));
    EXPECT_TRUE(r6 == 0x11111111 || r6 == 0x22222222);
    EXPECT_EQ(r6, stamp);
}

TEST(Os, AddressSpacesAreDisjoint)
{
    cpu::Vax780 machine;
    OsConfig cfg;
    cfg.timerPeriodCycles = 1500;
    cfg.quantumTicks = 1;
    VmsLite vms(machine, cfg);
    vms.addProcess(counterProcess(0x11111111));
    vms.addProcess(counterProcess(0x22222222));
    vms.boot();
    machine.run(600000);

    // P0 VA 0x2004 resolves to different frames for the two PCBs; read
    // both physically via each process's page table.
    // (The walker path is exercised via backdoorRead for the current
    // process in the test above; here check they differ physically.)
    // Process images are allocated consecutively from ProcRegion.
    uint32_t base1 = pmap::ProcRegion;
    auto proto = counterProcess(0);
    // Each process image is followed by its P1 stack frames.
    uint32_t pages = proto.p0Pages + proto.p1StackPages;
    uint32_t base2 = base1 + pages * 512;
    uint32_t v1 = static_cast<uint32_t>(
        machine.memsys().memory().read(base1 + 0x2004, 4));
    uint32_t v2 = static_cast<uint32_t>(
        machine.memsys().memory().read(base2 + 0x2004, 4));
    EXPECT_EQ(v1, 0x11111111u);
    EXPECT_EQ(v2, 0x22222222u);
}

TEST(Os, TerminalWaitBlocksAndWakes)
{
    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(interactiveProcess());
    vms.boot();

    bool saw_idle = false;
    vms.setSwitchHook([&](int, bool is_idle) { saw_idle |= is_idle; });
    machine.run(500000);

    // With a single interactive process the Null process must run
    // during think time, and the process must wake repeatedly.
    EXPECT_TRUE(saw_idle);
    EXPECT_GT(vms.stats().syscalls, 4u);
    EXPECT_GT(vms.terminal().interrupts(), 1u);
    uint32_t count = static_cast<uint32_t>(
        machine.memsys().memory().read(pmap::ProcRegion + 0x2000, 4));
    EXPECT_GT(count, 100u);  // several sessions of 50 INCLs
}

TEST(Os, TimerInterruptsKeepComing)
{
    cpu::Vax780 machine;
    OsConfig cfg;
    cfg.timerPeriodCycles = 3000;
    VmsLite vms(machine, cfg);
    vms.addProcess(counterProcess(1));
    vms.boot();
    machine.run(90000);
    EXPECT_GE(vms.timer().interrupts(), 25u);
    // The kernel's tick counter (maintained by the ISR in VAX code)
    // matches the device's count.
    uint32_t ticks = static_cast<uint32_t>(
        machine.ebox().backdoorRead(kdata::TickCount, 4));
    EXPECT_EQ(ticks, vms.timer().interrupts());
}

TEST(Os, SyscallCounterMaintainedByKernelCode)
{
    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(interactiveProcess());
    vms.boot();
    machine.run(400000);
    uint32_t counted = static_cast<uint32_t>(
        machine.ebox().backdoorRead(kdata::SyscallCount, 4));
    EXPECT_EQ(counted, vms.stats().syscalls);
}

TEST(Os, GetTimeServiceReturnsCycles)
{
    // A process that calls GetTime and stores R1.
    Assembler a(0);
    VAddr entry = a.pc();
    Label top = a.here();
    a.emit(Op::CHMK, {Operand::lit(sys::GetTime)});
    a.emit(Op::MOVL, {Operand::reg(1), Operand::abs(0x2000)});
    a.emitBr(Op::BRW, top);
    auto bytes = a.finish();
    ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;

    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(img);
    vms.boot();
    machine.run(30000);
    uint32_t t = static_cast<uint32_t>(
        machine.ebox().backdoorRead(0x2000, 4));
    EXPECT_GT(t, 0u);
    EXPECT_LE(t, machine.cycles());
}

TEST(Os, RejectsDoubleBootAndLateProcesses)
{
    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(counterProcess(1));
    vms.boot();
    EXPECT_THROW(vms.boot(), upc780::ConfigError);
    EXPECT_THROW(vms.addProcess(counterProcess(2)), upc780::ConfigError);
}

TEST(Os, UserStackLivesInP1)
{
    // A process that pushes a marker and stores its SP.
    Assembler a(0);
    VAddr entry = a.pc();
    a.emit(Op::PUSHL, {Operand::imm(0xFEEDF00D)});
    a.emit(Op::MOVL, {Operand::reg(reg::SP), Operand::abs(0x2000)});
    Label self = a.here();
    a.emitBr(Op::BRB, self);
    auto bytes = a.finish();
    ProcessImage img;
    img.p0Image.assign(0x2100, 0);
    std::copy(bytes.begin(), bytes.end(), img.p0Image.begin());
    img.entry = entry;
    img.p0Pages = 0x2100 / 512 + 8;

    cpu::Vax780 machine;
    VmsLite vms(machine);
    vms.addProcess(img);
    vms.boot();
    machine.run(30000);

    uint32_t sp = static_cast<uint32_t>(
        machine.ebox().backdoorRead(0x2000, 4));
    // The push landed just below the top of the P1 control region.
    EXPECT_EQ(sp, 0x7FFFFFFCu);
    EXPECT_EQ(machine.ebox().backdoorRead(sp, 4), 0xFEEDF00Du);
    // And it resolves through the P1 page table, not P0.
    auto pa = mmu::walk(machine.memsys().memory(),
                        machine.ebox().mapRegisters(), sp);
    ASSERT_TRUE(pa.has_value());
    EXPECT_GE(*pa, pmap::ProcRegion);
}

TEST(Os, ImageMaterializesOnceAtFirstPick)
{
    // boot() maps frames from the shape alone; the materializer runs
    // when the pid is first dispatched, and only then.
    cpu::Vax780 machine;
    OsConfig cfg;
    cfg.timerPeriodCycles = 2000;
    cfg.quantumTicks = 1;
    VmsLite vms(machine, cfg);
    const ProcessImage proto = counterProcess(0);
    int calls[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        vms.addProcess(proto, [&calls, i] {
            ++calls[i];
            return counterProcess(0x100u + static_cast<uint32_t>(i));
        });
    }
    vms.boot();
    EXPECT_EQ(calls[0], 0);
    EXPECT_EQ(calls[1], 0);
    EXPECT_TRUE(vms.materializedPids().empty());
    const VmsLite::Frames f2 = vms.p0Frames(2);
    EXPECT_EQ(f2.pages, proto.p0Pages);
    EXPECT_EQ(machine.memsys().memory().read(f2.base + 0x2004, 4), 0u);

    machine.run(400000);
    EXPECT_EQ(calls[0], 1);
    EXPECT_EQ(calls[1], 1);
    EXPECT_EQ(vms.materializedPids(), (std::vector<int>{1, 2}));
    EXPECT_EQ(machine.memsys().memory().read(f2.base + 0x2004, 4), 0x101u);
}

TEST(Os, MisshapenImageIsRefusedAtFirstPick)
{
    // An image that does not fit the shape its frames were mapped for
    // must stop the run at its first pick, with nothing loaded.
    using Warp = void (*)(ProcessImage &);
    const std::pair<const char *, Warp> warps[] = {
        {"P0 pages", [](ProcessImage &img) { ++img.p0Pages; }},
        {"P1 pages", [](ProcessImage &img) { ++img.p1StackPages; }},
        {"think time", [](ProcessImage &img) { img.thinkMeanCycles *= 2; }},
        {"image size",
         [](ProcessImage &img) {
             img.p0Image.resize(size_t{img.p0Pages} * 512 + 1, 0);
         }},
    };
    for (const auto &[what, warp] : warps) {
        SCOPED_TRACE(what);
        cpu::Vax780 machine;
        VmsLite vms(machine);
        const ProcessImage proto = counterProcess(0);
        vms.addProcess(proto, [warp] {
            ProcessImage img = counterProcess(0xBAD);
            warp(img);
            return img;
        });
        vms.boot();
        EXPECT_THROW(machine.run(50000), upc780::ConfigError);
        EXPECT_TRUE(vms.materializedPids().empty());
        const VmsLite::Frames f = vms.p0Frames(1);
        for (uint32_t off = 0; off < f.pages * 512; off += 8)
            ASSERT_EQ(machine.memsys().memory().read(f.base + off, 8), 0u)
                << "frame byte " << off;
    }
}
