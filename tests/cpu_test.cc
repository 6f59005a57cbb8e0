/**
 * @file
 * CPU integration tests: assembled VAX programs executed by the
 * microcoded machine, with architectural results and cycle-level
 * behaviour checked.
 */

#include <gtest/gtest.h>

#include "arch/assembler.hh"
#include "cpu/vax780.hh"

using namespace upc780;
using namespace upc780::arch;
using namespace upc780::cpu;

namespace
{

/** Build a machine, load @p image at @p base, run with MAP off. */
class BareMachine
{
  public:
    explicit BareMachine(Assembler &assembler)
    {
        const auto &bytes = assembler.finish();
        machine.memsys().memory().load(
            assembler.base(), bytes.data(),
            static_cast<uint32_t>(bytes.size()));
        machine.ebox().reset(assembler.base(), false);
        // Give the machine a stack.
        machine.ebox().gpr(reg::SP) = 0x8000;
    }

    /** Run to HALT; returns cycles used. */
    uint64_t
    runToHalt(uint64_t max_cycles = 1000000)
    {
        uint64_t n = machine.run(max_cycles);
        EXPECT_TRUE(machine.ebox().halted())
            << "machine did not halt within " << max_cycles << " cycles";
        return n;
    }

    uint32_t r(unsigned i) { return machine.ebox().gpr(i); }

    Vax780 machine;
};

TEST(CpuBasic, MovAndAdd)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::imm(5), Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::imm(7), Operand::reg(1)});
    a.emit(Op::ADDL3, {Operand::reg(0), Operand::reg(1),
                       Operand::reg(2)});
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(0), 5u);
    EXPECT_EQ(m.r(1), 7u);
    EXPECT_EQ(m.r(2), 12u);
    EXPECT_EQ(m.machine.ebox().instructions(), 4u);
}

TEST(CpuBasic, LiteralAndRegisterModes)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::lit(42), Operand::reg(3)});
    a.emit(Op::SUBL2, {Operand::lit(2), Operand::reg(3)});
    a.emit(Op::MCOML, {Operand::reg(3), Operand::reg(4)});
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(3), 40u);
    EXPECT_EQ(m.r(4), ~40u);
}

TEST(CpuBasic, MemoryOperandsAndDisplacement)
{
    Assembler a(0x1000);
    // r5 points at a data area; store then reload through memory.
    a.emit(Op::MOVL, {Operand::imm(0x2000), Operand::reg(5)});
    a.emit(Op::MOVL, {Operand::imm(0xDEADBEEF), Operand::disp(8, 5)});
    a.emit(Op::MOVL, {Operand::disp(8, 5), Operand::reg(0)});
    a.emit(Op::ADDL2, {Operand::lit(1), Operand::disp(8, 5)});
    a.emit(Op::MOVL, {Operand::disp(8, 5), Operand::reg(1)});
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(0), 0xDEADBEEFu);
    EXPECT_EQ(m.r(1), 0xDEADBEF0u);
}

TEST(CpuBasic, LoopSobgtr)
{
    // Sum 1..10 with SOBGTR.
    Assembler a(0x1000);
    a.emit(Op::CLRL, {Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::lit(10), Operand::reg(1)});
    Label top = a.here();
    a.emit(Op::ADDL2, {Operand::reg(1), Operand::reg(0)});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, top);
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(0), 55u);
    EXPECT_EQ(m.r(1), 0u);
}

TEST(CpuBasic, ConditionalBranches)
{
    Assembler a(0x1000);
    Label less = a.newLabel();
    Label done = a.newLabel();
    a.emit(Op::MOVL, {Operand::lit(3), Operand::reg(0)});
    a.emit(Op::CMPL, {Operand::reg(0), Operand::lit(5)});
    a.emitBr(Op::BLSS, less);
    a.emit(Op::MOVL, {Operand::lit(1), Operand::reg(1)});
    a.emitBr(Op::BRB, done);
    a.bind(less);
    a.emit(Op::MOVL, {Operand::lit(2), Operand::reg(1)});
    a.bind(done);
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(1), 2u);
}

TEST(CpuBasic, AutoIncrementAndDecrement)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::imm(0x3000), Operand::reg(2)});
    a.emit(Op::MOVL, {Operand::imm(0x11), Operand::autoInc(2)});
    a.emit(Op::MOVL, {Operand::imm(0x22), Operand::autoInc(2)});
    a.emit(Op::MOVL, {Operand::autoDec(2), Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::autoDec(2), Operand::reg(1)});
    a.emit(Op::HALT, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(0), 0x22u);
    EXPECT_EQ(m.r(1), 0x11u);
    EXPECT_EQ(m.r(2), 0x3000u);
}

TEST(CpuBasic, SubroutineLinkage)
{
    Assembler a(0x1000);
    Label sub = a.newLabel();
    a.emit(Op::MOVL, {Operand::lit(4), Operand::reg(0)});
    a.emitBr(Op::BSBB, sub);
    a.emit(Op::HALT, {});
    a.bind(sub);
    a.emit(Op::ADDL2, {Operand::lit(6), Operand::reg(0)});
    a.emit(Op::RSB, {});

    BareMachine m(a);
    m.runToHalt();
    EXPECT_EQ(m.r(0), 10u);
}

TEST(CpuBasic, ProcedureCallReturn)
{
    Assembler a(0x1000);
    Label func = a.newLabel();
    Label main_halt = a.newLabel();
    // main: push 2 args, CALLS
    a.emit(Op::PUSHL, {Operand::imm(30)});
    a.emit(Op::PUSHL, {Operand::imm(12)});
    a.emit(Op::MOVL, {Operand::imm(0xAAAA), Operand::reg(2)});
    // CALLS #2, func  -- func must be an address operand
    a.emit(Op::CALLS, {Operand::lit(2), Operand::abs(0)});
    // The abs(0) placeholder: patch below via second assembly pass is
    // awkward, so instead use a register destination.
    a.bind(main_halt);
    a.emit(Op::HALT, {});
    a.bind(func);
    // entry mask: save r2, r3
    a.dw(0x000C);
    // r0 = arg1 + arg2  (4(ap), 8(ap))
    a.emit(Op::ADDL3, {Operand::disp(4, reg::AP),
                       Operand::disp(8, reg::AP), Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::lit(1), Operand::reg(2)});  // clobber r2
    a.emit(Op::RET, {});

    // Fix the CALLS destination: re-assemble with the known address.
    // (The label-based address is only known after layout, so this
    // test reconstructs the program with the resolved address.)
    const auto &img1 = a.finish();
    (void)img1;

    // Reconstruct with resolved destination.
    Assembler b(0x1000);
    Label func2 = b.newLabel();
    b.emit(Op::PUSHL, {Operand::imm(30)});
    b.emit(Op::PUSHL, {Operand::imm(12)});
    b.emit(Op::MOVL, {Operand::imm(0xAAAA), Operand::reg(2)});
    // Use MOVAB-style: load func address into r6 first, call (r6).
    // Keep the same instruction count by using a register operand.
    b.emit(Op::MOVL, {Operand::imm(0), Operand::reg(6)});
    // The MOVL encoding is D0 8F <imm:4> 56; the immediate starts five
    // bytes before the end.
    size_t patch_at = b.size() - 5;
    b.emit(Op::CALLS, {Operand::lit(2), Operand::regDef(6)});
    b.emit(Op::HALT, {});
    b.bind(func2);
    b.dw(0x000C);
    b.emit(Op::ADDL3, {Operand::disp(4, reg::AP),
                       Operand::disp(8, reg::AP), Operand::reg(0)});
    b.emit(Op::MOVL, {Operand::lit(1), Operand::reg(2)});
    b.emit(Op::RET, {});
    auto bytes = b.finish();
    // Patch the immediate with func2's address.
    uint32_t func_addr = 0x1000 + 0;
    // Find func2 address: it was bound after HALT; compute from sizes.
    // Simpler: scan for the entry mask 0x000C after the HALT byte.
    for (size_t i = 0; i + 1 < bytes.size(); ++i) {
        if (bytes[i] == 0x00 /*HALT*/ && bytes[i + 1] == 0x0C &&
            bytes[i + 2] == 0x00) {
            func_addr = 0x1000 + static_cast<uint32_t>(i + 1);
            break;
        }
    }
    std::vector<uint8_t> patched = bytes;
    for (int i = 0; i < 4; ++i)
        patched[patch_at + i] =
            static_cast<uint8_t>(func_addr >> (8 * i));

    Vax780 machine;
    machine.memsys().memory().load(
        0x1000, patched.data(), static_cast<uint32_t>(patched.size()));
    machine.ebox().reset(0x1000, false);
    machine.ebox().gpr(reg::SP) = 0x8000;
    machine.run(100000);
    ASSERT_TRUE(machine.ebox().halted());
    EXPECT_EQ(machine.ebox().gpr(0), 42u);
    EXPECT_EQ(machine.ebox().gpr(2), 0xAAAAu);  // restored by RET
    EXPECT_EQ(machine.ebox().gpr(reg::SP), 0x8000u);  // stack balanced
}

TEST(CpuBasic, Movc3CopiesMemory)
{
    Assembler a(0x1000);
    a.emit(Op::MOVC3, {Operand::imm(16), Operand::abs(0x2000),
                       Operand::abs(0x2100)});
    a.emit(Op::HALT, {});

    BareMachine m(a);
    for (uint32_t i = 0; i < 16; ++i)
        m.machine.memsys().memory().writeByte(0x2000 + i,
                                              static_cast<uint8_t>(i * 3));
    m.runToHalt();
    for (uint32_t i = 0; i < 16; ++i) {
        EXPECT_EQ(m.machine.memsys().memory().readByte(0x2100 + i),
                  static_cast<uint8_t>(i * 3));
    }
    EXPECT_EQ(m.r(1), 0x2010u);
    EXPECT_EQ(m.r(3), 0x2110u);
}

TEST(CpuTiming, RegisterMoveTakesFewCycles)
{
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::reg(1), Operand::reg(2)});
    a.emit(Op::HALT, {});
    BareMachine m(a);
    uint64_t cycles = m.runToHalt();
    // MOVL r1, r2: decode(1) + spec1(1) + exec(1) + spec2-write(1),
    // plus decode/execute of HALT and initial IB fill stalls.
    EXPECT_LT(cycles, 30u);
}

TEST(CpuTiming, CacheMissCausesReadStall)
{
    // Two identical loads: the second should be faster (cache hit).
    Assembler a(0x1000);
    a.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(0)});
    a.emit(Op::HALT, {});
    BareMachine m1(a);
    uint64_t c1 = m1.runToHalt();

    Assembler b(0x1000);
    b.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(0)});
    b.emit(Op::MOVL, {Operand::abs(0x4000), Operand::reg(1)});
    b.emit(Op::HALT, {});
    BareMachine m2(b);
    uint64_t c2 = m2.runToHalt();

    // The second load hits the cache: it must cost at least the
    // 6-cycle miss penalty less than a fresh miss would.
    EXPECT_LT(c2 - c1, c1);
    EXPECT_EQ(m2.machine.counters().total(obs::Ev::CacheDReadMisses), 1u);
}

} // namespace
