/**
 * @file
 * UPC monitor and analyzer tests: histogram bookkeeping, the Unibus
 * register interface, monitor passivity (attaching the monitor must
 * not change program execution by one cycle), composite accumulation,
 * and the analyzer's conservation laws on a real run.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "arch/assembler.hh"
#include "cpu/vax780.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

using namespace upc780;
using namespace upc780::arch;

namespace
{

/** Assemble a small busy program and run it to HALT. */
struct MachineRun
{
    explicit MachineRun(bool with_monitor)
    {
        Assembler a(0x1000);
        a.emit(Op::MOVL, {Operand::imm(0x4000), Operand::reg(2)});
        a.emit(Op::MOVL, {Operand::lit(40), Operand::reg(1)});
        Label top = a.here();
        a.emit(Op::ADDL2, {Operand::autoInc(2), Operand::reg(0)});
        a.emit(Op::MOVL, {Operand::reg(0), Operand::disp(0x100, 2)});
        a.emitBr(Op::SOBGTR, {Operand::reg(1)}, top);
        a.emit(Op::MOVC3, {Operand::imm(32), Operand::abs(0x5000),
                           Operand::abs(0x5100)});
        a.emit(Op::HALT, {});
        const auto &img = a.finish();

        machine = std::make_unique<cpu::Vax780>();
        machine->memsys().memory().load(
            0x1000, img.data(), static_cast<uint32_t>(img.size()));
        machine->ebox().reset(0x1000, false);
        machine->ebox().gpr(reg::SP) = 0x8000;
        if (with_monitor) {
            monitor =
                std::make_unique<upc::UpcMonitor>(machine->counters());
            machine->attachProbe(monitor.get());
            monitor->start();
        }
        machine->run(200000);
    }

    std::unique_ptr<cpu::Vax780> machine;
    std::unique_ptr<upc::UpcMonitor> monitor;
};

} // namespace

TEST(Monitor, PassivityExactState)
{
    MachineRun with(true), without(false);
    ASSERT_TRUE(with.machine->ebox().halted());
    ASSERT_TRUE(without.machine->ebox().halted());
    // Cycle-exact and architecturally identical.
    EXPECT_EQ(with.machine->cycles(), without.machine->cycles());
    for (unsigned r = 0; r < 16; ++r)
        EXPECT_EQ(with.machine->ebox().gpr(r),
                  without.machine->ebox().gpr(r));
    EXPECT_EQ(with.machine->ebox().instructions(),
              without.machine->ebox().instructions());
}

TEST(Monitor, CountsEveryCycleWhileRunning)
{
    MachineRun r(true);
    // Every cycle before HALT lands in exactly one bucket/bank.
    uint64_t total = r.monitor->histogram().totalCycles();
    EXPECT_EQ(total, r.monitor->observedCycles());
    EXPECT_GT(total, 0u);
}

TEST(Monitor, DecodeBucketCountsInstructions)
{
    MachineRun r(true);
    const auto &marks = ucode::microcodeImage().marks;
    // The machine keeps running at the halted micro-address after
    // HALT, so compare only the decode-bucket instruction count.
    EXPECT_EQ(r.monitor->histogram().count(marks.decode),
              r.machine->ebox().instructions());
}

TEST(Monitor, StartStopGates)
{
    obs::CounterRegistry n;
    upc::UpcMonitor m(n);
    m.cycle(5, false);
    EXPECT_EQ(m.histogram().count(5), 0u);  // not started
    m.start();
    m.cycle(5, false);
    m.cycle(5, true);
    m.stop();
    m.cycle(5, false);
    EXPECT_EQ(m.histogram().count(5), 1u);
    EXPECT_EQ(m.histogram().stall(5), 1u);
    EXPECT_EQ(m.observedCycles(), 2u);
}

TEST(Monitor, UnibusCsrInterface)
{
    obs::CounterRegistry n;
    upc::UpcMonitor m(n);
    EXPECT_EQ(m.readCsr(), 0);
    m.writeCsr(static_cast<uint16_t>(upc::UpcMonitor::Csr::Go));
    EXPECT_TRUE(m.running());
    m.cycle(7, false);
    m.writeCsr(0);
    EXPECT_FALSE(m.running());
    m.writeAddressPort(7);
    EXPECT_EQ(m.readDataPort(false), 1u);
    EXPECT_EQ(m.readDataPort(true), 0u);
    // Clear bit wipes the histogram.
    m.writeCsr(static_cast<uint16_t>(upc::UpcMonitor::Csr::Clear));
    EXPECT_EQ(m.readDataPort(false), 0u);
}

TEST(Histogram, Accumulate)
{
    upc::Histogram a, b;
    a.bumpCount(1);
    a.bumpStall(2);
    b.bumpCount(1);
    b.bumpCount(3);
    a.accumulate(b);
    EXPECT_EQ(a.count(1), 2u);
    EXPECT_EQ(a.count(3), 1u);
    EXPECT_EQ(a.stall(2), 1u);
    EXPECT_EQ(a.totalCycles(), 4u);
}

// ---------------------------------------------------------------------------
// Analyzer conservation laws on a real run
// ---------------------------------------------------------------------------

TEST(Analyzer, MatrixTotalEqualsCpi)
{
    MachineRun r(true);
    upc::HistogramAnalyzer an(r.monitor->histogram(),
                              ucode::microcodeImage());
    auto m = an.timingMatrix();
    EXPECT_NEAR(m.total(), an.cpi(), 1e-9);
}

TEST(Analyzer, EveryCycleHasARow)
{
    // "Every microcycle falls into exactly one row and one column."
    MachineRun r(true);
    const auto &img = ucode::microcodeImage();
    const auto &h = r.monitor->histogram();
    for (uint32_t a = 0; a < img.allocated; ++a) {
        ucode::UAddr u = static_cast<ucode::UAddr>(a);
        if (h.count(u) || h.stall(u)) {
            EXPECT_NE(img.rowOf(u), ucode::Row::None) << "uaddr " << a;
        }
    }
}

TEST(Analyzer, GroupFrequenciesSumToHundred)
{
    MachineRun r(true);
    upc::HistogramAnalyzer an(r.monitor->histogram(),
                              ucode::microcodeImage());
    auto f = an.opcodeGroupFrequency();
    double sum = 0;
    for (double v : f)
        sum += v;
    EXPECT_NEAR(sum, 100.0, 1e-6);
}

TEST(Analyzer, SpecCountsMatchProgramStructure)
{
    MachineRun r(true);
    upc::HistogramAnalyzer an(r.monitor->histogram(),
                              ucode::microcodeImage());
    // The test program: MOVL(2 specs) x2, loop of ADDL2(2) + MOVL(2) +
    // SOBGTR(1 spec + disp), then MOVC3 (3 specs). Every instruction
    // except HALT has a first specifier.
    uint64_t instr = an.instructions();
    double first = an.firstSpecsPerInstr();
    EXPECT_GT(first, 0.95);
    EXPECT_LE(first, 1.0);
    EXPECT_GT(an.otherSpecsPerInstr(), 0.5);
    // 40 SOBGTRs out of ~126 instructions carry branch displacements.
    EXPECT_NEAR(an.branchDispsPerInstr(),
                40.0 / static_cast<double>(instr), 0.02);
}

TEST(Analyzer, TakenNeverExceedsExecuted)
{
    MachineRun r(true);
    upc::HistogramAnalyzer an(r.monitor->histogram(),
                              ucode::microcodeImage());
    auto rows = an.pcChanging();
    for (const auto &row : rows)
        EXPECT_LE(row.taken, row.executed);
    // SOBGTR: 39 of 40 executions branch back.
    const auto &loop = rows[size_t(arch::PcClass::Loop)];
    EXPECT_EQ(loop.executed, 40u);
    EXPECT_EQ(loop.taken, 39u);
}

TEST(Analyzer, ReadsAndWritesAttributed)
{
    MachineRun r(true);
    upc::HistogramAnalyzer an(r.monitor->histogram(),
                              ucode::microcodeImage());
    auto tot = an.refsTotal();
    // The loop does one read + one write per iteration, plus MOVC3.
    EXPECT_GT(tot.reads, 0.3);
    EXPECT_GT(tot.writes, 0.3);
    // Every memory reference the analyzer sees must also have been
    // seen by the cache (plus IB refills it cannot see).
    double instr = static_cast<double>(an.instructions());
    EXPECT_NEAR(tot.reads,
                static_cast<double>(
                    r.machine->counters().total(obs::Ev::CacheDReads)) /
                    instr,
                0.35);
}

TEST(Analyzer, EmptyHistogramIsSafe)
{
    upc::Histogram h;
    upc::HistogramAnalyzer an(h, ucode::microcodeImage());
    EXPECT_EQ(an.instructions(), 0u);
    EXPECT_EQ(an.cpi(), 0.0);
    EXPECT_EQ(an.timingMatrix().total(), 0.0);
    EXPECT_EQ(an.interruptHeadway(), 0.0);
}

// ---------------------------------------------------------------------------
// Analyzer unit behaviour on synthetic histograms
// ---------------------------------------------------------------------------

TEST(AnalyzerSynthetic, ColumnsFollowStaticMemFunction)
{
    const auto &img = ucode::microcodeImage();
    upc::Histogram h;
    // 10 instructions, each one decode cycle.
    for (int i = 0; i < 10; ++i)
        h.bumpCount(img.marks.decode);
    // 5 cycles at a known read micro-op (a SPEC1 read tail) with 30
    // stalled cycles there; 4 IB-stall cycles at the decode stall.
    ucode::UAddr read_word = 0;
    for (uint32_t a = 1; a < img.allocated; ++a) {
        if (img.rowOf(static_cast<ucode::UAddr>(a)) ==
                ucode::Row::Spec1 &&
            img.ops[a].mem == ucode::Mem::ReadV) {
            read_word = static_cast<ucode::UAddr>(a);
            break;
        }
    }
    ASSERT_NE(read_word, 0u);
    for (int i = 0; i < 5; ++i)
        h.bumpCount(read_word);
    for (int i = 0; i < 30; ++i)
        h.bumpStall(read_word);
    for (int i = 0; i < 4; ++i)
        h.bumpCount(img.marks.ibStallDecode);

    upc::HistogramAnalyzer an(h, img);
    EXPECT_EQ(an.instructions(), 10u);
    auto m = an.timingMatrix();
    EXPECT_DOUBLE_EQ(m.cell[size_t(ucode::Row::Decode)]
                           [size_t(upc::Col::Compute)], 1.0);
    EXPECT_DOUBLE_EQ(m.cell[size_t(ucode::Row::Decode)]
                           [size_t(upc::Col::IbStall)], 0.4);
    EXPECT_DOUBLE_EQ(m.cell[size_t(ucode::Row::Spec1)]
                           [size_t(upc::Col::Read)], 0.5);
    EXPECT_DOUBLE_EQ(m.cell[size_t(ucode::Row::Spec1)]
                           [size_t(upc::Col::RStall)], 3.0);
    EXPECT_DOUBLE_EQ(m.total(), an.cpi());
}

TEST(AnalyzerSynthetic, WriteStallsLandInWStall)
{
    const auto &img = ucode::microcodeImage();
    upc::Histogram h;
    h.bumpCount(img.marks.decode);
    ucode::UAddr write_word = 0;
    for (uint32_t a = 1; a < img.allocated; ++a) {
        if (img.ops[a].mem == ucode::Mem::WriteV) {
            write_word = static_cast<ucode::UAddr>(a);
            break;
        }
    }
    ASSERT_NE(write_word, 0u);
    h.bumpCount(write_word);
    h.bumpStall(write_word);
    h.bumpStall(write_word);

    upc::HistogramAnalyzer an(h, img);
    auto m = an.timingMatrix();
    EXPECT_DOUBLE_EQ(m.colTotal(upc::Col::Write), 1.0);
    EXPECT_DOUBLE_EQ(m.colTotal(upc::Col::WStall), 2.0);
    EXPECT_DOUBLE_EQ(m.colTotal(upc::Col::RStall), 0.0);
}

TEST(AnalyzerSynthetic, GroupFrequencyFromExecEntries)
{
    const auto &img = ucode::microcodeImage();
    upc::Histogram h;
    ucode::UAddr movl =
        img.execEntry[static_cast<uint8_t>(arch::Op::MOVL)];
    ucode::UAddr addf =
        img.execEntry[static_cast<uint8_t>(arch::Op::ADDF2)];
    for (int i = 0; i < 4; ++i) {
        h.bumpCount(img.marks.decode);
        h.bumpCount(movl);
    }
    h.bumpCount(img.marks.decode);
    h.bumpCount(addf);
    // (one decode without exec entry: in-flight tail)
    h.bumpCount(img.marks.decode);

    upc::HistogramAnalyzer an(h, img);
    auto f = an.opcodeGroupFrequency();
    EXPECT_DOUBLE_EQ(f[size_t(arch::Group::Simple)], 80.0);
    EXPECT_DOUBLE_EQ(f[size_t(arch::Group::Float)], 20.0);
}

TEST(Histogram, SaveLoadRoundTrip)
{
    MachineRun r(true);
    const upc::Histogram &orig = r.monitor->histogram();
    ASSERT_TRUE(orig.saveTo("/tmp/upc780_hist_test.txt"));

    upc::Histogram loaded;
    ASSERT_TRUE(loaded.loadFrom("/tmp/upc780_hist_test.txt"));
    EXPECT_EQ(loaded.totalCounts(), orig.totalCounts());
    EXPECT_EQ(loaded.totalStalls(), orig.totalStalls());
    for (uint32_t a = 0; a < upc::Histogram::NumBuckets; ++a) {
        ASSERT_EQ(loaded.count(a), orig.count(a)) << a;
        ASSERT_EQ(loaded.stall(a), orig.stall(a)) << a;
    }
    // The analysis of the reloaded histogram is identical.
    upc::HistogramAnalyzer a1(orig, ucode::microcodeImage());
    upc::HistogramAnalyzer a2(loaded, ucode::microcodeImage());
    EXPECT_DOUBLE_EQ(a1.cpi(), a2.cpi());
}

TEST(Histogram, LoadRejectsGarbage)
{
    upc::Histogram h;
    EXPECT_FALSE(h.loadFrom("/nonexistent/path"));
    std::FILE *f = std::fopen("/tmp/upc780_garbage.txt", "w");
    std::fputs("not a histogram\n", f);
    std::fclose(f);
    EXPECT_FALSE(h.loadFrom("/tmp/upc780_garbage.txt"));
}
