/**
 * @file
 * Quickstart: assemble a small VAX program, run it on the modeled
 * 11/780 with the UPC histogram monitor attached, and read the
 * histogram back through the board's Unibus-style register interface.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "arch/assembler.hh"
#include "cpu/vax780.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"

using namespace upc780;
using namespace upc780::arch;

int
main()
{
    // ----- 1. Assemble a program: sum an array, then copy a string. ----
    Assembler a(0x1000);
    Label loop = a.newLabel();

    a.emit(Op::MOVAB, {Operand::abs(0x4000), Operand::reg(2)});  // array
    a.emit(Op::CLRL, {Operand::reg(0)});                         // sum
    a.emit(Op::MOVL, {Operand::lit(32), Operand::reg(1)});       // count
    a.bind(loop);
    a.emit(Op::ADDL2, {Operand::autoInc(2), Operand::reg(0)});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, loop);
    // MOVC3 clobbers R0-R5 (it leaves its own results there), so the
    // sum must be parked in a high register first -- real VAX code had
    // to do exactly this.
    a.emit(Op::MOVL, {Operand::reg(0), Operand::reg(6)});
    a.emit(Op::MOVC3, {Operand::imm(24), Operand::abs(0x4100),
                       Operand::abs(0x4200)});
    a.emit(Op::HALT, {});
    const auto &image = a.finish();

    // ----- 2. Build the machine and load the program. -------------------
    cpu::Vax780 machine;
    machine.memsys().memory().load(
        0x1000, image.data(), static_cast<uint32_t>(image.size()));
    for (uint32_t i = 0; i < 32; ++i)
        machine.memsys().memory().write(0x4000 + 4 * i, 4, i + 1);
    for (uint32_t i = 0; i < 24; ++i)
        machine.memsys().memory().writeByte(0x4100 + i, 'A' + i % 26);

    machine.ebox().reset(0x1000, /*map_enabled=*/false);
    machine.ebox().gpr(reg::SP) = 0x8000;

    // ----- 3. Attach the UPC monitor (passively) and run. ----------------
    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    monitor.writeCsr(static_cast<uint16_t>(upc::UpcMonitor::Csr::Go));

    machine.run(100000);
    monitor.stop();

    std::printf("Program halted after %llu cycles, %llu instructions\n",
                static_cast<unsigned long long>(machine.cycles()),
                static_cast<unsigned long long>(
                    machine.ebox().instructions()));
    std::printf("Array sum (r6) = %u (expected %u)\n",
                machine.ebox().gpr(6), 32 * 33 / 2);
    std::printf("Copied string byte: '%c'\n",
                machine.memsys().memory().readByte(0x4200));

    // ----- 4. Interpret the histogram. -----------------------------------
    upc::HistogramAnalyzer an(monitor.histogram(),
                              ucode::microcodeImage());
    std::printf("\nUPC analysis:\n");
    std::printf("  cycles per instruction:  %.2f\n", an.cpi());
    std::printf("  specifiers/instruction:  %.2f\n",
                an.firstSpecsPerInstr() + an.otherSpecsPerInstr());
    auto mtx = an.timingMatrix();
    std::printf("  compute / read / stall:  %.2f / %.2f / %.2f "
                "cycles per instruction\n",
                mtx.colTotal(upc::Col::Compute),
                mtx.colTotal(upc::Col::Read),
                mtx.colTotal(upc::Col::RStall));

    // Raw bucket access through the Unibus data port, the way the
    // paper's data-reduction software read the board.
    const auto &marks = ucode::microcodeImage().marks;
    upc::UpcMonitor &board = monitor;
    board.writeAddressPort(marks.decode);
    std::printf("  decode bucket (instr count): %llu\n",
                static_cast<unsigned long long>(
                    board.readDataPort(false)));
    return 0;
}
