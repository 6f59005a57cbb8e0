#include "workload/codegen.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "cpu/vaxfloat.hh"
#include "mmu/pagetable.hh"
#include "os/layout.hh"

namespace upc780::wkl
{

using namespace upc780::arch;

namespace
{

// Stable base registers the generated code never clobbers: r9 points
// at the long array, r10 at the data region, r11 at the bitmap.
constexpr unsigned RA = 9;
constexpr unsigned RB = 10;
constexpr unsigned RC = 11;

} // namespace

ProgramGenerator::ProgramGenerator(const WorkloadProfile &profile,
                                   uint64_t seed)
    : profile_(profile), rng_(seed)
{
}

int32_t
ProgramGenerator::longOff(Rng &rng) const
{
    // Programs exhibit locality: most scalar references fall in a hot
    // window of the working array, the rest range over the whole
    // footprint (which sets the cache/TB pressure).
    if (d_.hotCount && rng.chance(0.65)) {
        return 4 * static_cast<int32_t>(d_.hotStart +
                                        rng.below(d_.hotCount));
    }
    return 4 * static_cast<int32_t>(rng.below(d_.longArrCount));
}

Operand
ProgramGenerator::memOperand(bool allow_indexed)
{
    // Mode mix aimed at the paper's Table 4: displacement dominant,
    // register deferred and autoincrement next, deferred/absolute
    // rare, ~6% indexed.
    double x = rng_.uniform();
    // A small fraction of scalar references are unaligned (packed
    // record fields), matching the paper's 0.016/instruction.
    int32_t skew = rng_.chance(0.03)
                       ? static_cast<int32_t>(1 + rng_.below(3))
                       : 0;
    Operand o = [&] {
        if (x < 0.62)
            return Operand::disp(longOff(rng_) + skew, RA);
        if (x < 0.74) {
            // The same array addressed off the region base register
            // (longer displacements, the way compilers address
            // statics off a module base).
            return Operand::disp(static_cast<int32_t>(
                                     d_.longArr - d_.base) + longOff(rng_),
                                 RB);
        }
        if (x < 0.86)
            return Operand::regDef(RA);
        if (x < 0.94)
            return Operand::disp(static_cast<int32_t>(
                                     d_.scratch - d_.base +
                                     4 * rng_.below(16)), RB);
        if (x < 0.97) {
            // Deferred through the pointer table (valid pointers only).
            return Operand::dispDef(
                static_cast<int32_t>(d_.ptrTable - d_.base +
                                     4 * rng_.below(d_.ptrCount)),
                RB);
        }
        return Operand::abs(d_.longArr + longOff(rng_));
    }();
    (void)allow_indexed;
    if (rng_.chance(0.32))
        return o.indexed(8);  // r8 is kept small (see block inits)
    return o;
}

Operand
ProgramGenerator::srcOperand()
{
    double x = rng_.uniform();
    if (x < 0.20)
        return Operand::reg(rng_.chance(0.5) ? 6 : 4);  // r6/r4
    if (x < 0.33)
        return Operand::lit(static_cast<uint8_t>(rng_.below(64)));
    if (x < 0.36)
        return Operand::imm(rng_.below(100000));
    return memOperand();
}

// ---------------------------------------------------------------------------
// Block emitters
// ---------------------------------------------------------------------------


void
ProgramGenerator::emitStatement(Assembler &a)
{
    double x = rng_.uniform();
    if (x < 0.17) {
        a.emit(Op::ADDL2, {srcOperand(), Operand::reg(6)});
    } else if (x < 0.33) {
        a.emit(Op::MOVL, {srcOperand(),
                          rng_.chance(0.7)
                              ? Operand::reg(rng_.chance(0.5) ? 6 : 4)
                              : memOperand()});
    } else if (x < 0.33) {
        a.emit(Op::MOVL, {Operand::reg(6), memOperand(false)});
    } else if (x < 0.80) {
        // Conditional over one or two operations.
        Label skip = a.newLabel();
        if (rng_.chance(0.22)) {
            // Error-check style test that almost never branches.
            a.emit(Op::CMPL, {Operand::reg(RA),
                              Operand::lit(static_cast<uint8_t>(
                                  rng_.below(8)))});
            a.emitBr(rng_.chance(0.5) ? Op::BEQL : Op::BLSS, skip);
        } else if (rng_.chance(0.55)) {
            a.emit(Op::CMPL, {Operand::reg(6),
                              rng_.chance(0.5) ? memOperand()
                                               : srcOperand()});
            static const Op conds[] = {Op::BEQL, Op::BNEQ, Op::BGTR,
                                       Op::BLSS, Op::BGEQ, Op::BLEQ};
            a.emitBr(conds[rng_.below(6)], skip);
        } else {
            a.emit(Op::TSTL, {memOperand(false)});
            a.emitBr(rng_.chance(0.5) ? Op::BNEQ : Op::BEQL, skip);
        }
        a.emit(Op::ADDL2, {Operand::lit(static_cast<uint8_t>(
                               1 + rng_.below(15))), Operand::reg(6)});
        if (rng_.chance(0.12))
            a.emit(Op::MOVL, {Operand::reg(6), memOperand(false)});
        a.bind(skip);
    } else if (x < 0.84) {
        // Low-bit test on a freshly loaded flag byte.
        Label skip = a.newLabel();
        a.emit(Op::MOVZBL,
               {Operand::disp(static_cast<int32_t>(
                                  rng_.below(d_.byteArrCount)), RC),
                Operand::reg(3)});
        a.emitBr(rng_.chance(0.5) ? Op::BLBS : Op::BLBC,
                 {Operand::reg(3)}, skip);
        a.emit(Op::INCL, {Operand::reg(6)});
        a.bind(skip);
    } else if (x < 0.88) {
        // Leaf subroutine call.
        a.emit(Op::JSB,
               {Operand::rel(jsbTargets_[rng_.below(
                   jsbTargets_.size())])});
    } else if (x < 0.91) {
        a.emit(rng_.chance(0.6) ? Op::ADDL2 : Op::BISL2,
               {Operand::lit(static_cast<uint8_t>(1 + rng_.below(8))),
                memOperand(false)});
    } else if (x < 0.94) {
        // Save/restore through the stack: -(SP) and (SP)+ operands.
        a.emit(Op::MOVL, {Operand::reg(6),
                          Operand::autoDec(reg::SP)});
        a.emit(Op::MOVL, {Operand::autoInc(reg::SP), Operand::reg(4)});
    } else if (x < 0.955) {
        // Argument-list walk: autoincrement deferred through the
        // pointer table.
        a.emit(Op::MOVAB, {Operand::abs(d_.ptrTable), Operand::reg(2)});
        a.emit(Op::MOVL, {Operand::autoIncDef(2), Operand::reg(4)});
        if (rng_.chance(0.5))
            a.emit(Op::ADDL2, {Operand::autoIncDef(2),
                               Operand::reg(6)});
    } else if (x < 0.965) {
        // Unconditional JMP over a dead patch (error-path style code).
        Label over = a.newLabel();
        a.emit(Op::JMP, {Operand::rel(over)});
        a.emit(Op::INCL, {Operand::reg(6)});
        a.emit(Op::DECL, {Operand::reg(6)});
        a.bind(over);
    } else if (x < 0.975) {
        a.emit(Op::CLRL, {rng_.chance(0.6) ? Operand::reg(4)
                                           : memOperand(false)});
    } else {
        a.emit(Op::ADDL3, {memOperand(false), srcOperand(),
                           Operand::reg(4)});
    }
}

void
ProgramGenerator::emitIntLoop(Assembler &a)
{
    uint32_t iters = 4 + rng_.below(13);  // mean ~10 (paper §3.1)

    if (rng_.chance(0.45)) {
        // Sequential scan through a fresh slice of the working array
        // (record processing / buffer copying): touches many cache
        // lines within few pages.
        a.emit(Op::MOVAB,
               {Operand::disp(longOff(rng_), RA), Operand::reg(2)});
        a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(
                              8 + rng_.below(24))), Operand::reg(7)});
        Label top = a.here();
        a.emit(Op::ADDL2, {Operand::autoInc(2), Operand::reg(6)});
        a.emit(Op::MOVL, {Operand::autoInc(2), Operand::reg(4)});
        if (rng_.chance(0.5)) {
            Label skip = a.newLabel();
            a.emit(Op::CMPL, {Operand::reg(4), Operand::reg(6)});
            a.emitBr(rng_.chance(0.5) ? Op::BGTR : Op::BLEQ, skip);
            a.emit(Op::ADDL2, {Operand::lit(1), Operand::reg(6)});
            a.bind(skip);
        }
        if (rng_.chance(0.4))
            a.emit(Op::MOVL, {Operand::reg(6), Operand::regDef(2)});
        a.emit(Op::BICL2, {Operand::lit(1), Operand::reg(4)});
        a.emitBr(Op::SOBGTR, {Operand::reg(7)}, top);
        return;
    }

    if (rng_.chance(0.4)) {
        // Short loop: fits a byte-displacement SOB/AOB branch.
        uint32_t body = 1 + rng_.below(2);
        if (rng_.chance(0.4)) {
            a.emit(Op::CLRL, {Operand::reg(7)});
            Label top = a.here();
            for (uint32_t i = 0; i < body; ++i)
                emitStatement(a);
            a.emitBr(Op::AOBLSS,
                     {Operand::lit(static_cast<uint8_t>(iters)),
                      Operand::reg(7)},
                     top);
        } else {
            a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(iters)),
                              Operand::reg(7)});
            Label top = a.here();
            for (uint32_t i = 0; i < body; ++i)
                emitStatement(a);
            a.emitBr(Op::SOBGTR, {Operand::reg(7)}, top);
        }
        return;
    }

    // Long loop: a rich body closed by ACBL, whose word displacement
    // reaches back over it.
    uint32_t body = 10 + rng_.below(8);
    a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(iters)),
                      Operand::reg(7)});
    Label top = a.here();
    for (uint32_t i = 0; i < body; ++i)
        emitStatement(a);
    a.emitBr(Op::ACBL,
             {Operand::lit(1), Operand::imm(static_cast<uint64_t>(-1)),
              Operand::reg(7)},
             top);
}

void
ProgramGenerator::emitDataMove(Assembler &a)
{
    uint32_t n = 3 + rng_.below(4);
    for (uint32_t i = 0; i < n; ++i) {
        double x = rng_.uniform();
        if (x < 0.45) {
            a.emit(Op::MOVL, {srcOperand(),
                              rng_.chance(0.68)
                                  ? Operand::reg(6 + rng_.below(2))
                                  : memOperand()});
        } else if (x < 0.55) {
            a.emit(rng_.chance(0.5) ? Op::MOVW : Op::MOVB,
                   {Operand::reg(6), memOperand(false)});
        } else if (x < 0.62) {
            // Memory-to-memory three-operand arithmetic, the idiom
            // CISC compilers emitted freely.
            a.emit(Op::ADDL3, {memOperand(false), memOperand(false),
                               Operand::reg(7)});
        } else if (x < 0.7) {
            // Counter-update idiom: read-modify-write of a memory
            // cell as the second operand (ADDL2 #n, COUNTER).
            a.emit(rng_.chance(0.6) ? Op::ADDL2 : Op::BISL2,
                   {rng_.chance(0.6)
                        ? Operand::lit(static_cast<uint8_t>(
                              1 + rng_.below(8)))
                        : Operand::reg(6),
                    memOperand(false)});
        } else if (x < 0.74) {
            a.emit(Op::CLRL, {rng_.chance(0.5)
                                  ? Operand::reg(7)
                                  : memOperand(false)});
        } else if (x < 0.8) {
            a.emit(Op::MOVZBL,
                   {Operand::disp(static_cast<int32_t>(
                                      rng_.below(d_.byteArrCount)),
                                  RC),
                    Operand::reg(7)});
        } else if (x < 0.9) {
            a.emit(Op::PUSHL, {srcOperand()});
            a.emit(Op::MOVL, {Operand::autoInc(reg::SP),
                              Operand::reg(6)});
        } else {
            a.emit(Op::MOVAB, {memOperand(false), Operand::reg(2)});
            a.emit(Op::MOVL, {Operand::regDef(2), Operand::reg(7)});
        }
    }
}

void
ProgramGenerator::emitBranchy(Assembler &a)
{
    uint32_t n = 4 + rng_.below(5);
    for (uint32_t i = 0; i < n; ++i)
        emitStatement(a);
}

void
ProgramGenerator::emitCallTree(Assembler &a)
{
    uint32_t nargs = 1 + rng_.below(3);
    for (uint32_t i = 0; i < nargs; ++i)
        a.emit(Op::PUSHL, {srcOperand()});
    Label target = callTargets_[rng_.below(callTargets_.size())];
    a.emit(Op::CALLS, {Operand::lit(static_cast<uint8_t>(nargs)),
                       Operand::rel(target)});
    if (rng_.chance(0.6))
        a.emit(Op::MOVL, {Operand::reg(0), memOperand(false)});
}

void
ProgramGenerator::emitSubrCalls(Assembler &a)
{
    Label target = jsbTargets_[rng_.below(jsbTargets_.size())];
    if (rng_.chance(0.5)) {
        a.emit(Op::JSB, {Operand::rel(target)});
    } else {
        a.emit(Op::MOVL, {srcOperand(), Operand::reg(6)});
        a.emit(Op::JSB, {Operand::rel(target)});
    }
}

void
ProgramGenerator::emitStringOps(Assembler &a)
{
    uint32_t len = 40 + rng_.below(25);  // paper §5: 36-44 avg chars
    if (len > d_.strLen)
        len = d_.strLen;
    double x = rng_.uniform();
    if (x < 0.5) {
        a.emit(Op::MOVC3, {Operand::imm(len), Operand::abs(d_.strA),
                           Operand::abs(d_.strB)});
    } else if (x < 0.75) {
        a.emit(Op::CMPC3, {Operand::imm(len), Operand::abs(d_.strA),
                           Operand::abs(d_.strB)});
    } else {
        a.emit(Op::LOCC, {Operand::imm('a' + rng_.below(26)),
                          Operand::imm(len), Operand::abs(d_.strA)});
    }
}

void
ProgramGenerator::emitFloatKernel(Assembler &a)
{
    uint32_t iters = 3 + rng_.below(8);
    a.emit(Op::MOVAB, {Operand::abs(d_.floatArr), Operand::reg(2)});
    a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(iters)),
                      Operand::reg(7)});
    a.emit(Op::MOVF, {Operand::lit(static_cast<uint8_t>(
                          rng_.below(64))), Operand::reg(6)});
    Label top = a.here();
    a.emit(Op::MULF2, {Operand::autoInc(2), Operand::reg(6)});
    a.emit(Op::ADDF2, {Operand::lit(static_cast<uint8_t>(
                           rng_.below(64))), Operand::reg(6)});
    if (rng_.chance(0.4))
        a.emit(Op::SUBF3, {Operand::lit(static_cast<uint8_t>(
                               rng_.below(64))), Operand::reg(6),
                           Operand::reg(5)});
    if (rng_.chance(0.3))
        a.emit(Op::CMPF, {Operand::reg(6), Operand::reg(5)});
    emitStatement(a);
    a.emitBr(Op::SOBGTR, {Operand::reg(7)}, top);
    a.emit(Op::MOVF, {Operand::reg(6), Operand::abs(d_.scratch)});
}

void
ProgramGenerator::emitIntMulDiv(Assembler &a)
{
    double x = rng_.uniform();
    if (x < 0.5) {
        a.emit(Op::MULL3, {srcOperand(), Operand::reg(6),
                           Operand::reg(7)});
    } else if (x < 0.8) {
        a.emit(Op::BISL2, {Operand::lit(1), Operand::reg(6)});
        a.emit(Op::DIVL3, {Operand::reg(6), memOperand(false),
                           Operand::reg(7)});
    } else {
        a.emit(Op::EMUL, {Operand::reg(6), Operand::reg(7),
                          Operand::lit(0), Operand::reg(2)});
    }
}

void
ProgramGenerator::emitFieldOps(Assembler &a)
{
    // Bitmap-scanning loop: the field instructions dominate the
    // dynamic count because the loop amplifies them (the way record
    // packing / allocation-bitmap code behaves).
    uint32_t iters = 4 + rng_.below(9);
    a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(iters)),
                      Operand::reg(7)});
    Label top = a.here();
    uint8_t pos = static_cast<uint8_t>(rng_.below(24));
    uint8_t size = static_cast<uint8_t>(1 + rng_.below(8));
    double x = rng_.uniform();
    if (x < 0.45) {
        a.emit(Op::EXTZV, {Operand::lit(pos), Operand::lit(size),
                           rng_.chance(0.5) ? Operand::reg(6)
                                            : Operand::regDef(RC),
                           Operand::reg(4)});
    } else if (x < 0.75) {
        a.emit(Op::INSV, {Operand::reg(6), Operand::lit(pos),
                          Operand::lit(size),
                          rng_.chance(0.5) ? Operand::reg(4)
                                           : Operand::regDef(RC)});
    } else {
        a.emit(Op::FFS, {Operand::lit(0), Operand::lit(32),
                         Operand::reg(6), Operand::reg(4)});
    }
    if (rng_.chance(0.5)) {
        a.emit(Op::EXTV, {Operand::lit(static_cast<uint8_t>(
                              rng_.below(16))),
                          Operand::lit(static_cast<uint8_t>(
                              1 + rng_.below(12))),
                          Operand::regDef(RC), Operand::reg(4)});
    }
    emitStatement(a);
    {
        Label skip = a.newLabel();
        a.emitBr(rng_.chance(0.5) ? Op::BBS : Op::BBC,
                 {Operand::lit(static_cast<uint8_t>(rng_.below(8))),
                  rng_.chance(0.5) ? Operand::regDef(RC)
                                   : Operand::reg(4)},
                 skip);
        a.emit(Op::INCL, {Operand::reg(6)});
        a.bind(skip);
    }
    a.emitBr(Op::SOBGTR, {Operand::reg(7)}, top);
}

void
ProgramGenerator::emitBitBranches(Assembler &a)
{
    // Flag-testing loop (status-word polling style code).
    uint32_t iters = 3 + rng_.below(8);
    a.emit(Op::MOVL, {Operand::lit(static_cast<uint8_t>(iters)),
                      Operand::reg(7)});
    Label top = a.here();
    uint32_t sites = 2 + rng_.below(3);
    for (uint32_t i = 0; i < sites; ++i) {
        Label skip = a.newLabel();
        double x = rng_.uniform();
        if (x < 0.25) {
            a.emit(Op::MOVZBL,
                   {Operand::disp(static_cast<int32_t>(
                                      rng_.below(d_.byteArrCount)), RC),
                    Operand::reg(3)});
            a.emitBr(rng_.chance(0.5) ? Op::BLBS : Op::BLBC,
                     {Operand::reg(3)}, skip);
        } else if (x < 0.8) {
            a.emitBr(rng_.chance(0.5) ? Op::BBS : Op::BBC,
                     {Operand::lit(static_cast<uint8_t>(rng_.below(8))),
                      Operand::regDef(RC)},
                     skip);
        } else {
            a.emitBr(rng_.chance(0.5) ? Op::BBSS : Op::BBCC,
                     {Operand::lit(static_cast<uint8_t>(rng_.below(8))),
                      Operand::regDef(RC)},
                     skip);
        }
        a.emit(Op::INCL, {Operand::reg(6)});
        a.bind(skip);
    }
    a.emitBr(Op::SOBGTR, {Operand::reg(7)}, top);
}

void
ProgramGenerator::emitCaseDispatch(Assembler &a)
{
    uint32_t narms = 3 + rng_.below(4);
    a.emit(Op::MOVZBL,
           {Operand::disp(static_cast<int32_t>(
                              rng_.below(d_.byteArrCount)), RC),
            Operand::reg(7)});
    std::vector<Label> arms;
    for (uint32_t i = 0; i < narms; ++i)
        arms.push_back(a.newLabel());
    Label merge = a.newLabel();
    a.emitCase(Op::CASEB,
               {Operand::reg(7), Operand::lit(0),
                Operand::lit(static_cast<uint8_t>(narms - 1))},
               arms);
    // Out-of-range selectors fall through to here.
    a.emit(Op::DECL, {Operand::reg(6)});
    a.emitBr(Op::BRB, merge);
    for (uint32_t i = 0; i < narms; ++i) {
        a.bind(arms[i]);
        a.emit(Op::ADDL2, {Operand::lit(static_cast<uint8_t>(i + 1)),
                           Operand::reg(6)});
        if (i + 1 < narms)
            a.emitBr(Op::BRB, merge);
    }
    a.bind(merge);
}

void
ProgramGenerator::emitDecimalOps(Assembler &a)
{
    double x = rng_.uniform();
    if (x < 0.4) {
        a.emit(Op::CVTLP, {Operand::reg(6), Operand::lit(15),
                           Operand::abs(d_.packedA)});
    } else if (x < 0.7) {
        a.emit(Op::ADDP4, {Operand::lit(15), Operand::abs(d_.packedA),
                           Operand::lit(15), Operand::abs(d_.packedB)});
    } else {
        a.emit(Op::MOVP, {Operand::lit(15), Operand::abs(d_.packedA),
                          Operand::abs(d_.packedB)});
    }
}

void
ProgramGenerator::emitQueueOps(Assembler &a)
{
    uint32_t node = rng_.below(d_.queueNodeCount);
    VAddr node_va = d_.queueNodes + 16 * node;
    a.emit(Op::INSQUE, {Operand::abs(node_va), Operand::abs(d_.queueHdr)});
    a.emit(Op::REMQUE, {Operand::abs(node_va), Operand::reg(7)});
}

void
ProgramGenerator::emitSysWrite(Assembler &a)
{
    a.emit(Op::CHMK, {Operand::lit(os::sys::TermWrite)});
}

void
ProgramGenerator::emitFunctions(Assembler &a)
{
    // Three CALLS procedures with varying register-save masks.
    for (int f = 0; f < 3; ++f) {
        Label entry = a.here();
        callTargets_.push_back(entry);
        uint16_t mask = static_cast<uint16_t>(0x00C0 |
                                              (rng_.below(4) << 2));
        a.dw(mask);  // entry mask: saves r6, r7 (+ maybe r2/r3)
        a.emit(Op::MOVL, {Operand::disp(4, reg::AP), Operand::reg(6)});
        uint32_t n = 2 + rng_.below(4);
        for (uint32_t i = 0; i < n; ++i) {
            a.emit(rng_.chance(0.6) ? Op::ADDL2 : Op::XORL2,
                   {srcOperand(), Operand::reg(6)});
        }
        if (rng_.chance(0.5)) {
            Label skip = a.newLabel();
            a.emit(Op::TSTL, {Operand::reg(6)});
            a.emitBr(Op::BGEQ, skip);
            a.emit(Op::MNEGL, {Operand::reg(6), Operand::reg(6)});
            a.bind(skip);
        }
        a.emit(Op::MOVL, {Operand::reg(6), Operand::reg(0)});
        a.emit(Op::RET, {});
    }

    // Three JSB leaf helpers.
    for (int f = 0; f < 3; ++f) {
        Label entry = a.here();
        jsbTargets_.push_back(entry);
        uint32_t n = 1 + rng_.below(3);
        for (uint32_t i = 0; i < n; ++i) {
            if (rng_.chance(0.5))
                a.emit(Op::INCL, {Operand::reg(6)});
            else
                a.emit(Op::ADDL2, {Operand::lit(3), Operand::reg(6)});
        }
        a.emit(Op::RSB, {});
    }
}

void
ProgramGenerator::initData(uint8_t *image)
{
    // The draws come from a local copy of the generator, written back
    // at the end: a byte store may alias any object whose address is
    // visible, so with the member generator every store would force
    // its state through memory. The copy makes the same draws in the
    // same order.
    Rng rng = rng_;
    auto wr = [image](VAddr va, uint32_t n, uint64_t v) {
        for (uint32_t i = 0; i < n; ++i)
            image[va + i] = static_cast<uint8_t>(v >> (8 * i));
    };

    for (uint32_t i = 0; i < d_.longArrCount; ++i)
        wr(d_.longArr + 4 * i, 4, rng.below(256));
    for (uint32_t i = 0; i < d_.ptrCount; ++i)
        wr(d_.ptrTable + 4 * i, 4, d_.longArr + longOff(rng));
    for (uint32_t i = 0; i < d_.byteArrCount; ++i)
        wr(d_.byteArr + i, 1, rng.below(9));
    for (uint32_t i = 0; i < d_.strLen; ++i) {
        wr(d_.strA + i, 1, 'a' + rng.below(26));
        wr(d_.strB + i, 1, 'a' + rng.below(26));
    }
    for (uint32_t i = 0; i < d_.floatCount; ++i) {
        double v = 0.5 + rng.uniform();
        wr(d_.floatArr + 4 * i, 4, cpu::doubleToFFloat(v));
    }
    for (uint32_t i = 0; i < d_.bitmapBytes; ++i)
        wr(d_.bitmap + i, 1, rng.below(256));
    rng_ = rng;
    // Empty self-referential queue header.
    wr(d_.queueHdr, 4, d_.queueHdr);
    wr(d_.queueHdr + 4, 4, d_.queueHdr);
    // Packed decimal buffers: small positive values.
    wr(d_.packedA, 4, 0x0C210043);
    wr(d_.packedB, 8, 0x0C3907650021ull);
}

os::ProcessImage
ProgramGenerator::generate()
{
    // ----- data layout -----------------------------------------------------
    d_ = DataRefs{};
    d_.base = CodeBytes;
    d_.bytes = profile_.dataPages * mmu::PageBytes;
    VAddr cursor = d_.base;
    auto alloc = [&](uint32_t n, uint32_t align) {
        cursor = (cursor + align - 1) & ~(align - 1);
        VAddr va = cursor;
        cursor += n;
        return va;
    };
    d_.ptrCount = 16;
    d_.ptrTable = alloc(4 * d_.ptrCount, 4);
    d_.strLen = 64;
    d_.strA = alloc(d_.strLen, 4);
    d_.strB = alloc(d_.strLen, 4);
    d_.byteArrCount = 96;
    d_.byteArr = alloc(d_.byteArrCount, 4);
    d_.floatCount = 64;
    d_.floatArr = alloc(4 * d_.floatCount, 4);
    d_.bitmapBytes = 64;
    d_.bitmap = alloc(d_.bitmapBytes, 4);
    d_.queueHdr = alloc(8, 8);
    d_.queueNodeCount = 8;
    d_.queueNodes = alloc(16 * d_.queueNodeCount, 8);
    d_.packedA = alloc(8, 4);
    d_.packedB = alloc(8, 4);
    d_.scratch = alloc(64, 4);
    uint32_t fixed_end = cursor;
    if (fixed_end >= d_.base + d_.bytes)
        sim_throw(ConfigError, "workload data region too small (%u needed)",
              fixed_end - d_.base);
    // The long array takes all remaining data space: the footprint
    // knob that drives cache and TB behaviour.
    d_.longArr = alloc(4, 4);
    d_.longArrCount = (d_.base + d_.bytes - d_.longArr) / 4 - 2;
    d_.hotCount = d_.longArrCount / 8;
    if (d_.hotCount > 384)
        d_.hotCount = 384;
    d_.hotStart = static_cast<uint32_t>(
        rng_.below(d_.longArrCount - d_.hotCount));

    // ----- code ---------------------------------------------------------------
    Assembler a(0);
    emitFunctions(a);
    Label main_top = a.here();
    VAddr entry = a.pc();

    // Establish the stable base registers.
    a.emit(Op::MOVAB, {Operand::abs(d_.longArr), Operand::reg(RA)});
    a.emit(Op::MOVAB, {Operand::abs(d_.base), Operand::reg(RB)});
    a.emit(Op::MOVAB, {Operand::abs(d_.bitmap), Operand::reg(RC)});
    a.emit(Op::CLRL, {Operand::reg(6)});
    a.emit(Op::CLRL, {Operand::reg(8)});

    // One interactive "command" executes the session body several
    // times before waiting for terminal input again.
    const VAddr session_ctr = d_.scratch + 60;
    a.emit(Op::MOVL, {Operand::imm(profile_.sessionRepeat),
                      Operand::abs(session_ctr)});
    Label session_top = a.here();

    // The session body: a weighted mix of activity blocks.
    const BlockWeights &w = profile_.weights;
    const double weights[] = {
        w.intLoop, w.dataMove, w.branchy, w.callTree, w.subrCalls,
        w.stringOps, w.floatKernel, w.intMulDiv, w.fieldOps,
        w.bitBranches, w.caseDispatch, w.decimalOps, w.queueOps,
        w.sysWrite,
    };
    const double total = Rng::weightTotal(weights);
    for (uint32_t b = 0; b < profile_.codeBlocks; ++b) {
        switch (rng_.weighted(weights, total)) {
          case 0:
            emitIntLoop(a);
            break;
          case 1:
            emitDataMove(a);
            break;
          case 2:
            emitBranchy(a);
            break;
          case 3:
            emitCallTree(a);
            break;
          case 4:
            emitSubrCalls(a);
            break;
          case 5:
            emitStringOps(a);
            break;
          case 6:
            emitFloatKernel(a);
            break;
          case 7:
            emitIntMulDiv(a);
            break;
          case 8:
            emitFieldOps(a);
            break;
          case 9:
            emitBitBranches(a);
            break;
          case 10:
            emitCaseDispatch(a);
            break;
          case 11:
            emitDecimalOps(a);
            break;
          case 12:
            emitQueueOps(a);
            break;
          default:
            emitSysWrite(a);
            break;
        }
    }

    // Session-repeat control, then wait for terminal input and loop
    // forever.
    Label session_done = a.newLabel();
    a.emit(Op::DECL, {Operand::abs(session_ctr)});
    a.emitBr(Op::BEQL, session_done);
    a.emitBr(Op::BRW, session_top);
    a.bind(session_done);
    a.emit(Op::CHMK, {Operand::lit(os::sys::TermWait)});
    a.emitBr(Op::BRW, main_top);

    const auto &code = a.finish();
    if (code.size() > CodeBytes)
        sim_throw(ConfigError, "generated program too large (%zu bytes)", code.size());

    // ----- assemble the image ---------------------------------------------------
    std::vector<uint8_t> p0(d_.base + d_.bytes, 0);
    std::copy(code.begin(), code.end(), p0.begin());
    initData(p0.data());
    return os::ProcessImage{programShape(profile_), std::move(p0), entry};
}

os::ProcessShape
programShape(const WorkloadProfile &p)
{
    // generate() lays out code at VA 0, data from CodeBytes on, and
    // leaves StackPages of P0 above the data.
    os::ProcessShape s;
    s.p0Pages = ProgramGenerator::CodeBytes / mmu::PageBytes +
                p.dataPages + ProgramGenerator::StackPages;
    s.thinkMeanCycles = p.thinkMeanCycles;
    return s;
}

os::ProcessImage
generateProgram(const WorkloadProfile &p, uint32_t user)
{
    return ProgramGenerator(p, p.seed * 0x9E3779B9ull + user * 1337u + 1)
        .generate();
}

std::vector<os::ProcessImage>
buildWorkload(const WorkloadProfile &p)
{
    std::vector<os::ProcessImage> images;
    images.reserve(p.users);
    for (uint32_t u = 0; u < p.users; ++u)
        images.push_back(generateProgram(p, u));
    return images;
}

} // namespace upc780::wkl
