#include "ulint/effects.hh"

#include "common/json.hh"

namespace upc780::ulint
{

using ucode::Dp;
using ucode::Ib;
using ucode::Mem;
using ucode::MicroOp;
using ucode::Row;
using ucode::Seq;

std::string_view
mregName(MReg r)
{
    switch (r) {
      case MReg::Taddr: return "TADDR";
      case MReg::Mdr: return "MDR";
      case MReg::Flag: return "FLAG";
      default: return "?";
    }
}

std::string_view
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::Compute: return "compute";
      case CycleClass::Read: return "read";
      case CycleClass::Write: return "write";
      case CycleClass::IbStall: return "ib-stall";
      case CycleClass::Abort: return "abort";
      case CycleClass::Halt: return "halt";
      default: return "?";
    }
}

namespace
{

constexpr RegMask T = regBit(MReg::Taddr);
constexpr RegMask M = regBit(MReg::Mdr);
constexpr RegMask F = regBit(MReg::Flag);

} // namespace

// The per-Dp effect table mirrors the EBOX interpreter (cpu/ebox.cc
// dpPre/dpPost/dpAll): pre-stage defs are the address/data setup that
// runs before the memory function, post-stage uses are operand capture
// from the just-read MDR. Two deliberate asymmetries keep the derived
// rules conservative in the safe direction:
//
//  - Exec/ExecStep/LoopDec/OsAssist *use* every register (keeps
//    upstream defs live, so UL010 cannot flag a write an execute step
//    might consume) but their defs are may-defs only — except that an
//    ExecStep with a memory function must-defines the registers
//    execStepPre loads before the phase's memory op.
//  - usePreSure/usePostSure list only reads whose value the
//    interpreter consumes unconditionally (UL011's must-be-defined
//    check); the condition FLAG is excluded because flags
//    legitimately flow across instruction boundaries the
//    routine-local analysis cannot see.
RegEffects
regEffects(const MicroOp &op)
{
    RegEffects e;

    switch (op.dp) {
      case Dp::Nop:
      case Dp::OperandFromReg:
      case Dp::OperandFromLit:
      case Dp::OperandFromImm:
      case Dp::OperandImmHigh:
      case Dp::RegWriteSpec:
      case Dp::Halt:
        break;

      case Dp::SpecLoadReg:
      case Dp::SpecLoadRegDisp:
      case Dp::SpecLoadAbs:
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::SpecAutoInc:
      case Dp::SpecAutoDec:
        e.defPre = T;  // plus a GPR side effect: not a pure def
        break;
      case Dp::SpecIndexBase:
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::SpecIndexAdd:
        e.usePre = T;
        e.usePreSure = T;
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::MdrToTaddr:
        e.usePre = M;
        e.usePreSure = M;
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::OperandFromMdr:
        e.usePost = M | T;
        e.usePostSure = M;
        break;
      case Dp::OperandAddr:
        e.usePost = T;
        e.usePostSure = T;
        break;
      case Dp::WriteResult:
        e.defPre = M;
        break;

      case Dp::Exec:
        e.usePre = T | M | F;
        e.defMay = T | M | F;
        break;
      case Dp::ExecStep:
        e.usePre = T | M | F;
        e.defMay = T | M | F;
        // execStepPre loads the address (and, for a write, the data)
        // register before any memory phase it requests; a read phase
        // replaces MDR itself, so only TADDR is a certain pre-def —
        // claiming MDR too would look like a write-before-read bus
        // conflict to UL011. Without a memory phase nothing is certain.
        if (op.mem == Mem::WriteV)
            e.defPre = T | M;
        else if (op.mem != Mem::None)
            e.defPre = T;
        break;
      case Dp::LoopDec:
        e.usePre = T | M | F;
        e.defPost = F;
        e.defMay = T | M | F;
        break;
      case Dp::ModifyWriteback:
        // Conditionally loads TADDR/MDR and performs the write; when
        // it suppresses the memory op the uses vanish with the defs,
        // so for staging purposes the defs are certain.
        e.defPre = T | M;
        e.defMay = T | M;
        break;
      case Dp::BranchTarget:
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::TakeBranch:
        e.usePre = T;
        e.usePreSure = T;
        break;

      case Dp::TbComputePte:
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::TbFill:
        e.usePost = M;
        e.usePostSure = M;
        break;

      case Dp::IntPushPc:
      case Dp::IntPushPsl:
      case Dp::McheckPushCode:
        e.defPre = T | M;
        break;
      case Dp::IntVector:
        e.defPre = T;
        e.pureDef = true;
        break;
      case Dp::IntEnter:
        e.usePre = M;
        e.usePreSure = M;
        break;

      case Dp::OsAssist:
        e.usePre = T | M | F;
        e.defMay = T | M | F;
        break;
    }

    switch (op.mem) {
      case Mem::None:
        break;
      case Mem::ReadV:
      case Mem::ReadP:
        e.useMem = T;
        e.defMem = M;
        break;
      case Mem::WriteV:
        e.useMem = T | M;
        break;
    }
    // Conditional sequencing reads the flag (after the datapath wrote
    // it, for LoopDec-style words). Live, but never a certain use.
    if (op.seq == Seq::JumpIfFlag || op.seq == Seq::JumpIfNotFlag ||
        op.seq == Seq::DecodeNextIfNotFlag)
        e.usePost |= F;

    e.defMay |= e.defMust();
    return e;
}

// ----- cycle classes and counter masks ---------------------------------

namespace
{

constexpr CounterMask CntUops = counterBit(obs::Ev::EboxUops);
constexpr CounterMask CntDecodes = counterBit(obs::Ev::IboxDecodes);
constexpr CounterMask CntIbStall =
    counterBit(obs::Ev::EboxIbStallCycles);
constexpr CounterMask CntStall = counterBit(obs::Ev::EboxStallCycles);
constexpr CounterMask CntAborts = counterBit(obs::Ev::EboxAborts);
constexpr CounterMask CntHalt = counterBit(obs::Ev::EboxHaltCycles);
constexpr CounterMask CntMemRead =
    counterBit(obs::Ev::EboxMemReadCycles);
constexpr CounterMask CntMemWrite =
    counterBit(obs::Ev::EboxMemWriteCycles);
constexpr CounterMask CntTbD = counterBit(obs::Ev::TbMissServicesD);
constexpr CounterMask CntTbI = counterBit(obs::Ev::TbMissServicesI);
constexpr CounterMask CntIrq = counterBit(obs::Ev::IrqDispatches);
constexpr CounterMask CntMcheck = counterBit(obs::Ev::MachineChecks);

/** Counters any counted cycle at an ordinary execute word may bump. */
constexpr CounterMask ExecCommon =
    CntUops | CntMemRead | CntMemWrite | CntStall | CntIrq | CntMcheck;

bool
isStallMark(const ucode::Landmarks &mk, UAddr a)
{
    return a != 0 && (a == mk.ibStallDecode || a == mk.ibStallSpec1 ||
                      a == mk.ibStallSpec26 || a == mk.ibStallBdisp);
}

/** True when the sequencer function can end the instruction (and so
 *  dispatch a pending interrupt or machine check). */
bool
canEndInstruction(Seq s)
{
    return s == Seq::DecodeNext || s == Seq::DecodeNextIfNotFlag ||
           s == Seq::SpecDispatch;
}

WordEffects
deriveWord(const ucode::MicrocodeImage &img, UAddr a)
{
    const ucode::Landmarks &mk = img.marks;
    const MicroOp &op = img.ops[a];
    WordEffects w;

    // Class candidates: the fabricated-cycle landmarks claim their
    // class by address identity; everything else classifies by its
    // static memory function, exactly as the analyzer's column split
    // and the EBOX's end-of-cycle classification do. A landmark that
    // also carries a memory function matches two classes — ambiguous,
    // which UL013 reports.
    if (a == mk.halted)
        w.candidates |= classBit(CycleClass::Halt);
    if (a == mk.abort)
        w.candidates |= classBit(CycleClass::Abort);
    if (isStallMark(mk, a))
        w.candidates |= classBit(CycleClass::IbStall);

    CycleClass memcls = CycleClass::Compute;
    if (op.mem == Mem::ReadV || op.mem == Mem::ReadP)
        memcls = CycleClass::Read;
    else if (op.mem == Mem::WriteV)
        memcls = CycleClass::Write;

    if (w.candidates == 0)
        w.candidates = classBit(memcls);
    else if (op.mem != Mem::None)
        w.candidates |= classBit(memcls);

    // Primary class, in the EBOX's classification priority.
    if (w.candidates & classBit(CycleClass::Halt))
        w.cls = CycleClass::Halt;
    else if (w.candidates & classBit(CycleClass::Abort))
        w.cls = CycleClass::Abort;
    else if (w.candidates & classBit(CycleClass::IbStall))
        w.cls = CycleClass::IbStall;
    else
        w.cls = memcls;

    w.canStall = op.mem != Mem::None;

    // Counter mask: what CounterRegistry::emitCycle can bump for a
    // cycle landing at this address.
    switch (w.cls) {
      case CycleClass::Halt:
        w.counters = CntHalt;
        break;
      case CycleClass::Abort:
        w.counters = CntAborts | CntTbD | CntTbI;
        break;
      case CycleClass::IbStall:
        w.counters = CntIbStall;
        break;
      default:
        w.counters = CntUops;
        if (op.ib == Ib::DecodeOp)
            w.counters |= CntDecodes;
        if (op.mem == Mem::ReadV || op.mem == Mem::ReadP)
            w.counters |= CntMemRead;
        if (op.mem == Mem::WriteV)
            w.counters |= CntMemWrite;
        if (canEndInstruction(op.seq))
            w.counters |= CntIrq | CntMcheck;
        break;
    }
    if (w.canStall)
        w.counters |= CntStall;
    return w;
}

} // namespace

EffectMap::EffectMap(const ucode::MicrocodeImage &image) : img_(image)
{
    fx_.resize(img_.allocated);
    for (UAddr a = 1; a < img_.allocated; ++a)
        fx_[a] = deriveWord(img_, a);
}

const WordEffects &
EffectMap::at(UAddr a) const
{
    static const WordEffects none;
    return a < fx_.size() ? fx_[a] : none;
}

ClassMask
EffectMap::allowedClasses(Row r)
{
    constexpr ClassMask C = classBit(CycleClass::Compute);
    constexpr ClassMask R = classBit(CycleClass::Read);
    constexpr ClassMask W = classBit(CycleClass::Write);
    constexpr ClassMask S = classBit(CycleClass::IbStall);

    switch (r) {
      case Row::Decode:
        return ClassMask(C | S);
      case Row::Spec1:
      case Row::Spec26:
        return ClassMask(C | R | W | S);
      case Row::BDisp:
        return ClassMask(C | S);
      case Row::ExSimple:
      case Row::ExField:
      case Row::ExFloat:
      case Row::ExCallRet:
      case Row::ExCharacter:
      case Row::ExDecimal:
        return ClassMask(C | R | W);
      case Row::ExSystem:
        return ClassMask(C | R | W | classBit(CycleClass::Halt));
      case Row::IntExcept:
      case Row::MemMgmt:
        return ClassMask(C | R | W);
      case Row::Abort:
        return classBit(CycleClass::Abort);
      case Row::None:
      case Row::NumRows:
      default:
        return 0;
    }
}

CounterMask
EffectMap::allowedCounters(Row r)
{
    switch (r) {
      case Row::Decode:
        // The IRD word (decode + dispatch) and the opcode-starved
        // stall landmark share this row.
        return CntUops | CntDecodes | CntIrq | CntMcheck | CntIbStall;
      case Row::Spec1:
      case Row::Spec26:
        return ExecCommon | CntIbStall;
      case Row::BDisp:
        // Displacement consumption and branch-target arithmetic are
        // compute-only; the taken-branch word ends the instruction.
        return CntUops | CntIrq | CntMcheck | CntIbStall;
      case Row::ExSimple:
      case Row::ExField:
      case Row::ExFloat:
      case Row::ExCallRet:
      case Row::ExCharacter:
      case Row::ExDecimal:
        return ExecCommon;
      case Row::ExSystem:
        return ExecCommon | CntHalt;
      case Row::IntExcept:
        return ExecCommon;
      case Row::MemMgmt:
        // The TB service routine retries the trapped word; it never
        // ends an instruction, so no dispatch counters.
        return CntUops | CntMemRead | CntMemWrite | CntStall;
      case Row::Abort:
        return CntAborts | CntTbD | CntTbI;
      case Row::None:
      case Row::NumRows:
      default:
        return 0;
    }
}

std::string
EffectMap::toJson(const MicroCfg &cfg) const
{
    json::Value rows = json::array();
    for (UAddr a = 1; a < img_.allocated; ++a) {
        const WordEffects &w = fx_[a];
        json::Value counters = json::array();
        for (uint32_t e = 0; e < obs::NumEvents; ++e)
            if (w.counters & (CounterMask(1) << e))
                counters.push(std::string(obs::evName(obs::Ev(e))));
        rows.push(json::Members{
            {"addr", a},
            {"row", std::string(ucode::rowName(img_.rowOf(a)))},
            {"class", std::string(cycleClassName(w.cls))},
            {"canStall", w.canStall},
            {"reachable", cfg.reachable(a)},
            {"counters", std::move(counters)}});
    }
    return json::Value(json::Members{
                           {"wordsChecked", int64_t{img_.allocated}},
                           {"reachableWords",
                            int64_t{cfg.reachableCount()}},
                           {"rows", std::move(rows)}})
        .dumpPretty();
}

} // namespace upc780::ulint
