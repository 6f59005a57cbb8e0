#include "ucode/controlstore.hh"

#include "common/logging.hh"
#include "common/serial.hh"

namespace upc780::ucode
{

std::string_view
rowName(Row r)
{
    switch (r) {
      case Row::None:
        return "(none)";
      case Row::Decode:
        return "Decode";
      case Row::Spec1:
        return "SPEC1";
      case Row::Spec26:
        return "SPEC2-6";
      case Row::BDisp:
        return "B-DISP";
      case Row::ExSimple:
        return "Simple";
      case Row::ExField:
        return "Field";
      case Row::ExFloat:
        return "Float";
      case Row::ExCallRet:
        return "Call/Ret";
      case Row::ExSystem:
        return "System";
      case Row::ExCharacter:
        return "Character";
      case Row::ExDecimal:
        return "Decimal";
      case Row::IntExcept:
        return "Int/Except";
      case Row::MemMgmt:
        return "Mem Mgmt";
      case Row::Abort:
        return "Abort";
      default:
        return "?";
    }
}

Row
execRowFor(arch::Group g)
{
    switch (g) {
      case arch::Group::Simple:
        return Row::ExSimple;
      case arch::Group::Field:
        return Row::ExField;
      case arch::Group::Float:
        return Row::ExFloat;
      case arch::Group::CallRet:
        return Row::ExCallRet;
      case arch::Group::System:
        return Row::ExSystem;
      case arch::Group::Character:
        return Row::ExCharacter;
      case arch::Group::Decimal:
        return Row::ExDecimal;
      default:
        panic("execRowFor: bad group");
    }
}

SpecMode
specModeFor(arch::AddrMode m)
{
    using arch::AddrMode;
    switch (m) {
      case AddrMode::Literal:
        return SpecMode::Lit;
      case AddrMode::Register:
        return SpecMode::Reg;
      case AddrMode::RegDeferred:
        return SpecMode::RegDef;
      case AddrMode::AutoIncr:
        return SpecMode::AutoInc;
      case AddrMode::AutoIncrDeferred:
        return SpecMode::AutoIncDef;
      case AddrMode::AutoDecr:
        return SpecMode::AutoDec;
      case AddrMode::Immediate:
        return SpecMode::Imm;
      case AddrMode::Absolute:
        return SpecMode::Abs;
      case AddrMode::DispByte:
      case AddrMode::DispWord:
      case AddrMode::DispLong:
        return SpecMode::Disp;
      case AddrMode::DispByteDeferred:
      case AddrMode::DispWordDeferred:
      case AddrMode::DispLongDeferred:
        return SpecMode::DispDef;
    }
    panic("specModeFor: bad mode");
}

AccessBucket
accessBucketFor(arch::Access a)
{
    using arch::Access;
    switch (a) {
      case Access::Read:
        return AccessBucket::Read;
      case Access::Write:
        return AccessBucket::Write;
      case Access::Modify:
        return AccessBucket::Modify;
      case Access::Address:
      case Access::Field:
        return AccessBucket::Addr;
      default:
        panic("accessBucketFor: branch displacement is not a specifier");
    }
}

std::string_view
dpName(Dp d)
{
    switch (d) {
      case Dp::Nop: return "nop";
      case Dp::SpecLoadReg: return "spec.ldreg";
      case Dp::SpecLoadRegDisp: return "spec.ldregdisp";
      case Dp::SpecLoadAbs: return "spec.ldabs";
      case Dp::SpecAutoInc: return "spec.autoinc";
      case Dp::SpecAutoDec: return "spec.autodec";
      case Dp::SpecIndexBase: return "spec.idxbase";
      case Dp::SpecIndexAdd: return "spec.idxadd";
      case Dp::MdrToTaddr: return "mdr->taddr";
      case Dp::OperandFromReg: return "opnd.reg";
      case Dp::OperandFromLit: return "opnd.lit";
      case Dp::OperandFromImm: return "opnd.imm";
      case Dp::OperandImmHigh: return "opnd.immhi";
      case Dp::OperandFromMdr: return "opnd.mdr";
      case Dp::OperandAddr: return "opnd.addr";
      case Dp::RegWriteSpec: return "spec.wreg";
      case Dp::WriteResult: return "wres";
      case Dp::Exec: return "exec";
      case Dp::ExecStep: return "exec.step";
      case Dp::LoopDec: return "loopdec";
      case Dp::ModifyWriteback: return "mod.wb";
      case Dp::BranchTarget: return "brtgt";
      case Dp::TakeBranch: return "take";
      case Dp::TbComputePte: return "tb.pte";
      case Dp::TbFill: return "tb.fill";
      case Dp::IntPushPc: return "int.pushpc";
      case Dp::IntPushPsl: return "int.pushpsl";
      case Dp::IntVector: return "int.vector";
      case Dp::IntEnter: return "int.enter";
      case Dp::McheckPushCode: return "mchk.pushcode";
      case Dp::OsAssist: return "os.assist";
      case Dp::Halt: return "halt";
    }
    return "?";
}

std::string_view
memName(Mem m)
{
    switch (m) {
      case Mem::None: return "-";
      case Mem::ReadV: return "rdv";
      case Mem::WriteV: return "wrv";
      case Mem::ReadP: return "rdp";
    }
    return "?";
}

std::string_view
ibName(Ib i)
{
    switch (i) {
      case Ib::None: return "-";
      case Ib::DecodeOp: return "decop";
      case Ib::DecodeSpec: return "decspec";
      case Ib::GetImmHigh: return "immhi";
      case Ib::GetBranchDisp: return "brdisp";
    }
    return "?";
}

namespace
{

uint64_t
computeImageHash(const MicrocodeImage &img)
{
    uint64_t h = Fnv1aOffset;
    auto mix = [&h](uint64_t v) {
        uint8_t le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<uint8_t>(v >> (8 * i));
        h = fnv1a(le, sizeof(le), h);
    };
    mix(img.allocated);
    for (uint32_t a = 0; a < img.allocated; ++a) {
        const MicroOp &op = img.ops[a];
        mix(static_cast<uint64_t>(op.dp));
        mix(static_cast<uint64_t>(op.mem));
        mix(static_cast<uint64_t>(op.ib));
        mix(static_cast<uint64_t>(op.seq));
        mix(op.target);
        mix(op.arg);
        mix(static_cast<uint64_t>(img.info[a].row));
    }
    const Landmarks &m = img.marks;
    for (UAddr a : {m.decode, m.ibStallDecode, m.ibStallSpec1,
                    m.ibStallSpec26, m.ibStallBdisp, m.abort, m.tbMissD,
                    m.tbMissI, m.intDispatch, m.machineCheck, m.halted})
        mix(a);
    return h;
}

} // namespace

uint64_t
imageContentHash(const MicrocodeImage &img)
{
    if (&img == &microcodeImage()) {
        static const uint64_t h = computeImageHash(img);
        return h;
    }
    if (&img == &microcodeImageNoFpa()) {
        static const uint64_t h = computeImageHash(img);
        return h;
    }
    return computeImageHash(img);
}

std::string_view
seqName(Seq s)
{
    switch (s) {
      case Seq::Next: return "next";
      case Seq::Jump: return "jump";
      case Seq::Call: return "call";
      case Seq::Return: return "ret";
      case Seq::JumpIfFlag: return "jif";
      case Seq::JumpIfNotFlag: return "jnif";
      case Seq::SpecDispatch: return "specdisp";
      case Seq::DecodeNext: return "decnext";
      case Seq::DecodeNextIfNotFlag: return "decnif";
      case Seq::TrapReturn: return "trapret";
    }
    return "?";
}

} // namespace upc780::ucode
