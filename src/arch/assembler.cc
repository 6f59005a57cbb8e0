#include "arch/assembler.hh"

#include "common/error.hh"
#include "common/logging.hh"

namespace upc780::arch
{

namespace
{

// Little-endian stores through an instruction's output cursor.
void
put8(uint8_t *&out, uint8_t v)
{
    *out++ = v;
}

void
put16(uint8_t *&out, uint16_t v)
{
    put8(out, static_cast<uint8_t>(v));
    put8(out, static_cast<uint8_t>(v >> 8));
}

void
put32(uint8_t *&out, uint32_t v)
{
    put16(out, static_cast<uint16_t>(v));
    put16(out, static_cast<uint16_t>(v >> 16));
}

} // namespace

Operand
Operand::lit(uint8_t v)
{
    if (v > 63)
        sim_throw(ConfigError, "short literal %u out of range", v);
    Operand o;
    o.mode_ = AddrMode::Literal;
    o.literal_ = v;
    return o;
}

Operand
Operand::imm(uint64_t v)
{
    Operand o;
    o.mode_ = AddrMode::Immediate;
    o.imm_ = v;
    return o;
}

Operand
Operand::reg(unsigned rn)
{
    Operand o;
    o.mode_ = AddrMode::Register;
    o.reg_ = static_cast<uint8_t>(rn);
    return o;
}

Operand
Operand::regDef(unsigned rn)
{
    Operand o;
    o.mode_ = AddrMode::RegDeferred;
    o.reg_ = static_cast<uint8_t>(rn);
    return o;
}

Operand
Operand::autoInc(unsigned rn)
{
    Operand o;
    o.mode_ = AddrMode::AutoIncr;
    o.reg_ = static_cast<uint8_t>(rn);
    return o;
}

Operand
Operand::autoIncDef(unsigned rn)
{
    Operand o;
    o.mode_ = AddrMode::AutoIncrDeferred;
    o.reg_ = static_cast<uint8_t>(rn);
    return o;
}

Operand
Operand::autoDec(unsigned rn)
{
    Operand o;
    o.mode_ = AddrMode::AutoDecr;
    o.reg_ = static_cast<uint8_t>(rn);
    return o;
}

Operand
Operand::disp(int32_t d, unsigned rn, DispWidth w)
{
    Operand o;
    o.mode_ = AddrMode::DispByte;  // width resolved at emit time
    o.reg_ = static_cast<uint8_t>(rn);
    o.disp_ = d;
    o.width_ = w;
    return o;
}

Operand
Operand::dispDef(int32_t d, unsigned rn, DispWidth w)
{
    Operand o = disp(d, rn, w);
    o.mode_ = AddrMode::DispByteDeferred;
    return o;
}

Operand
Operand::abs(uint32_t addr)
{
    Operand o;
    o.mode_ = AddrMode::Absolute;
    o.imm_ = addr;
    return o;
}

Operand
Operand::rel(Label l, DispWidth w)
{
    if (w == DispWidth::Auto)
        w = DispWidth::Word;
    Operand o;
    o.mode_ = AddrMode::DispByte;  // displacement family, reg = PC
    o.reg_ = static_cast<uint8_t>(reg::PC);
    o.width_ = w;
    o.labelId_ = l.id;
    return o;
}

Operand
Operand::indexed(unsigned rx) const
{
    if (mode_ == AddrMode::Literal || mode_ == AddrMode::Register ||
        mode_ == AddrMode::Immediate) {
        sim_throw(ConfigError, "addressing mode cannot be indexed");
    }
    Operand o = *this;
    o.indexed_ = true;
    o.indexReg_ = static_cast<uint8_t>(rx);
    return o;
}

Label
Assembler::newLabel()
{
    Label l{static_cast<uint32_t>(labelAddrs_.size())};
    labelAddrs_.push_back(~0u);
    return l;
}

void
Assembler::bind(Label l)
{
    if (!l.valid() || l.id >= labelAddrs_.size())
        panic("bind of invalid label");
    if (labelAddrs_[l.id] != ~0u)
        panic("label bound twice");
    labelAddrs_[l.id] = pc();
}

Label
Assembler::here()
{
    Label l = newLabel();
    bind(l);
    return l;
}

void
Assembler::db(uint8_t v)
{
    bytes_.push_back(v);
}

void
Assembler::dw(uint16_t v)
{
    db(static_cast<uint8_t>(v));
    db(static_cast<uint8_t>(v >> 8));
}

void
Assembler::dl(uint32_t v)
{
    dw(static_cast<uint16_t>(v));
    dw(static_cast<uint16_t>(v >> 16));
}

void
Assembler::dq(uint64_t v)
{
    dl(static_cast<uint32_t>(v));
    dl(static_cast<uint32_t>(v >> 32));
}

void
Assembler::zero(uint32_t n)
{
    bytes_.insert(bytes_.end(), n, 0);
}

void
Assembler::align(uint32_t alignment)
{
    while (pc() & (alignment - 1))
        db(0);
}

void
Assembler::emitOperand(const Operand &o, const OperandSpec &spec,
                       uint8_t *&out)
{
    if (isBranchDisp(spec.access))
        panic("branch displacement passed as ordinary operand");

    if (o.indexed_)
        put8(out, static_cast<uint8_t>(0x40 | (o.indexReg_ & 0xf)));

    AddrMode m = o.mode_;

    // PC-relative label reference: emit a fixed-width displacement
    // field and record a fixup against the label.
    if (o.labelId_ != ~0u) {
        uint8_t width = o.width_ == DispWidth::Byte
                            ? 1
                            : (o.width_ == DispWidth::Long ? 4 : 2);
        uint8_t mode_bits;
        switch (width) {
          case 1:
            mode_bits = 0xA0;
            break;
          case 2:
            mode_bits = 0xC0;
            break;
          default:
            mode_bits = 0xE0;
            break;
        }
        put8(out, static_cast<uint8_t>(mode_bits | reg::PC));
        addFixup(out, o.labelId_, width);
        out += width;
        return;
    }

    // Resolve displacement width.
    if (m == AddrMode::DispByte || m == AddrMode::DispByteDeferred) {
        bool deferred = (m == AddrMode::DispByteDeferred);
        DispWidth w = o.width_;
        if (w == DispWidth::Auto) {
            if (o.disp_ >= -128 && o.disp_ <= 127)
                w = DispWidth::Byte;
            else if (o.disp_ >= -32768 && o.disp_ <= 32767)
                w = DispWidth::Word;
            else
                w = DispWidth::Long;
        }
        switch (w) {
          case DispWidth::Byte:
            if (o.disp_ < -128 || o.disp_ > 127)
                sim_throw(ConfigError, "byte displacement %d out of range", o.disp_);
            put8(out, static_cast<uint8_t>((deferred ? 0xB0 : 0xA0) |
                                           o.reg_));
            put8(out, static_cast<uint8_t>(o.disp_));
            break;
          case DispWidth::Word:
            if (o.disp_ < -32768 || o.disp_ > 32767)
                sim_throw(ConfigError, "word displacement %d out of range", o.disp_);
            put8(out, static_cast<uint8_t>((deferred ? 0xD0 : 0xC0) |
                                           o.reg_));
            put16(out, static_cast<uint16_t>(o.disp_));
            break;
          default:
            put8(out, static_cast<uint8_t>((deferred ? 0xF0 : 0xE0) |
                                           o.reg_));
            put32(out, static_cast<uint32_t>(o.disp_));
            break;
        }
        return;
    }

    switch (m) {
      case AddrMode::Literal:
        put8(out, o.literal_ & 0x3f);
        break;
      case AddrMode::Register:
        put8(out, static_cast<uint8_t>(0x50 | o.reg_));
        break;
      case AddrMode::RegDeferred:
        put8(out, static_cast<uint8_t>(0x60 | o.reg_));
        break;
      case AddrMode::AutoDecr:
        put8(out, static_cast<uint8_t>(0x70 | o.reg_));
        break;
      case AddrMode::AutoIncr:
        if (o.reg_ == reg::PC)
            sim_throw(ConfigError, "autoincrement of PC: use Operand::imm");
        put8(out, static_cast<uint8_t>(0x80 | o.reg_));
        break;
      case AddrMode::Immediate: {
        put8(out, 0x8F);
        uint32_t n = dataTypeSize(spec.type);
        for (uint32_t i = 0; i < n; ++i)
            put8(out, static_cast<uint8_t>(o.imm_ >> (8 * i)));
        break;
      }
      case AddrMode::AutoIncrDeferred:
        if (o.reg_ == reg::PC)
            sim_throw(ConfigError, "autoincrement-deferred of PC: use Operand::abs");
        put8(out, static_cast<uint8_t>(0x90 | o.reg_));
        break;
      case AddrMode::Absolute:
        put8(out, 0x9F);
        put32(out, static_cast<uint32_t>(o.imm_));
        break;
      default:
        panic("unreachable operand mode");
    }
}

void
Assembler::emitInstr(Op op, std::span<const Operand> ops,
                     const Label *target)
{
    const OpcodeInfo &info = opcodeInfo(op);
    if (!info.valid())
        panic("emit of undefined opcode 0x%02x",
              static_cast<unsigned>(op));

    unsigned ndata = 0;
    bool has_branch = false;
    uint8_t branch_width = 0;
    for (const OperandSpec &s : info.specs()) {
        if (isBranchDisp(s.access)) {
            has_branch = true;
            branch_width = (s.access == Access::BranchB) ? 1 : 2;
        } else {
            ++ndata;
        }
    }
    if (ops.size() != ndata)
        sim_throw(ConfigError, "%.*s expects %u data operands, got %zu",
              int(info.mnemonic.size()), info.mnemonic.data(), ndata,
              ops.size());
    if (has_branch != (target != nullptr))
        sim_throw(ConfigError, "%.*s branch-target mismatch",
              int(info.mnemonic.size()), info.mnemonic.data());

    // Encode into zero-filled room for the longest instruction, then
    // trim to the bytes written.
    const size_t start = bytes_.size();
    bytes_.resize(start + MaxInstrBytes);
    uint8_t *out = bytes_.data() + start;
    put8(out, static_cast<uint8_t>(op));
    size_t oi = 0;
    for (const OperandSpec &s : info.specs()) {
        if (isBranchDisp(s.access))
            continue;
        emitOperand(ops[oi++], s, out);
    }
    if (has_branch) {
        addFixup(out, target->id, branch_width);
        out += branch_width;
    }
    bytes_.resize(static_cast<size_t>(out - bytes_.data()));
}

void
Assembler::addFixup(const uint8_t *field, uint32_t label, uint8_t width)
{
    Fixup f;
    f.offset = static_cast<size_t>(field - bytes_.data());
    f.label = label;
    f.width = width;
    f.pcAfter = base_ + static_cast<VAddr>(f.offset) + width;
    fixups_.push_back(f);
}

void
Assembler::emit(Op op, std::initializer_list<Operand> ops)
{
    emitInstr(op, {ops.begin(), ops.size()}, nullptr);
}

void
Assembler::emit(Op op, std::span<const Operand> ops)
{
    emitInstr(op, ops, nullptr);
}

void
Assembler::emitBr(Op op, Label target)
{
    emitInstr(op, {}, &target);
}

void
Assembler::emitBr(Op op, std::initializer_list<Operand> ops, Label target)
{
    emitInstr(op, {ops.begin(), ops.size()}, &target);
}

void
Assembler::emitBr(Op op, std::span<const Operand> ops, Label target)
{
    emitInstr(op, ops, &target);
}

void
Assembler::emitCase(Op op, std::initializer_list<Operand> ops,
                    const std::vector<Label> &targets)
{
    const OpcodeInfo &info = opcodeInfo(op);
    if (info.pcClass != PcClass::Case)
        panic("emitCase on non-CASE opcode");
    if (targets.empty())
        sim_throw(ConfigError, "CASE with empty displacement table");

    emitInstr(op, {ops.begin(), ops.size()}, nullptr);

    // The displacement table follows the specifiers. Displacements
    // are relative to the table's own address.
    VAddr table_base = pc();
    for (const Label &l : targets) {
        Fixup f;
        f.offset = bytes_.size();
        f.label = l.id;
        f.width = 2;
        f.pcAfter = table_base;
        fixups_.push_back(f);
        dw(0);
    }
}

const std::vector<uint8_t> &
Assembler::finish()
{
    if (finished_)
        return bytes_;
    for (const Fixup &f : fixups_) {
        if (f.label >= labelAddrs_.size() || labelAddrs_[f.label] == ~0u)
            sim_throw(ConfigError, "unbound label %u in assembly", f.label);
        int64_t delta = static_cast<int64_t>(labelAddrs_[f.label]) -
                        static_cast<int64_t>(f.pcAfter);
        if (f.width == 1) {
            if (delta < -128 || delta > 127)
                sim_throw(ConfigError, "byte branch displacement %lld out of range",
                      static_cast<long long>(delta));
            bytes_[f.offset] = static_cast<uint8_t>(delta);
        } else if (f.width == 2) {
            if (delta < -32768 || delta > 32767)
                sim_throw(ConfigError, "word branch displacement %lld out of range",
                      static_cast<long long>(delta));
            bytes_[f.offset] = static_cast<uint8_t>(delta);
            bytes_[f.offset + 1] = static_cast<uint8_t>(delta >> 8);
        } else {
            for (unsigned i = 0; i < 4; ++i)
                bytes_[f.offset + i] =
                    static_cast<uint8_t>(delta >> (8 * i));
        }
    }
    finished_ = true;
    return bytes_;
}

} // namespace upc780::arch
