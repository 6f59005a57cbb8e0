#include "cpu/trace.hh"

#include <cstdio>
#include <sstream>

#include "arch/decoder.hh"
#include "common/serial.hh"
#include "mmu/pagetable.hh"
#include "ucode/controlstore.hh"

namespace upc780::cpu
{

InstrTracer::InstrTracer(Vax780 &machine, size_t depth, bool disassemble)
    : machine_(machine),
      depth_(depth ? depth : 1),
      disassemble_(disassemble),
      decodeAddr_(ucode::microcodeImage().marks.decode)
{
    ring_.resize(depth_);
}

void
InstrTracer::cycle(ucode::UAddr upc, bool stalled)
{
    if (stalled || upc != decodeAddr_)
        return;

    Ebox &e = machine_.ebox();
    TraceRecord rec;
    rec.seq = seq_++;
    // The decode cycle consumes the opcode byte, so the architectural
    // PC has just moved one past the instruction's address.
    rec.pc = e.pc() - 1;
    rec.r0 = e.gpr(0);
    rec.r6 = e.gpr(6);
    rec.sp = e.gpr(arch::reg::SP);
    rec.psl = e.psl();

    // Safely fetch up to 24 instruction bytes through the map (the
    // stream may end at an unmapped page boundary). Without
    // disassembly only the opcode byte is needed.
    uint8_t buf[24];
    uint32_t want = disassemble_ ? sizeof(buf) : 1;
    uint32_t got = 0;
    const auto &memory = machine_.memsys().memory();
    for (; got < want; ++got) {
        arch::VAddr va = rec.pc + got;
        if (e.mapEnabled()) {
            auto pa = mmu::walk(memory, e.mapRegisters(), va);
            if (!pa)
                break;
            buf[got] = memory.readByte(*pa);
        } else {
            if (va >= memory.size())
                break;
            buf[got] = memory.readByte(va);
        }
    }
    if (got)
        rec.opcode = buf[0];
    if (sink_) {
        sink_->emit(obs::Cat::Instr, obs::Code::InstrRetired,
                    machine_.cycles(), rec.pc, rec.opcode);
    }
    if (disassemble_ && got) {
        arch::DecodedInst di;
        if (decodeInstruction({buf, got}, di))
            rec.text = di.str();
        else
            rec.text = "(undecodable)";
    }

    ring_[next_] = std::move(rec);
    next_ = (next_ + 1) % depth_;
}

std::vector<TraceRecord>
InstrTracer::records() const
{
    std::vector<TraceRecord> out;
    out.reserve(depth_);
    for (size_t i = 0; i < depth_; ++i) {
        const TraceRecord &r = ring_[(next_ + i) % depth_];
        if (r.seq || r.pc || !r.text.empty())
            out.push_back(r);
    }
    return out;
}

std::string
InstrTracer::str() const
{
    std::ostringstream os;
    char line[160];
    for (const TraceRecord &r : records()) {
        std::snprintf(line, sizeof(line),
                      "%8llu  %08x  %-34s r0=%08x r6=%08x sp=%08x\n",
                      static_cast<unsigned long long>(r.seq), r.pc,
                      r.text.c_str(), r.r0, r.r6, r.sp);
        os << line;
    }
    return os.str();
}

void
InstrTracer::clear()
{
    ring_.assign(depth_, TraceRecord{});
    next_ = 0;
}

template <class Self, class Ar>
void
InstrTracer::walk(Self &s, Ar &ar)
{
    ar.sameCount64(s.ring_.size(), "instruction trace depth");
    for (auto &rec : s.ring_) {
        ar.u64(rec.seq);
        ar.u32(rec.pc);
        ar.u8(rec.opcode);
        ar.u32(rec.r0);
        ar.u32(rec.r6);
        ar.u32(rec.sp);
        ar.u32(rec.psl);
        ar.str(rec.text, 1 << 20);
    }
    ar.below(s.next_, s.ring_.size(), "instruction trace cursor");
    ar.u64(s.seq_);
}

void
InstrTracer::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
InstrTracer::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::cpu
