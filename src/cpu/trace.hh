/**
 * @file
 * Instruction tracing: a passive probe that reconstructs the retired
 * instruction stream (PC, opcode, disassembly, selected register
 * state) from decode-cycle observations. Purely a debugging and
 * teaching aid — like the UPC monitor it changes nothing about
 * execution, which the tests assert.
 */

#ifndef UPC780_CPU_TRACE_HH
#define UPC780_CPU_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/vax780.hh"
#include "obs/trace.hh"

namespace upc780::cpu
{

/** One retired-instruction record. */
struct TraceRecord
{
    uint64_t seq = 0;      //!< instruction sequence number
    VAddr pc = 0;          //!< address of the opcode byte
    uint8_t opcode = 0;
    uint32_t r0 = 0, r6 = 0, sp = 0;
    uint32_t psl = 0;

    /** Disassembly (filled when the tracer can read the I-stream). */
    std::string text;
};

/**
 * Ring-buffer instruction tracer. Attach with
 * `machine.attachProbe(&tracer)`; the most recent @p depth
 * instructions are retained.
 */
class InstrTracer : public CycleProbe
{
  public:
    explicit InstrTracer(Vax780 &machine, size_t depth = 64,
                         bool disassemble = true);

    void cycle(ucode::UAddr upc, bool stalled) override;

    /** Records oldest-first. */
    std::vector<TraceRecord> records() const;

    uint64_t retired() const { return seq_; }

    /** Render the buffer as text, one line per instruction. */
    std::string str() const;

    void clear();

    /**
     * Forward each retired instruction into a structured event stream
     * (obs::Cat::Instr, arg0 = pc, arg1 = opcode, ts = machine
     * cycles): the bridge from this debugging ring into the obs
     * tracer, so instruction retirement appears on the same Perfetto
     * timeline as TB misses, interrupts, and context switches. Null
     * detaches.
     */
    void setEventSink(obs::EventTracer *sink) { sink_ = sink; }

    /** Checkpoint the ring contents + sequence counter. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    Vax780 &machine_;
    size_t depth_;
    bool disassemble_;
    std::vector<TraceRecord> ring_;
    size_t next_ = 0;
    uint64_t seq_ = 0;
    ucode::UAddr decodeAddr_;
    obs::EventTracer *sink_ = nullptr;
};

} // namespace upc780::cpu

#endif // UPC780_CPU_TRACE_HH
