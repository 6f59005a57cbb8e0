/**
 * @file
 * The 11/780's single-longword write buffer. A data write takes one
 * EBOX cycle to initiate; the buffered write then drains to memory
 * over the SBI. A subsequent write issued before the previous one has
 * drained incurs a *write stall* (paper §2.1): the EBOX suspends until
 * the buffer frees.
 */

#ifndef UPC780_MEM_WRITEBUFFER_HH
#define UPC780_MEM_WRITEBUFFER_HH

#include <cstdint>
#include <vector>

#include "obs/counters.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::mem
{

class Sbi;

/** Depth-configurable write buffer (depth 1 models the 780). */
class WriteBuffer
{
  public:
    WriteBuffer(obs::CounterRegistry &counters, Sbi &sbi,
                uint32_t depth = 1);

    /**
     * Issue a write at cycle @p now.
     * @retval number of stall cycles incurred before the write could
     *         be accepted. 64-bit: stall cycles flow into 64-bit
     *         histogram counters and must not wrap on the way there.
     */
    uint64_t issue(uint64_t now);

    /** Checkpoint in-flight drain times. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    obs::CounterRegistry &counters_;
    Sbi &sbi_;
    uint32_t depth_;
    /** Completion cycles of in-flight writes (ring, size = depth). */
    std::vector<uint64_t> inflight_;
};

} // namespace upc780::mem

#endif // UPC780_MEM_WRITEBUFFER_HH
