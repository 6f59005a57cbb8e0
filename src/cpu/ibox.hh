/**
 * @file
 * The I-Fetch stage and 8-byte Instruction Buffer of the 11/780
 * (paper §2.1, §4.1). The IB autonomously issues a cache reference
 * whenever one or more bytes are empty; when the requested longword
 * arrives it accepts as many bytes as it then has room for, so it can
 * reference the same longword up to four times. An I-stream TB miss
 * sets a flag; the EBOX discovers it when a decode finds insufficient
 * bytes and services the miss by microtrap.
 */

#ifndef UPC780_CPU_IBOX_HH
#define UPC780_CPU_IBOX_HH

#include <cstdint>

#include "arch/types.hh"
#include "mem/memsys.hh"
#include "mmu/pagetable.hh"
#include "mmu/tb.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::cpu
{

using arch::VAddr;

/** The instruction buffer and its fill engine. */
class IBox
{
  public:
    static constexpr uint32_t Capacity = 8;

    IBox(obs::CounterRegistry &counters, mem::MemorySubsystem &memsys,
         mmu::TranslationBuffer &tb);

    /** Flush the IB and begin fetching at @p pc (taken branch). */
    void redirect(VAddr pc);

    /** Enable/disable address translation (MAPEN). */
    void setMapEnable(bool on) { mapEnabled_ = on; }

    /** Accept any arrived fill data. Call at the start of each cycle. */
    void
    deliver(uint64_t now)
    {
        if (fillPending_ && now >= fillReadyAt_)
            acceptFill();
    }

    /**
     * Issue a new fill reference if a slot is empty and no fill or TB
     * miss is outstanding. Call at the end of each cycle.
     */
    void
    startFill(uint64_t now)
    {
        if (justRedirected_) {
            justRedirected_ = false;
            return;
        }
        if (fillPending_ || tbMiss_ || count_ >= Capacity)
            return;
        issueFill(now);
    }

    /**
     * How many of the up to @p max cycles starting at @p now leave the
     * IB untouched while the EBOX takes no bytes from it: deliver() and
     * startFill() are both no-ops while a fill is in flight and not yet
     * due, or while the buffer is full or blocked on a TB miss.
     */
    uint64_t
    quietCycles(uint64_t now, uint64_t max) const
    {
        if (justRedirected_)
            return 0;
        if (fillPending_) {
            if (fillReadyAt_ <= now)
                return 0;
            return fillReadyAt_ - now < max ? fillReadyAt_ - now : max;
        }
        return tbMiss_ || count_ >= Capacity ? max : 0;
    }

    /** Buffered byte count. */
    uint32_t available() const { return count_; }

    /** Peek buffered byte @p i (i < available()). */
    uint8_t
    peek(uint32_t i) const
    {
        if (i >= count_)
            overrun("peek", i);
        return buf_[i];
    }

    /** Consume @p n buffered bytes. */
    void
    consume(uint32_t n)
    {
        if (n > count_)
            overrun("consume", n);
        for (uint32_t i = 0; i + n < count_; ++i)
            buf_[i] = buf_[i + n];
        count_ -= n;
    }

    /** True if fetching is blocked on an I-stream TB miss. */
    bool tbMissPending() const { return tbMiss_; }

    /** The VA whose translation missed. */
    VAddr tbMissVa() const { return tbMissVa_; }

    /** Resume fetching after the miss routine filled the TB. */
    void clearTbMiss();

    /** Checkpoint buffer contents + fill engine. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    /** Panic: @p what asked for @p n bytes with fewer buffered. */
    [[noreturn]] void overrun(const char *what, uint32_t n) const;

    /** deliver()'s work once the pending fill is due. */
    void acceptFill();
    /** startFill()'s work once a fill can go out. */
    void issueFill(uint64_t now);

    obs::CounterRegistry &counters_;
    mem::MemorySubsystem &memsys_;
    mmu::TranslationBuffer &tb_;

    uint8_t buf_[Capacity] = {};
    uint32_t count_ = 0;
    VAddr fetchVa_ = 0;      //!< VA of the next byte to fetch
    bool mapEnabled_ = false;

    bool fillPending_ = false;
    uint64_t fillReadyAt_ = 0;
    uint32_t fillData_ = 0;    //!< the fetched aligned longword
    VAddr fillVa_ = 0;         //!< first byte wanted from it

    bool tbMiss_ = false;
    VAddr tbMissVa_ = 0;
    bool justRedirected_ = false;
};

} // namespace upc780::cpu

#endif // UPC780_CPU_IBOX_HH
