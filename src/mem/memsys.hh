/**
 * @file
 * Composed memory subsystem of the VAX-11/780: cache + write buffer +
 * SBI + physical memory, exposing the operations and timing rules the
 * CPU pipeline depends on (paper §2.1):
 *
 *  - a read that hits TB and cache consumes one cycle (no stall);
 *  - a read miss stalls the EBOX ~6 cycles (more under contention);
 *  - a write takes one cycle to initiate; a write issued while the
 *    previous one is still draining incurs a write stall;
 *  - write misses do not update the cache (write-through, no
 *    allocate);
 *  - IB refill reads do not stall the EBOX directly.
 *
 * Address translation lives in mmu/; this layer takes physical
 * addresses.
 */

#ifndef UPC780_MEM_MEMSYS_HH
#define UPC780_MEM_MEMSYS_HH

#include <cstdint>

#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/sbi.hh"
#include "mem/writebuffer.hh"

namespace upc780::fault
{
class FaultInjector;
}

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::mem
{

/** Outcome of a data-stream access. */
struct MemResult
{
    uint64_t data = 0;        //!< read data (reads only)
    /**
     * Read or write stall incurred. 64-bit like every other counter on
     * the counting path: stalls accumulate into histogram stall
     * buckets, and a multi-billion-cycle run must not wrap anywhere
     * along the chain.
     */
    uint64_t stallCycles = 0;
    bool miss = false;        //!< any cache miss among the references
    bool unaligned = false;   //!< access crossed a longword boundary
};

/** Aggregate configuration for the memory side of the machine. */
struct MemSysConfig
{
    CacheConfig cache;
    SbiConfig sbi;
    uint32_t writeBufferDepth = 1;
    uint32_t memSize = PhysicalMemory::DefaultSize;

    bool operator==(const MemSysConfig &) const = default;
};

/** The composed hierarchy. */
class MemorySubsystem
{
  public:
    explicit MemorySubsystem(obs::CounterRegistry &counters,
                             const MemSysConfig &config = MemSysConfig{});

    /**
     * D-stream read of @p size bytes (1..8) at physical address
     * @p pa, issued at cycle @p now. Accesses that span longword
     * boundaries make two cache references and are flagged unaligned.
     */
    MemResult read(PAddr pa, uint32_t size, uint64_t now);

    /**
     * D-stream write of @p size bytes at @p pa, issued at cycle
     * @p now. Returns the write-stall cycles incurred.
     */
    MemResult write(PAddr pa, uint32_t size, uint64_t data, uint64_t now);

    /**
     * I-stream refill read of the aligned longword containing @p pa.
     * Does not stall the EBOX.
     *
     * @param data_ready_at out: cycle at which the longword arrives
     * @retval the longword
     */
    uint32_t ifetch(PAddr pa, uint64_t now, uint64_t &data_ready_at);

    /**
     * Attach a fault injector to the memory side (main-memory ECC on
     * miss fills, SBI timeouts). Null disables injection.
     */
    void setFaultInjector(fault::FaultInjector *inj);

    /** Checkpoint the full hierarchy (memory, cache, SBI, buffer). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

    PhysicalMemory &memory() { return memory_; }
    const PhysicalMemory &memory() const { return memory_; }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    const Sbi &sbi() const { return sbi_; }
    const WriteBuffer &writeBuffer() const { return writeBuffer_; }

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    /** One aligned cache reference; returns stall cycles. */
    uint64_t readRef(PAddr pa, uint64_t now, bool istream, bool &miss);

    obs::CounterRegistry &counters_;
    PhysicalMemory memory_;
    Cache cache_;
    Sbi sbi_;
    WriteBuffer writeBuffer_;
};

} // namespace upc780::mem

#endif // UPC780_MEM_MEMSYS_HH
