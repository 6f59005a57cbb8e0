/**
 * @file
 * Synchronous Backplane Interconnect (SBI) occupancy model. The SBI
 * carries cache-miss fills, write-through traffic, and IB refill
 * misses to memory. A transaction holds the path for a fixed number
 * of cycles; a requester arriving while the path is busy waits.
 */

#ifndef UPC780_MEM_SBI_HH
#define UPC780_MEM_SBI_HH

#include <cstdint>

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

/** SBI timing parameters (in 200 ns EBOX cycles). */
struct SbiConfig
{
    /** Cycles from read request to data return (paper: 6). */
    uint32_t readLatency = 6;
    /** Cycles a memory write occupies the path (paper: 6). */
    uint32_t writeLatency = 6;

    bool operator==(const SbiConfig &) const = default;
};

/** Single-path bus occupancy tracker. */
class Sbi
{
  public:
    explicit Sbi(const SbiConfig &config = SbiConfig{})
        : config_(config)
    {}

    /**
     * Start a read transaction at cycle @p now.
     * @retval cycle at which the data is available.
     */
    uint64_t startRead(uint64_t now);

    /**
     * Start a write transaction at cycle @p now.
     * @retval cycle at which the path (and the write buffer entry)
     *         frees.
     */
    uint64_t startWrite(uint64_t now);

    /** Cycle until which the path is occupied. */
    uint64_t busyUntil() const { return busyUntil_; }

    /**
     * Attach a fault injector: transactions may then time out and
     * occupy the path for the configured penalty while the retry
     * completes. Null (the default) disables injection.
     */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    const SbiConfig &config() const { return config_; }

    /** Checkpoint occupancy. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    uint64_t start(uint64_t now, uint32_t latency);

    SbiConfig config_;
    uint64_t busyUntil_ = 0;
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace upc780::mem

#endif // UPC780_MEM_SBI_HH
