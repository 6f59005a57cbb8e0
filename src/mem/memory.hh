/**
 * @file
 * Flat physical memory. The measured machines had 8 Megabytes; the
 * model defaults to the same.
 */

#ifndef UPC780_MEM_MEMORY_HH
#define UPC780_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"

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

using arch::PAddr;

/** Byte-addressable physical memory array. */
class PhysicalMemory
{
  public:
    static constexpr uint32_t DefaultSize = 8u * 1024 * 1024;

    explicit PhysicalMemory(uint32_t size_bytes = DefaultSize);

    uint32_t size() const { return static_cast<uint32_t>(data_.size()); }

    uint8_t
    readByte(PAddr pa) const
    {
        check(pa, 1);
        return data_[pa];
    }

    void
    writeByte(PAddr pa, uint8_t v)
    {
        check(pa, 1);
        data_[pa] = v;
    }

    /** Little-endian read of @p n bytes (1..8), any alignment. */
    uint64_t
    read(PAddr pa, uint32_t n) const
    {
        check(pa, n);
        uint64_t v = 0;
        for (uint32_t i = 0; i < n; ++i)
            v |= static_cast<uint64_t>(data_[pa + i]) << (8 * i);
        return v;
    }

    /** Little-endian write of @p n bytes (1..8), any alignment. */
    void
    write(PAddr pa, uint32_t n, uint64_t v)
    {
        check(pa, n);
        for (uint32_t i = 0; i < n; ++i)
            data_[pa + i] = static_cast<uint8_t>(v >> (8 * i));
    }

    /** Copy a block into memory (workload image loading). */
    void load(PAddr pa, const uint8_t *src, uint32_t n);

    /** Zero a block. */
    void clear(PAddr pa, uint32_t n);

    /**
     * Attach a fault injector: timed miss fills pass through the ECC
     * model (fillCheck). Null (the default) disables injection.
     */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    /**
     * ECC check on the main-memory fetch of the fill longword at
     * @p pa. Called only on the timed cache-miss path; backdoor and
     * image-loading accesses never see faults. A single-bit error is
     * corrected in flight (the returned data is always good), a
     * double-bit error is flagged uncorrectable — either way the
     * injector queues a machine check for the CPU to take.
     */
    void fillCheck(PAddr pa);

    /**
     * Checkpoint the memory image. All-zero 4 KB pages are elided, so
     * a snapshot of a lightly touched 8 MB image stays small while the
     * restored bytes are identical.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    void
    check(PAddr pa, uint32_t n) const
    {
        if (pa + n > data_.size() || pa + n < pa)
            beyond(pa, n);
    }
    /** Panic: an access of @p n bytes at @p pa past the end. */
    [[noreturn]] void beyond(PAddr pa, uint32_t n) const;

    std::vector<uint8_t> data_;
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace upc780::mem

#endif // UPC780_MEM_MEMORY_HH
