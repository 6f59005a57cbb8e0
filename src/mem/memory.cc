#include "mem/memory.hh"

#include <cstring>

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "fault/fault.hh"

namespace upc780::mem
{

PhysicalMemory::PhysicalMemory(uint32_t size_bytes)
    : data_(size_bytes, 0)
{
    if (size_bytes == 0)
        sim_throw(ConfigError, "physical memory size must be nonzero");
}

void
PhysicalMemory::fillCheck(PAddr pa)
{
    check(pa, 4);
    if (fault_)
        fault_->onMemoryFill(pa);
}

void
PhysicalMemory::beyond(PAddr pa, uint32_t n) const
{
    panic("physical access 0x%08x size %u beyond memory (%zu bytes)",
          pa, n, data_.size());
}

void
PhysicalMemory::load(PAddr pa, const uint8_t *src, uint32_t n)
{
    check(pa, n);
    std::memcpy(data_.data() + pa, src, n);
}

void
PhysicalMemory::clear(PAddr pa, uint32_t n)
{
    check(pa, n);
    std::memset(data_.data() + pa, 0, n);
}

namespace
{
/** Snapshot chunk granularity for the zero-page elision. */
constexpr uint32_t SnapPage = 4096;

/** OR-reduce @p len bytes, eight at a time, and test for zero. */
bool
allZero(const uint8_t *p, uint32_t len)
{
    uint64_t acc = 0;
    uint32_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t word;
        std::memcpy(&word, p + i, sizeof(word));
        acc |= word;
    }
    for (; i < len; ++i)
        acc |= p[i];
    return acc == 0;
}
} // namespace

void
PhysicalMemory::serialize(ByteWriter &w) const
{
    const uint32_t size = static_cast<uint32_t>(data_.size());
    const uint32_t pages = (size + SnapPage - 1) / SnapPage;
    // One scan finds the non-zero pages, so the count can precede them
    // and the payload can be sized exactly before any byte is copied.
    std::vector<uint32_t> nonzero;
    uint64_t payload = 2 * sizeof(uint32_t);
    for (uint32_t p = 0; p < pages; ++p) {
        const uint32_t off = p * SnapPage;
        const uint32_t len = std::min(SnapPage, size - off);
        if (allZero(data_.data() + off, len))
            continue;
        nonzero.push_back(p);
        payload += sizeof(uint32_t) + len;
    }
    w.reserve(static_cast<size_t>(payload));
    w.u32(size);
    w.u32(static_cast<uint32_t>(nonzero.size()));
    for (uint32_t p : nonzero) {
        const uint32_t off = p * SnapPage;
        w.u32(p);
        w.bytes(data_.data() + off, std::min(SnapPage, size - off));
    }
}

void
PhysicalMemory::deserialize(ByteReader &r)
{
    const uint32_t size = r.u32();
    if (size != data_.size())
        sim_throw(SnapshotError,
                  "snapshot memory image is %u bytes but the machine "
                  "has %zu", size, data_.size());
    std::fill(data_.begin(), data_.end(), 0);
    const uint32_t pages = (size + SnapPage - 1) / SnapPage;
    const uint32_t nonzero = r.u32();
    if (nonzero > pages)
        sim_throw(SnapshotError,
                  "snapshot memory image claims %u non-zero pages of %u",
                  nonzero, pages);
    for (uint32_t i = 0; i < nonzero; ++i) {
        const uint32_t p = r.u32();
        if (p >= pages)
            sim_throw(SnapshotError,
                      "snapshot memory page index %u out of range", p);
        const uint32_t off = p * SnapPage;
        const uint32_t len = std::min<uint32_t>(SnapPage, size - off);
        r.bytes(data_.data() + off, len);
    }
}

} // namespace upc780::mem
