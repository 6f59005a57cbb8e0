#include "mem/memsys.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "obs/counters.hh"

namespace upc780::mem
{

MemorySubsystem::MemorySubsystem(obs::CounterRegistry &counters,
                                 const MemSysConfig &config)
    : counters_(counters),
      memory_(config.memSize),
      cache_(counters, config.cache),
      sbi_(config.sbi),
      writeBuffer_(counters, sbi_, config.writeBufferDepth)
{
}

void
MemorySubsystem::setFaultInjector(fault::FaultInjector *inj)
{
    memory_.setFaultInjector(inj);
    sbi_.setFaultInjector(inj);
}

uint64_t
MemorySubsystem::readRef(PAddr pa, uint64_t now, bool istream, bool &miss)
{
    if (cache_.readAccess(pa, istream)) {
        return 0;
    }
    miss = true;
    uint64_t ready = sbi_.startRead(now);
    // The fill longword crosses the ECC-checked main-memory array.
    memory_.fillCheck(alignDown(pa, 4));
    return ready - now;
}

MemResult
MemorySubsystem::read(PAddr pa, uint32_t size, uint64_t now)
{
    if (size == 0 || size > 8)
        panic("read size %u", size);

    MemResult r;
    // The 780 data path moves aligned longwords; a scalar that spans
    // a longword boundary needs two physical references (paper §3.3.1).
    PAddr first = alignDown(pa, 4);
    PAddr last = alignDown(pa + size - 1, 4);

    r.stallCycles += readRef(first, now, false, r.miss);
    if (last != first) {
        // Quadword operands make a second reference without being
        // "unaligned"; only a boundary-crossing scalar (< 8 bytes,
        // not 4-byte aligned) is.
        if (size <= 4 || (pa & 3) != 0)
            r.unaligned = (pa & 3) != 0 && alignDown(pa, 4) + 4 < pa + size;
        r.stallCycles += readRef(last, now + r.stallCycles, false, r.miss);
        if (size == 8 && last - first > 4) {
            // 8-byte unaligned spans three longwords.
            r.stallCycles += readRef(first + 4, now + r.stallCycles,
                                     false, r.miss);
        }
    }
    if (r.unaligned)
        counters_.bump(obs::Ev::MemUnalignedRefs);
    r.data = memory_.read(pa, size);
    return r;
}

MemResult
MemorySubsystem::write(PAddr pa, uint32_t size, uint64_t data,
                       uint64_t now)
{
    if (size == 0 || size > 8)
        panic("write size %u", size);

    MemResult r;
    PAddr first = alignDown(pa, 4);
    PAddr last = alignDown(pa + size - 1, 4);
    uint32_t refs = 1 + (last != first ? 1 : 0) +
                    (size == 8 && last - first > 4 ? 1 : 0);
    r.unaligned = (pa & 3) != 0 && (last != first) && size <= 4;

    // Each longword of the write occupies a write-buffer entry.
    uint64_t at = now;
    for (uint32_t i = 0; i < refs; ++i) {
        uint64_t stall = writeBuffer_.issue(at);
        r.stallCycles += stall;
        at += stall + 1;
        // Write-through probe: update-on-hit, never allocate.
        cache_.writeAccess(first + 4 * i);
    }

    if (r.unaligned)
        counters_.bump(obs::Ev::MemUnalignedRefs);
    memory_.write(pa, size, data);
    return r;
}

template <class Self, class Ar>
void
MemorySubsystem::walk(Self &s, Ar &ar)
{
    ar.nested(s.memory_);
    ar.nested(s.cache_);
    ar.nested(s.sbi_);
    ar.nested(s.writeBuffer_);
}

void
MemorySubsystem::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
MemorySubsystem::deserialize(ByteReader &r)
{
    walk(*this, r);
}

uint32_t
MemorySubsystem::ifetch(PAddr pa, uint64_t now, uint64_t &data_ready_at)
{
    PAddr lw = alignDown(pa, 4);
    bool miss = false;
    uint64_t delay = readRef(lw, now, true, miss);
    data_ready_at = now + delay;
    return static_cast<uint32_t>(memory_.read(lw, 4));
}

} // namespace upc780::mem
