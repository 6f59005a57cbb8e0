#include "cpu/ibox.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "obs/counters.hh"

namespace upc780::cpu
{

IBox::IBox(obs::CounterRegistry &counters, mem::MemorySubsystem &memsys,
           mmu::TranslationBuffer &tb)
    : counters_(counters), memsys_(memsys), tb_(tb)
{
}

void
IBox::redirect(VAddr pc)
{
    count_ = 0;
    fetchVa_ = pc;
    fillPending_ = false;
    tbMiss_ = false;
    // The target address is resolved late in the redirecting cycle;
    // the first fetch of the new stream goes out a cycle later.
    justRedirected_ = true;
    counters_.bump(obs::Ev::IbRedirects);
}

void
IBox::overrun(const char *what, uint32_t n) const
{
    panic("IB %s(%u) with %u bytes buffered", what, n, count_);
}

void
IBox::clearTbMiss()
{
    tbMiss_ = false;
}

void
IBox::acceptFill()
{
    fillPending_ = false;

    // Accept as many of the arrived longword's bytes as there is room
    // for *now* (paper §4.1).
    uint32_t lw_off = fillVa_ & 3;
    uint32_t avail_in_lw = 4 - lw_off;
    uint32_t room = Capacity - count_;
    uint32_t take = avail_in_lw < room ? avail_in_lw : room;
    for (uint32_t i = 0; i < take; ++i)
        buf_[count_ + i] = static_cast<uint8_t>(
            fillData_ >> (8 * (lw_off + i)));
    count_ += take;
    fetchVa_ = fillVa_ + take;
}

void
IBox::issueFill(uint64_t now)
{
    arch::PAddr pa = fetchVa_;
    if (mapEnabled_) {
        if (!tb_.lookup(fetchVa_, true, pa)) {
            tbMiss_ = true;
            tbMissVa_ = fetchVa_;
            return;
        }
    }

    uint64_t ready = 0;
    fillData_ = memsys_.ifetch(pa, now, ready);
    fillVa_ = fetchVa_;
    // The IB port takes two cycles to return a longword on a cache
    // hit (request, access, accept); misses take the SBI latency.
    fillReadyAt_ = ready > now + 2 ? ready : now + 2;
    fillPending_ = true;
    counters_.bump(obs::Ev::IbFills);
}

template <class Self, class Ar>
void
IBox::walk(Self &s, Ar &ar)
{
    for (auto &b : s.buf_)
        ar.u8(b);
    ar.below(s.count_, Capacity + 1, "IB byte count");
    ar.u32(s.fetchVa_);
    ar.b(s.mapEnabled_);
    ar.b(s.fillPending_);
    ar.u64(s.fillReadyAt_);
    ar.u32(s.fillData_);
    ar.u32(s.fillVa_);
    ar.b(s.tbMiss_);
    ar.u32(s.tbMissVa_);
    ar.b(s.justRedirected_);
}

void
IBox::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
IBox::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::cpu
