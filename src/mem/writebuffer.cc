#include "mem/writebuffer.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "mem/sbi.hh"
#include "obs/counters.hh"

namespace upc780::mem
{

WriteBuffer::WriteBuffer(obs::CounterRegistry &counters, Sbi &sbi,
                         uint32_t depth)
    : counters_(counters), sbi_(sbi), depth_(depth)
{
    if (depth_ == 0)
        sim_throw(ConfigError, "write buffer depth must be at least 1");
    inflight_.assign(depth_, 0);
}

uint64_t
WriteBuffer::issue(uint64_t now)
{
    counters_.bump(obs::Ev::WbWrites);

    // The buffer entry that frees earliest.
    auto slot = std::min_element(inflight_.begin(), inflight_.end());
    uint64_t stall = 0;
    if (*slot > now) {
        stall = *slot - now;
        counters_.add(obs::Ev::WbStallCycles, stall);
    }
    uint64_t accepted = now + stall;
    *slot = sbi_.startWrite(accepted);
    return stall;
}

template <class Self, class Ar>
void
WriteBuffer::walk(Self &s, Ar &ar)
{
    ar.sameCount32(s.inflight_.size(), "write buffer depth");
    for (auto &t : s.inflight_)
        ar.u64(t);
}

void
WriteBuffer::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
WriteBuffer::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::mem
