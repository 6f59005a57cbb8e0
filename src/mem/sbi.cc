#include "mem/sbi.hh"

#include <algorithm>

#include "common/serial.hh"
#include "fault/fault.hh"

namespace upc780::mem
{

uint64_t
Sbi::start(uint64_t now, uint32_t latency)
{
    // A timed-out transaction holds the path for the timeout period
    // before the (always successful) hardware retry.
    if (fault_)
        latency += fault_->onSbiTransaction();
    busyUntil_ = std::max(now, busyUntil_) + latency;
    return busyUntil_;
}

uint64_t
Sbi::startRead(uint64_t now)
{
    return start(now, config_.readLatency);
}

uint64_t
Sbi::startWrite(uint64_t now)
{
    return start(now, config_.writeLatency);
}

template <class Self, class Ar>
void
Sbi::walk(Self &s, Ar &ar)
{
    ar.u64(s.busyUntil_);
}

void
Sbi::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
Sbi::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::mem
