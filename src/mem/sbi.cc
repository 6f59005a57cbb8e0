#include "mem/sbi.hh"

#include "common/serial.hh"
#include "fault/fault.hh"

namespace upc780::mem
{

uint64_t
Sbi::start(uint64_t now, uint32_t latency)
{
    if (fault_) {
        // A timed-out transaction holds the path for the timeout
        // period before the (always successful) hardware retry.
        uint32_t penalty = fault_->onSbiTransaction();
        if (penalty > 0) {
            latency += penalty;
            ++stats_.timeouts;
        }
    }
    uint64_t begin = now;
    if (busyUntil_ > now) {
        stats_.contentionCycles += busyUntil_ - now;
        begin = busyUntil_;
    }
    busyUntil_ = begin + latency;
    return busyUntil_;
}

uint64_t
Sbi::startRead(uint64_t now)
{
    ++stats_.readTransactions;
    return start(now, config_.readLatency);
}

uint64_t
Sbi::startWrite(uint64_t now)
{
    ++stats_.writeTransactions;
    return start(now, config_.writeLatency);
}

template <class Self, class Ar>
void
Sbi::walk(Self &s, Ar &ar)
{
    ar.u64(s.busyUntil_);
    ar.counter(s.stats_.readTransactions);
    ar.counter(s.stats_.writeTransactions);
    ar.counter(s.stats_.contentionCycles);
    ar.counter(s.stats_.timeouts);
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
