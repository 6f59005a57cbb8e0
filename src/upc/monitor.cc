#include "upc/monitor.hh"

#include "common/serial.hh"
#include "obs/counters.hh"

namespace upc780::upc
{

void
UpcMonitor::cycle(ucode::UAddr upc, bool stalled)
{
    if (!running_)
        return;
    ++observed_;
    // The board's own view of the measurement window, counted into the
    // obs fabric: upc.cycles must equal the histogram's bucket sum (the
    // cycle-accounting audit) and upc.stall_cycles its stall total.
    obs::count(obs::Ev::UpcCycles);
    if (stalled) {
        histogram_.bumpStall(upc);
        obs::count(obs::Ev::UpcStallCycles);
    } else {
        histogram_.bumpCount(upc);
    }
}

void
UpcMonitor::writeCsr(uint16_t v)
{
    if (v & static_cast<uint16_t>(Csr::Clear))
        clear();
    running_ = v & static_cast<uint16_t>(Csr::Go);
}

uint16_t
UpcMonitor::readCsr() const
{
    return running_ ? static_cast<uint16_t>(Csr::Go) : 0;
}

uint64_t
UpcMonitor::readDataPort(bool stall_bank) const
{
    ucode::UAddr a = static_cast<ucode::UAddr>(
        addrPort_ % Histogram::NumBuckets);
    return stall_bank ? histogram_.stall(a) : histogram_.count(a);
}

template <class Self, class Ar>
void
UpcMonitor::walk(Self &s, Ar &ar)
{
    ar.nested(s.histogram_);
    ar.b(s.running_);
    ar.u64(s.observed_);
    ar.u16(s.addrPort_);
}

void
UpcMonitor::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
UpcMonitor::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::upc
