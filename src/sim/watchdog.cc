#include "sim/watchdog.hh"

#include <sstream>

#include "common/error.hh"
#include "common/serial.hh"

namespace upc780::sim
{

Watchdog::Watchdog(const ucode::MicrocodeImage &image,
                   uint64_t interval_cycles, uint64_t max_stall_run)
    : img_(image), interval_(interval_cycles), maxStallRun_(max_stall_run)
{
    if (interval_ == 0 || maxStallRun_ == 0)
        sim_throw(ConfigError, "watchdog thresholds must be nonzero");
}

bool
Watchdog::expired() const
{
    if (stallStreak_ >= maxStallRun_)
        return true;
    return cycles_ - cyclesAtLastDecode_ >= interval_;
}

std::string
Watchdog::diagnostic() const
{
    const Sample &last =
        trace_[(traceHead_ + TraceDepth - 1) % TraceDepth];

    std::ostringstream os;
    os << "watchdog: no forward progress\n"
       << "  cycles observed:      " << cycles_ << "\n"
       << "  instruction decodes:  " << decodes_ << "\n"
       << "  cycles since decode:  " << (cycles_ - cyclesAtLastDecode_)
       << "\n"
       << "  consecutive stalls:   " << stallStreak_ << "\n"
       << "  current upc:          0x" << std::hex << last.upc
       << std::dec << " (" << ucode::rowName(img_.rowOf(last.upc))
       << (last.stalled ? ", stalled" : "") << ")\n"
       << "  last committed upc:   0x" << std::hex << lastCommittedUpc_
       << std::dec << " ("
       << ucode::rowName(img_.rowOf(lastCommittedUpc_)) << ")\n";
    if (checkpointCycle_ == NoCheckpoint)
        os << "  nearest checkpoint:   none\n";
    else
        os << "  nearest checkpoint:   cycle " << checkpointCycle_
           << "\n";
    os << "  trailing upc trace (oldest first):\n";

    uint32_t n = cycles_ < TraceDepth ? static_cast<uint32_t>(cycles_)
                                      : TraceDepth;
    for (uint32_t i = 0; i < n; ++i) {
        const Sample &s =
            trace_[(traceHead_ + TraceDepth - n + i) % TraceDepth];
        os << "    0x" << std::hex << s.upc << std::dec << "  "
           << ucode::rowName(img_.rowOf(s.upc))
           << (s.stalled ? "  [stall]" : "") << "\n";
    }
    return os.str();
}

template <class Self, class Ar>
void
Watchdog::walk(Self &s, Ar &ar)
{
    ar.u64(s.cycles_);
    ar.u64(s.decodes_);
    ar.u64(s.cyclesAtLastDecode_);
    ar.u64(s.stallStreak_);
    ucode::walkUAddr(ar, s.lastCommittedUpc_, "watchdog committed upc");
    for (auto &t : s.trace_) {
        ucode::walkUAddr(ar, t.upc, "watchdog trace upc");
        ar.b(t.stalled);
    }
    ar.below(s.traceHead_, TraceDepth, "watchdog trace head");
}

void
Watchdog::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
Watchdog::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::sim
