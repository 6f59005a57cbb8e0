#include "obs/counters.hh"

#include <cstdio>

#include "common/serial.hh"

namespace upc780::obs
{

std::string_view
evName(Ev e)
{
    switch (e) {
      case Ev::IboxDecodes:
        return "ibox.decodes";
      case Ev::EboxUops:
        return "ebox.uops";
      case Ev::EboxIbStallCycles:
        return "ebox.ib_stall_cycles";
      case Ev::EboxStallCycles:
        return "ebox.stall_cycles";
      case Ev::EboxAborts:
        return "ebox.aborts";
      case Ev::EboxHaltCycles:
        return "ebox.halt_cycles";
      case Ev::EboxMemReadCycles:
        return "ebox.mem_read_cycles";
      case Ev::EboxMemWriteCycles:
        return "ebox.mem_write_cycles";
      case Ev::TbMissServicesD:
        return "tb.serviced_d_misses";
      case Ev::TbMissServicesI:
        return "tb.serviced_i_misses";
      case Ev::IrqDispatches:
        return "ebox.irq_dispatches";
      case Ev::MachineChecks:
        return "ebox.machine_checks";
      case Ev::IbFills:
        return "ibox.fills";
      case Ev::IbRedirects:
        return "ibox.redirects";
      case Ev::TbDHits:
        return "tb.d_hits";
      case Ev::TbDMisses:
        return "tb.d_misses";
      case Ev::TbIHits:
        return "tb.i_hits";
      case Ev::TbIMisses:
        return "tb.i_misses";
      case Ev::TbFills:
        return "tb.fills";
      case Ev::TbFlushes:
        return "tb.flushes";
      case Ev::CacheDReads:
        return "cache.d_reads";
      case Ev::CacheDReadMisses:
        return "cache.d_read_misses";
      case Ev::CacheIReads:
        return "cache.i_reads";
      case Ev::CacheIReadMisses:
        return "cache.i_read_misses";
      case Ev::CacheWrites:
        return "cache.writes";
      case Ev::CacheWriteHits:
        return "cache.write_hits";
      case Ev::WbWrites:
        return "wb.writes";
      case Ev::WbStallCycles:
        return "wb.stall_cycles";
      case Ev::MemUnalignedRefs:
        return "mem.unaligned_refs";
      case Ev::OsContextSwitches:
        return "os.context_switches";
      case Ev::OsSyscalls:
        return "os.syscalls";
      case Ev::OsReschedRequests:
        return "os.resched_requests";
      case Ev::UpcCycles:
        return "upc.cycles";
      case Ev::UpcStallCycles:
        return "upc.stall_cycles";
      default:
        return "?";
    }
}

std::string
writeCounterTable(const Snapshot &s)
{
    std::string out;
    char line[96];
    for (size_t i = 0; i < NumEvents; ++i) {
        if (!s.counters[i])
            continue;
        std::snprintf(line, sizeof(line), "  %-24s %14llu\n",
                      std::string(evName(static_cast<Ev>(i))).c_str(),
                      static_cast<unsigned long long>(s.counters[i]));
        out += line;
    }
    return out;
}

void
emitCycle(const CycleEvents &ev, bool stalled)
{
    CounterRegistry *r = counters();
    if (!r)
        return;
    if (stalled) {
        r->bump(Ev::EboxStallCycles);
        return;
    }
    if (ev.halt) {
        r->bump(Ev::EboxHaltCycles);
        return;
    }
    if (ev.abort) {
        r->bump(Ev::EboxAborts);
        if (ev.tbMissD)
            r->bump(Ev::TbMissServicesD);
        if (ev.tbMissI)
            r->bump(Ev::TbMissServicesI);
        return;
    }
    if (ev.ibStall) {
        r->bump(Ev::EboxIbStallCycles);
        return;
    }
    // A counted (executed) microinstruction.
    r->bump(Ev::EboxUops);
    if (ev.decode)
        r->bump(Ev::IboxDecodes);
    if (ev.memRead)
        r->bump(Ev::EboxMemReadCycles);
    if (ev.memWrite)
        r->bump(Ev::EboxMemWriteCycles);
    if (ev.irq)
        r->bump(Ev::IrqDispatches);
    if (ev.mcheck)
        r->bump(Ev::MachineChecks);
}

template <class Self, class Ar>
void
CounterRegistry::walk(Self &s, Ar &ar)
{
    ar.sameCount32(NumEvents, "counter registry event count");
    for (auto &v : s.totals_)
        ar.u64(v);
    for (auto &v : s.mark_)
        ar.u64(v);
    // The gate says how to read mark_ (window, or the total at which
    // it would be empty), so anything but 0 or 1 would misread it.
    ar.below(s.enabled_, 2, "counter gate");
}

void
CounterRegistry::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
CounterRegistry::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::obs
