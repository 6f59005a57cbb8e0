#include "cpu/vax780.hh"

#include "common/serial.hh"
#include "fault/fault.hh"

namespace upc780::cpu
{

void
writeCanonical(ByteWriter &w, const MachineConfig &m)
{
    w.u32(m.mem.cache.sizeBytes);
    w.u32(m.mem.cache.ways);
    w.u32(m.mem.cache.blockBytes);
    w.b(m.mem.cache.enabled);
    w.u32(m.mem.sbi.readLatency);
    w.u32(m.mem.sbi.writeLatency);
    w.u32(m.mem.writeBufferDepth);
    w.u32(m.mem.memSize);
    w.u32(m.tb.entriesPerHalf);
    w.b(m.tb.enabled);
    w.b(m.fpa);
    w.b(m.rmodeDecode);
}

Vax780::Vax780(const MachineConfig &config)
    : memsys_(counters_, config.mem),
      tb_(counters_, config.tb),
      ibox_(counters_, memsys_, tb_),
      ebox_(counters_,
            config.image ? *config.image
                         : config.fpa ? ucode::microcodeImage()
                                      : ucode::microcodeImageNoFpa(),
            memsys_, tb_, ibox_, config.dispatch)
{
    ebox_.setInterruptController(this);
    ebox_.setDecodeDeliversFirstOperand(config.rmodeDecode);
}

const ucode::MicrocodeImage &
Vax780::microcode() const
{
    return ebox_.image();
}

void
Vax780::attachFaultInjector(fault::FaultInjector *inj)
{
    fault_ = inj;
    memsys_.setFaultInjector(inj);
    tb_.setFaultInjector(inj);
    ebox_.setFaultInjector(inj);
}

bool
Vax780::highestPending(uint32_t &level, uint32_t &vector)
{
    // Devices are read as of the last finished cycle, cycles_ - 1; no
    // device can request before the earliest next event.
    if (cycles_ <= nextDue_)
        return false;
    syncDevices();
    uint32_t best_level = 0, best_vector = 0;
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l > best_level) {
            best_level = l;
            best_vector = v;
        }
    }
    devicesChanged();
    if (best_level == 0)
        return false;
    level = best_level;
    vector = best_vector;
    return true;
}

void
Vax780::devicesChanged()
{
    nextDue_ = ~uint64_t{0};
    for (const Device *d : devices_)
        nextDue_ = std::min(nextDue_, d->nextEventAt());
}

void
Vax780::acknowledge(uint32_t level)
{
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l == level) {
            d->acknowledge();
            devicesChanged();
            return;
        }
    }
}

void
Vax780::deliverFaults()
{
    fault_->setNow(cycles_);
    // Fault events detected by the memory/TB/CS hardware raise
    // machine checks, delivered at the next instruction boundary.
    while (fault_->mcheckPending())
        ebox_.raiseMachineCheck(fault_->takeMcheck());
}

bool
Vax780::tick()
{
    NoFixedProbes none;
    const bool running = !step(none).halted;
    syncDevices();
    return running;
}

uint64_t
Vax780::run(uint64_t max_cycles)
{
    uint64_t n = 0;
    while (n < max_cycles) {
        uint64_t ran = runBatch(max_cycles - n);
        n += ran;
        if (ran == 0 || ebox_.halted())
            break;
    }
    return n;
}

uint64_t
Vax780::runBatch(uint64_t budget, uint64_t max_instructions)
{
    NoFixedProbes none;
    return runBatch(none, budget, max_instructions);
}

template <class Self, class Ar>
void
Vax780::walk(Self &s, Ar &ar)
{
    ar.u64(s.cycles_);
    ar.nested(s.memsys_);
    ar.nested(s.tb_);
    ar.nested(s.ibox_);
    ar.nested(s.ebox_);
}

void
Vax780::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
Vax780::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::cpu
