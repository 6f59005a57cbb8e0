#include "cpu/vax780.hh"

#include <algorithm>

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
    : memsys_(config.mem),
      tb_(config.tb),
      ibox_(memsys_, tb_),
      ebox_(config.image ? *config.image
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

void
Vax780::detachProbe(CycleProbe *p)
{
    probes_.erase(std::remove(probes_.begin(), probes_.end(), p),
                  probes_.end());
}

bool
Vax780::highestPending(uint32_t &level, uint32_t &vector)
{
    uint32_t best_level = 0, best_vector = 0;
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l > best_level) {
            best_level = l;
            best_vector = v;
        }
    }
    if (best_level == 0)
        return false;
    level = best_level;
    vector = best_vector;
    return true;
}

void
Vax780::acknowledge(uint32_t level)
{
    for (Device *d : devices_) {
        uint32_t l = 0, v = 0;
        if (d->requesting(l, v) && l == level) {
            d->acknowledge();
            return;
        }
    }
}

bool
Vax780::tick()
{
    if (fault_) {
        fault_->setNow(cycles_);
        // Fault events detected by the memory/TB/CS hardware raise
        // machine checks, delivered at the next instruction boundary.
        while (fault_->mcheckPending())
            ebox_.raiseMachineCheck(fault_->takeMcheck());
    }

    // Deliver any I-stream fill that completed.
    ibox_.deliver(cycles_);

    // The EBOX consumes one cycle.
    CycleOut out = ebox_.cycle(cycles_);

    // Passive monitors observe the micro-PC and stall state.
    for (CycleProbe *p : probes_)
        p->cycle(out.upc, out.stalled);

    // The I-Fetch engine issues a new reference if a byte is free;
    // it runs concurrently with EBOX stalls.
    ibox_.startFill(cycles_);

    // Devices advance.
    for (Device *d : devices_)
        d->tick(cycles_);

    ++cycles_;
    return !out.halted;
}

uint64_t
Vax780::run(uint64_t max_cycles)
{
    uint64_t n = 0;
    while (n < max_cycles) {
        uint64_t ran = runBatch(max_cycles - n, false);
        n += ran;
        if (ran == 0 || ebox_.halted())
            break;
    }
    return n;
}

uint64_t
Vax780::runBatch(uint64_t budget, bool stop_at_instruction)
{
    uint64_t done = 0;
    const uint64_t insns = ebox_.instructions();
    while (done < budget) {
        // Micro-trace cache: a validated run of pad words needs no
        // dispatch, no IB bytes and no datapath work — only the
        // per-cycle machine plumbing and the uop-cycle count. Pads
        // cannot halt, trap, stall, retire or raise events, so the
        // probe/counter streams below are exactly what tick() emits.
        uint64_t pads = ebox_.padRun();
        if (pads > 0) {
            if (pads > budget - done)
                pads = budget - done;
            for (uint64_t i = 0; i < pads; ++i) {
                ibox_.deliver(cycles_);
                CycleOut out = ebox_.padCycle();
                for (CycleProbe *p : probes_)
                    p->cycle(out.upc, false);
                ibox_.startFill(cycles_);
                for (Device *d : devices_)
                    d->tick(cycles_);
                ++cycles_;
            }
            obs::emitPadCycles(pads);
            done += pads;
            continue;
        }

        if (!tick())
            return done;  // the halting cycle is not counted, as in run()
        ++done;
        if (stop_at_instruction && ebox_.instructions() != insns)
            return done;
    }
    return done;
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
