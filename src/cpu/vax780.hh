/**
 * @file
 * The complete VAX-11/780 machine model: EBOX + IBox + TB + memory
 * subsystem + devices, advanced one 200 ns cycle at a time. Hardware
 * monitors (the UPC histogram board, the cache-study counters) attach
 * here as passive probes, exactly as the paper's monitor attached to
 * the real machine's backplane; the machine's own counters likewise.
 */

#ifndef UPC780_CPU_VAX780_HH
#define UPC780_CPU_VAX780_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "cpu/ebox.hh"
#include "cpu/ibox.hh"
#include "mem/memsys.hh"
#include "mmu/tb.hh"
#include "ucode/controlstore.hh"

namespace upc780::cpu
{

/**
 * Passive per-cycle probe (the UPC monitor implements this). The probe
 * sees the control-store address of each cycle and whether it was a
 * read/write-stalled cycle — nothing else, matching the visibility of
 * the paper's hardware monitor.
 */
class CycleProbe
{
  public:
    virtual ~CycleProbe() = default;
    virtual void cycle(ucode::UAddr upc, bool stalled) = 0;

    /**
     * @p n consecutive cycles at one address, all stalled or none: a
     * read/write-stall or IB-stall window the machine advances in one
     * step. Must leave the probe as n cycle() calls would; the default
     * is that loop.
     */
    virtual void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            cycle(upc, stalled);
    }
};

/**
 * The fixed probe set of a machine with none: what tick() and the
 * plain runBatch() fuse into the cycle. A fixed set is any type with
 * these two members; Vax780::runBatch(fixed, ...) calls them inline,
 * before the attached (virtual) probes, every cycle.
 */
struct NoFixedProbes
{
    void cycle(ucode::UAddr, bool) {}
    void cycles(ucode::UAddr, bool, uint64_t) {}
};

class Vax780;

/**
 * A bus device that can request interrupts, on the machine's
 * next-event clock: the machine calls into a device only where its
 * state is observed, never once per cycle (see Vax780::highestPending).
 */
class Device
{
  public:
    virtual ~Device() = default;
    /**
     * Advance device state to @p now, the last finished cycle. The
     * machine calls it only where device state is observed: at an
     * instruction end once nextEventAt() is due, before the kernel's
     * terminal ISR drains the terminal, and at every runBatch()/tick()
     * return (so a checkpoint at a batch boundary holds the state
     * per-cycle ticking would). Any run of cycles therefore reaches a
     * device as one tick(last), which must leave the state the
     * per-cycle calls would (the interval timer and the RTE terminal
     * only compare or latch @p now, so for them one call equals n).
     */
    virtual void tick(uint64_t now) = 0;
    /** Interrupt request: fill level/vector if requesting. */
    virtual bool requesting(uint32_t &level, uint32_t &vector) = 0;
    /** The CPU dispatched this device's interrupt. */
    virtual void acknowledge() = 0;

    /**
     * The first cycle whose tick() can make requesting() true: until
     * an instruction end after it, the machine neither ticks nor polls
     * the device. 0 (the default) means "poll me at every instruction
     * end". A device whose answer moves earlier other than by a tick
     * or an acknowledge must call changed().
     */
    virtual uint64_t nextEventAt() const { return 0; }

  protected:
    /** Tell the machine (if attached) that nextEventAt() moved. */
    void changed();

  private:
    friend class Vax780;
    Vax780 *machine_ = nullptr;
};

/** Machine configuration. */
struct MachineConfig
{
    mem::MemSysConfig mem;
    mmu::TbConfig tb;
    bool fpa = true;  //!< Floating Point Accelerator installed
    /** RMODE decode optimization (see Ebox); off keeps exact counts. */
    bool rmodeDecode = false;

    /**
     * Explicit microprogram image, overriding the fpa-selected shipped
     * image. The pointed-to image must outlive the machine. Intended
     * for the lint tests, which run a deliberately defective copy of
     * the microprogram.
     */
    const ucode::MicrocodeImage *image = nullptr;

    /**
     * How the EBOX picks its cycle body. Threaded is the production
     * path: each decoded word runs its form's instantiation of the one
     * cycle body. Switch runs the all-dynamic instantiation on every
     * word and is the reference the dual-dispatch differential tests
     * compare Threaded against.
     */
    ucode::DispatchMode dispatch = ucode::DispatchMode::Threaded;

    /**
     * Field-wise equality (the custom image compares by identity —
     * two configs pointing at different image objects are different
     * machines even if the images' bytes agree; content-level
     * equivalence is the cache key's business, see svc/cachekey.hh).
     */
    bool operator==(const MachineConfig &) const = default;
};

/**
 * Append @p m's trajectory-shaping fields to @p w in one fixed order:
 * the field list both config fingerprints share (sim::configHash and
 * svc::canonicalMachineBytes). Absent: dispatch, because every
 * dispatch mode runs the same cycle body and so the same trajectory,
 * and image, a pointer with no canonical bytes, which each fingerprint
 * covers its own way.
 */
void writeCanonical(ByteWriter &w, const MachineConfig &m);

/** The composed machine. */
class Vax780 : public InterruptController
{
  public:
    explicit Vax780(const MachineConfig &config = MachineConfig{});

    Vax780(const Vax780 &) = delete;  // components hold &counters_
    Vax780 &operator=(const Vax780 &) = delete;

    /**
     * One machine cycle, every step of it: the reference the batched
     * runBatch() is held to. Returns false once halted.
     */
    bool tick();

    /** Run until halted or @p max_cycles elapse. */
    uint64_t run(uint64_t max_cycles);

    /** No instruction limit for runBatch(). */
    static constexpr uint64_t AnyInstructions = ~uint64_t{0};

    /**
     * Run up to @p budget cycles, leaving exactly the state
     * tick()-stepping leaves. Two kinds of cycle take shortcuts:
     *  - under threaded dispatch a pad superblock runs as one loop
     *    without per-cycle dispatch (each cycle still delivers IB
     *    data, feeds the probes and starts fills);
     *  - a stall window advances in one step while the IB is quiet
     *    (see IBox::quietCycles) and no fault injector is attached:
     *    the rest of a read/write stall (Ebox::stallWindow), or the
     *    repeats of an IB-stall cycle (Ebox::ibStallRepeats). Either
     *    is n counts to one bucket and one cycles(upc, stalled, n) per
     *    probe.
     * Devices are ticked only where they are observed (Device::tick),
     * and at return, up to the last cycle run.
     * Stops early once halted, or at the cycle that retires the
     * batch's @p max_instructions-th instruction, so callers can
     * re-evaluate per-instruction conditions exactly without stopping
     * at every retire. Returns cycles run; the halting cycle itself is
     * not counted (as in run()).
     */
    uint64_t runBatch(uint64_t budget,
                      uint64_t max_instructions = AnyInstructions);

    /**
     * runBatch() with a fixed probe set @p fixed (see NoFixedProbes)
     * called inline every cycle ahead of the attached probes. The body
     * is defined below so that a caller with a fixed set instantiates
     * it: sim::WorkloadRun fuses its monitor and watchdog this way.
     */
    template <class Fixed>
    uint64_t runBatch(Fixed &fixed, uint64_t budget,
                      uint64_t max_instructions);

    uint64_t cycles() const { return cycles_; }

    /** Every component's events; not part of serialize(). */
    obs::CounterRegistry &counters() { return counters_; }
    const obs::CounterRegistry &counters() const { return counters_; }

    /** Trace events into @p t (caller-owned); null traces nothing. */
    void
    setTracer(obs::EventTracer *t)
    {
        tracer_ = t;
        ebox_.setTracer(t);
    }
    obs::EventTracer *tracer() const { return tracer_; }

    Ebox &ebox() { return ebox_; }
    IBox &ibox() { return ibox_; }

    /** The microprogram this machine runs. */
    const ucode::MicrocodeImage &microcode() const;
    mem::MemorySubsystem &memsys() { return memsys_; }
    mmu::TranslationBuffer &tb() { return tb_; }

    /**
     * Attach a passive per-cycle probe (multiple allowed): the
     * optional ones, such as an InstrTracer. Each is a virtual call
     * per cycle; a harness that always runs a probe fuses it into
     * runBatch() as a fixed set instead.
     */
    void attachProbe(CycleProbe *p) { probes_.push_back(p); }

    /** Register an interrupting device. */
    void
    addDevice(Device *d)
    {
        d->machine_ = this;
        devices_.push_back(d);
        devicesChanged();
    }

    /**
     * Bring every device up to the last finished cycle: what an
     * observer of device state between instruction ends calls first.
     */
    void
    syncDevices()
    {
        if (cycles_ == 0)
            return;
        for (Device *d : devices_)
            d->tick(cycles_ - 1);
    }

    /**
     * A device's nextEventAt() may have moved: re-read them all. The
     * one refresh of the cached minimum, called after each due poll,
     * on acknowledge, on a device's changed() and by whoever restores
     * device state from a checkpoint.
     */
    void devicesChanged();

    /**
     * Attach a fault injector to every fault site of the machine
     * (memory ECC, SBI timeouts, TB parity, control-store parity) and
     * route its machine-check events to the EBOX. Pass null to detach;
     * a detached machine is cycle-for-cycle identical to one that
     * never had an injector.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    // InterruptController (aggregates devices for the EBOX).
    bool highestPending(uint32_t &level, uint32_t &vector) override;
    void acknowledge(uint32_t level) override;

    /**
     * Checkpoint the core machine: cycle counter, EBOX, IBox, TB and
     * memory hierarchy. Probes, devices and the fault injector are
     * attached components with their own serialization, owned by
     * whoever attached them; the counters serialize on their own.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    /** runBatch()'s loop, devices left where the last poll put them. */
    template <class Fixed>
    [[gnu::always_inline]] inline uint64_t
    batch(Fixed &fixed, uint64_t budget, uint64_t max_instructions);

    /** One whole cycle, @p fixed fused in: tick()'s body. */
    template <class Fixed>
    [[gnu::always_inline]] inline CycleOut step(Fixed &fixed);

    /**
     * The rest of a window of @p n cycles, all at @p upc and all
     * stalled or none, whose EBOX side is already advanced: the probes
     * see n cycles at once.
     */
    template <class Fixed>
    [[gnu::always_inline]] inline void
    window(Fixed &fixed, ucode::UAddr upc, bool stalled, uint64_t n);

    /** Hand the injector's pending machine checks to the EBOX. */
    void deliverFaults();

    // Built first: every component below counts into it.
    obs::CounterRegistry counters_;
    obs::EventTracer *tracer_ = nullptr;
    mem::MemorySubsystem memsys_;
    mmu::TranslationBuffer tb_;
    IBox ibox_;
    Ebox ebox_;

    std::vector<CycleProbe *> probes_;
    std::vector<Device *> devices_;
    fault::FaultInjector *fault_ = nullptr;
    uint64_t cycles_ = 0;
    /**
     * The minimum of the devices' nextEventAt() (devicesChanged()): no
     * device can request at an instruction end of a cycle at or below
     * it.
     */
    uint64_t nextDue_ = ~uint64_t{0};
};

inline void
Device::changed()
{
    if (machine_)
        machine_->devicesChanged();
}

template <class Fixed>
CycleOut
Vax780::step(Fixed &fixed)
{
    if (fault_)
        deliverFaults();

    // Deliver any I-stream fill that completed.
    ibox_.deliver(cycles_);

    // The EBOX consumes one cycle.
    const CycleOut out = ebox_.cycle(cycles_);

    // Passive monitors observe the micro-PC and stall state.
    fixed.cycle(out.upc, out.stalled);
    for (CycleProbe *p : probes_)
        p->cycle(out.upc, out.stalled);

    // The I-Fetch engine issues a new reference if a byte is free;
    // it runs concurrently with EBOX stalls.
    ibox_.startFill(cycles_);

    ++cycles_;
    return out;
}

template <class Fixed>
void
Vax780::window(Fixed &fixed, ucode::UAddr upc, bool stalled, uint64_t n)
{
    fixed.cycles(upc, stalled, n);
    for (CycleProbe *p : probes_)
        p->cycles(upc, stalled, n);
    cycles_ += n;
}

template <class Fixed>
uint64_t
Vax780::runBatch(Fixed &fixed, uint64_t budget, uint64_t max_instructions)
{
    const uint64_t done = batch(fixed, budget, max_instructions);
    syncDevices();
    return done;
}

template <class Fixed>
uint64_t
Vax780::batch(Fixed &fixed, uint64_t budget, uint64_t max_instructions)
{
    uint64_t done = 0;
    const uint64_t insns = ebox_.instructions();
    while (done < budget) {
        // Micro-trace cache: a validated run of pad words needs no
        // dispatch, no IB bytes and no datapath work — only the IB
        // side of the cycle, the probes and the uop-cycle count. Pads
        // cannot halt, trap, stall, retire or raise events, so the
        // probe/counter streams below are exactly what tick() emits.
        uint64_t pads = ebox_.padRun();
        if (pads > 0) {
            if (pads > budget - done)
                pads = budget - done;
            for (uint64_t i = 0; i < pads; ++i) {
                ibox_.deliver(cycles_);
                const CycleOut out = ebox_.padCycle();
                fixed.cycle(out.upc, false);
                for (CycleProbe *p : probes_)
                    p->cycle(out.upc, false);
                ibox_.startFill(cycles_);
                ++cycles_;
            }
            counters_.emitPadCycles(pads);
            done += pads;
            continue;
        }

        // Stall window: the EBOX sits at one address counting stalls
        // (paper §4.3 — the board adds n to one bucket) and the IB has
        // nothing to deliver or fetch, so the whole window is one step.
        // It cannot retire an instruction.
        if (uint64_t n = ebox_.stallWindow(); n > 1) {
            n = ibox_.quietCycles(cycles_, std::min(n, budget - done));
            if (n > 1) {
                const ucode::UAddr upc =
                    ebox_.advanceStall(n, cycles_ + n - 1);
                window(fixed, upc, true, n);
                done += n;
                continue;
            }
        }

        const CycleOut out = step(fixed);
        if (out.halted)
            return done;  // the halting cycle is not counted, as in run()
        ++done;
        if (ebox_.instructions() - insns >= max_instructions)
            return done;

        // IB-stall window: that cycle waited for I-stream bytes, and
        // until the IB changes every next cycle repeats it exactly.
        if (ebox_.ibStallRepeats() && done < budget) {
            if (const uint64_t n = ibox_.quietCycles(cycles_, budget - done)) {
                ebox_.advanceIbStall(n, cycles_ + n - 1);
                window(fixed, out.upc, false, n);
                done += n;
            }
        }
    }
    return done;
}

} // namespace upc780::cpu

#endif // UPC780_CPU_VAX780_HH
