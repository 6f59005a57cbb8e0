/**
 * @file
 * The complete VAX-11/780 machine model: EBOX + IBox + TB + memory
 * subsystem + devices, advanced one 200 ns cycle at a time. Hardware
 * monitors (the UPC histogram board, the cache-study counters) attach
 * here as passive probes, exactly as the paper's monitor attached to
 * the real machine's backplane.
 */

#ifndef UPC780_CPU_VAX780_HH
#define UPC780_CPU_VAX780_HH

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
};

/** A bus device that can request interrupts. */
class Device
{
  public:
    virtual ~Device() = default;
    /** Advance device state to @p now (called every machine cycle). */
    virtual void tick(uint64_t now) = 0;
    /** Interrupt request: fill level/vector if requesting. */
    virtual bool requesting(uint32_t &level, uint32_t &vector) = 0;
    /** The CPU dispatched this device's interrupt. */
    virtual void acknowledge() = 0;
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

    /** One machine cycle. Returns false once halted. */
    bool tick();

    /** Run until halted or @p max_cycles elapse. */
    uint64_t run(uint64_t max_cycles);

    /**
     * Run up to @p budget cycles. Under threaded dispatch a pad
     * superblock runs as one loop without per-cycle dispatch, but
     * every cycle still performs the full tick sequence (IB delivery,
     * probes, IB fill, devices), so the architected state, counter
     * totals and event streams are bit-identical to tick()-stepping.
     * Stops early once halted, or (with @p stop_at_instruction) as
     * soon as the retired-instruction count changes, so callers can
     * re-evaluate per-instruction conditions exactly. Returns cycles
     * run; the halting cycle itself is not counted (as in run()).
     */
    uint64_t runBatch(uint64_t budget, bool stop_at_instruction);

    uint64_t cycles() const { return cycles_; }

    Ebox &ebox() { return ebox_; }
    IBox &ibox() { return ibox_; }

    /** The microprogram this machine runs. */
    const ucode::MicrocodeImage &microcode() const;
    mem::MemorySubsystem &memsys() { return memsys_; }
    mmu::TranslationBuffer &tb() { return tb_; }

    /** Attach a passive per-cycle probe (multiple allowed). */
    void attachProbe(CycleProbe *p) { probes_.push_back(p); }
    void detachProbe(CycleProbe *p);

    /** Register an interrupting device. */
    void addDevice(Device *d) { devices_.push_back(d); }

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
     * whoever attached them.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    mem::MemorySubsystem memsys_;
    mmu::TranslationBuffer tb_;
    IBox ibox_;
    Ebox ebox_;

    std::vector<CycleProbe *> probes_;
    std::vector<Device *> devices_;
    fault::FaultInjector *fault_ = nullptr;
    uint64_t cycles_ = 0;
};

} // namespace upc780::cpu

#endif // UPC780_CPU_VAX780_HH
