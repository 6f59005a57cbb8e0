/**
 * @file
 * Deterministic fault injection for the modeled VAX-11/780.
 *
 * The machines the paper measured were live timesharing systems that
 * routinely rode through correctable memory ECC errors, translation-
 * buffer and control-store parity faults, and SBI timeouts: the
 * machine-check microcode corrected or retried them and VMS logged an
 * error-log entry, with at worst the afflicted process terminated.
 * This module supplies the fault *source*: a seeded, bit-reproducible
 * injector that the timed hardware paths consult —
 *
 *  - main-memory ECC on cache-miss fills (mem/memory.cc),
 *  - SBI transaction timeouts (mem/sbi.cc),
 *  - translation-buffer parity on lookups (mmu/tb.cc),
 *  - control-store parity on microword fetches (cpu/ebox.cc).
 *
 * Faults can be driven by per-access Bernoulli rates, by an explicit
 * deterministic schedule ("the Nth TB lookup fails"), or both. Every
 * injected fault is queued as a pending machine-check code that the
 * machine delivers to the EBOX at the next instruction boundary; the
 * VMS-lite kernel's machine-check handler then logs it and applies the
 * recovery policy (see os/kernel.cc).
 *
 * With no injector attached (the default) every consult site is a null
 * pointer check: measurements are bit-identical to a build without the
 * subsystem.
 */

#ifndef UPC780_FAULT_FAULT_HH
#define UPC780_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "common/random.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::fault
{

/** The fault classes of the modeled machine. */
enum class FaultKind : uint8_t
{
    MemEccSingle, //!< corrected read data (CRD): ECC fixed a bit
    MemEccDouble, //!< read data substitute (RDS): uncorrectable
    SbiTimeout,   //!< SBI no-response timeout; transaction retried
    TbParity,     //!< TB parity error; entry invalidated and refilled
    CsParity,     //!< control-store parity; microword re-fetched
    NumKinds,
};

constexpr size_t NumFaultKinds = static_cast<size_t>(FaultKind::NumKinds);

/** Short label for reports and error logs. */
std::string_view faultName(FaultKind k);

/** True when hardware/microcode recovery preserves the process. */
constexpr bool
faultCorrectable(FaultKind k)
{
    return k != FaultKind::MemEccDouble;
}

/**
 * Machine-check code encoding: a recognizable magic in the high bits
 * plus the fault kind in the low byte. This is the longword the
 * machine-check microcode pushes onto the exception frame.
 */
constexpr uint32_t McheckCodeBase = 0x780C0000u;

constexpr uint32_t
mcheckCode(FaultKind k)
{
    return McheckCodeBase | static_cast<uint32_t>(k);
}

/** True if @p code carries the machine-check magic. */
constexpr bool
isMcheckCode(uint32_t code)
{
    return (code & 0xFFFF0000u) == McheckCodeBase;
}

/** Fault kind of a machine-check code (caller checks isMcheckCode). */
constexpr FaultKind
mcheckKind(uint32_t code)
{
    return static_cast<FaultKind>(code & 0xFFu);
}

/** One deterministic schedule entry: fire on the Nth access (1-based)
 *  of the kind's access class. */
struct FaultSchedule
{
    FaultKind kind;
    uint64_t access;
};

/**
 * One cycle-scheduled machine check, delivered by the experiment
 * harness at an exact machine cycle (not via an injector consult
 * site). This is the replay-from-snapshot knob: restore a checkpoint
 * taken before `cycle`, vary `cycle` by one, and re-run to compare
 * outcomes of the same fault at adjacent instants. Excluded from the
 * snapshot config hash so one baseline checkpoint serves a whole
 * sweep.
 */
struct CycleInjection
{
    uint64_t cycle = 0;
    FaultKind kind = FaultKind::MemEccSingle;
};

/** Injection configuration. All rates default to zero (no faults). */
struct FaultConfig
{
    uint64_t seed = 0x780FA;
    /** Per miss-fill longword probabilities. */
    double memEccSingleRate = 0.0;
    double memEccDoubleRate = 0.0;
    /** Per SBI transaction. */
    double sbiTimeoutRate = 0.0;
    /** Per TB lookup of a valid entry. */
    double tbParityRate = 0.0;
    /** Per executed microcycle. */
    double csParityRate = 0.0;
    /** Extra bus-stall cycles a timed-out SBI transaction costs. */
    uint32_t sbiTimeoutPenaltyCycles = 64;
    /** Explicit deterministic injections, in addition to the rates. */
    std::vector<FaultSchedule> schedule;

    /**
     * Harness-delivered machine checks at exact cycles (see
     * CycleInjection). These do not require (or perturb) an attached
     * injector and do not count into `any()`.
     */
    std::vector<CycleInjection> cycleInjections;

    /** True when any injector-driven fault source is active. */
    bool any() const;
};

/** Injection counters, by kind. */
struct FaultStats
{
    std::array<uint64_t, NumFaultKinds> injected{};

    uint64_t count(FaultKind k) const
    {
        return injected[static_cast<size_t>(k)];
    }
    uint64_t total() const;
    uint64_t correctable() const;
    uint64_t uncorrectable() const;

    void accumulate(const FaultStats &o);
};

/**
 * The seeded fault source. One injector serves one machine for one
 * run; identical (config, access sequence) pairs reproduce identical
 * fault streams.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return cfg_; }
    const FaultStats &stats() const { return stats_; }

    /** The machine stamps the current cycle for event records. */
    void setNow(uint64_t now) { now_ = now; }

    // ----- consult sites (called from the timed hardware paths) --------
    /**
     * A cache-miss fill longword was fetched from main memory.
     * @retval true when an ECC event (single- or double-bit) fired.
     */
    bool onMemoryFill(uint32_t pa);

    /**
     * An SBI transaction started.
     * @retval extra occupancy cycles (0: no timeout).
     */
    uint32_t onSbiTransaction();

    /**
     * A valid TB entry was referenced.
     * @retval true when a parity fault fired (caller invalidates it).
     */
    bool onTbLookup();

    /**
     * A microword was fetched for execution.
     * @retval true when a control-store parity fault fired (caller
     *         spends one abort cycle re-fetching it).
     */
    bool onCsFetch();

    // ----- pending machine checks --------------------------------------
    bool mcheckPending() const { return !pending_.empty(); }

    /** Drain the oldest pending machine-check code. */
    uint32_t takeMcheck();

    /** Checkpoint RNG, access counters, stats and pending checks. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    /** Decide whether kind @p k fires on access @p n of its class. */
    bool fires(FaultKind k, uint64_t n, double rate);
    void inject(FaultKind k);

    FaultConfig cfg_;
    upc780::Rng rng_;
    FaultStats stats_;
    uint64_t now_ = 0;

    /** Per-class access counters (memory fills share one class). */
    uint64_t fills_ = 0;
    uint64_t sbiTransactions_ = 0;
    uint64_t tbLookups_ = 0;
    uint64_t csFetches_ = 0;

    std::deque<uint32_t> pending_;
};

} // namespace upc780::fault

#endif // UPC780_FAULT_FAULT_HH
