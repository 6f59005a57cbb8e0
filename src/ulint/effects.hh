/**
 * @file
 * Per-word effect derivation for the control store: what each
 * microinstruction can do to the abstract EBOX micro-registers, which
 * UPC cycle class its histogram cycles belong to, and which obs
 * counters a cycle attributed to it is allowed to bump.
 *
 * This is the static half of the attribution cross-check. The dynamic
 * half — the EBOX's end-of-cycle classification
 * (CounterRegistry::emitCycle) and the monitor's count/stall
 * bucketing — is derived from the *same* microword fields at
 * runtime; deriving the allowed sets here, from
 * nothing but the assembled image, lets the linter prove the static
 * map sound (rules UL013-UL015) and lets the experiment runner refute
 * any run whose histogram or counter totals land outside them
 * (sim::auditAttribution).
 *
 * Register effects are split by intra-cycle stage because the EBOX
 * orders one cycle as: pre-memory datapath work (address/data setup),
 * the memory function, then post-memory datapath work and sequencing.
 * A WriteResult word, for example, defines MDR *before* its WriteV
 * consumes it; an OperandFromMdr word reads the MDR its own ReadV just
 * produced. The dataflow rules (UL010/UL011) need that ordering to
 * avoid false positives on the shipped microprogram.
 */

#ifndef UPC780_ULINT_EFFECTS_HH
#define UPC780_ULINT_EFFECTS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hh"
#include "ucode/controlstore.hh"
#include "ulint/cfg.hh"

namespace upc780::ulint
{

// ----- abstract micro-registers ----------------------------------------

/**
 * The EBOX state the dataflow rules track: the memory-address latch,
 * the memory-data register, and the condition flag the conditional
 * sequencer functions test. GPRs, PC, and the operand/result queues
 * are deliberately out of scope — they are architectural state with
 * cross-instruction lifetime, so "dead write" and "use before def"
 * have no per-routine meaning for them.
 */
enum class MReg : uint8_t
{
    Taddr,
    Mdr,
    Flag,
    NumRegs,
};

constexpr size_t NumMRegs = static_cast<size_t>(MReg::NumRegs);

std::string_view mregName(MReg r);

/** Bitmask over MReg (the dataflow lattice element). */
using RegMask = uint32_t;

constexpr RegMask
regBit(MReg r)
{
    return RegMask(1) << static_cast<unsigned>(r);
}

constexpr RegMask AllRegs = (RegMask(1) << NumMRegs) - 1;

/** Register effects of one microword, by intra-cycle stage. */
struct RegEffects
{
    RegMask usePre = 0;   //!< datapath reads before the memory function
    RegMask defPre = 0;   //!< datapath must-defs before the memory function
    RegMask useMem = 0;   //!< registers the memory function consumes
    RegMask defMem = 0;   //!< registers the memory function produces
    RegMask usePost = 0;  //!< datapath/sequencer reads after the memory op
    RegMask defPost = 0;  //!< datapath must-defs after the memory op
    RegMask defMay = 0;   //!< everything the word *might* define
    /**
     * Certain reads per stage (UL011's must-be-defined check); subsets
     * of usePre/usePost. Kept separate per stage because a register
     * can be a may-use of one stage and a certain use of another —
     * ExecStep may consult anything pre-stage but only its memory
     * phase's address/data reads are unconditional. Memory-stage uses
     * (useMem) are always certain and need no separate mask.
     */
    RegMask usePreSure = 0;
    RegMask usePostSure = 0;
    bool pureDef = false; //!< datapath's only effect is its register defs

    /** Everything the word definitely overwrites (liveness kill set). */
    RegMask
    defMust() const
    {
        return defPre | defMem | defPost;
    }

    /** Upward-exposed uses: reads no earlier stage of the word feeds. */
    RegMask
    liveUse() const
    {
        return usePre | (useMem & ~defPre) |
               (usePost & ~(defPre | defMem));
    }
};

/** Derive the register effects of @p op (see the table in effects.cc). */
RegEffects regEffects(const ucode::MicroOp &op);

// ----- cycle classes ---------------------------------------------------

/**
 * The class every cycle attributed to a word belongs to. Compute,
 * Read, and Write split by the word's static memory function exactly
 * as the analyzer's Table 8 columns do; IbStall, Abort, and Halt are
 * the fabricated-cycle landmarks, which the EBOX classifies by
 * address identity rather than by microword fields.
 */
enum class CycleClass : uint8_t
{
    Compute,
    Read,
    Write,
    IbStall,
    Abort,
    Halt,
    NumClasses,
};

std::string_view cycleClassName(CycleClass c);

/** Bitmask over CycleClass. */
using ClassMask = uint8_t;

constexpr ClassMask
classBit(CycleClass c)
{
    return ClassMask(1u << static_cast<unsigned>(c));
}

// ----- counter effects -------------------------------------------------

/** Bitmask over obs::Ev (fits: the registry holds < 64 events). */
using CounterMask = uint64_t;

static_assert(obs::NumEvents <= 64,
              "CounterMask must cover every obs event");

constexpr CounterMask
counterBit(obs::Ev e)
{
    return CounterMask(1) << static_cast<uint32_t>(e);
}

// ----- the per-word effect map -----------------------------------------

/** Everything the attribution audit needs to know about one word. */
struct WordEffects
{
    /** The word's cycle class (first of @ref candidates by priority). */
    CycleClass cls = CycleClass::Compute;
    /**
     * Every class the word matches. More than one bit set means the
     * attribution is ambiguous — e.g. a landmark that also carries a
     * memory function — which rule UL013 reports.
     */
    ClassMask candidates = 0;
    /** Word can accrue read/write stall cycles (has a memory function). */
    bool canStall = false;
    /** Obs counters a cycle attributed to this word may bump. */
    CounterMask counters = 0;
};

/**
 * The static attribution matrix: for every allocated word, its cycle
 * class, stall capability, and allowed counter set, derived from the
 * image alone. `tools/ulint --attribution` emits it as JSON; the
 * runtime audit (sim::auditAttribution) holds each run's histogram and
 * counter totals to it.
 */
class EffectMap
{
  public:
    explicit EffectMap(const ucode::MicrocodeImage &image);

    const WordEffects &at(UAddr a) const;

    CycleClass classOf(UAddr a) const { return at(a).cls; }
    bool canStall(UAddr a) const { return at(a).canStall; }
    CounterMask countersOf(UAddr a) const { return at(a).counters; }

    /** Cycle classes the paper's attribution admits for row @p r. */
    static ClassMask allowedClasses(ucode::Row r);

    /** Obs counters a word of row @p r may bump. */
    static CounterMask allowedCounters(ucode::Row r);

    /**
     * The matrix as JSON: one entry per allocated word with its row,
     * class, stall capability, reachability (from @p cfg), and counter
     * names. Machine-readable contract for CI and the audit tooling.
     */
    std::string toJson(const MicroCfg &cfg) const;

    const ucode::MicrocodeImage &image() const { return img_; }

  private:
    const ucode::MicrocodeImage &img_;
    std::vector<WordEffects> fx_;
};

} // namespace upc780::ulint

#endif // UPC780_ULINT_EFFECTS_HH
