/**
 * @file
 * ulint: a static verifier for the control store and the attribution
 * map the histogram analyzer interprets it with.
 *
 * The paper's measurement technique attributes every processor cycle
 * to a micro-address and then interprets the resulting histogram
 * against static knowledge of the microcode — the Table 8 activity
 * rows and the specifier-/execute-/taken-branch entry annotations. A
 * single mis-rowed address or stale annotation silently corrupts the
 * derived tables with no runtime symptom, so the static knowledge
 * itself must be mechanically checkable. `lint()` builds the
 * microprogram CFG (see cfg.hh) and proves the invariants below,
 * returning a machine-readable findings report.
 *
 * Rules:
 *  - UL001 reachable-unrowed: a reachable micro-address has no
 *    activity row, so its cycles would vanish from Table 8.
 *  - UL002 dead-rowed: an allocated (or rowed) word the CFG cannot
 *    reach from uDECODE; its row claims cycles that can never occur.
 *  - UL003 dangling-dispatch: a sequencer target or dispatch-table
 *    entry that is 0 (reserved invalid) or outside the allocated
 *    store, or a fallthrough off the end of the allocated region.
 *  - UL004 entry-missing: a routine the decode dispatch hardware
 *    needs — a specifier routine for a valid (mode, access) pair, an
 *    indexed base-calc or post-index tail, an execute entry for a
 *    defined opcode, or a landmark — is absent or unreachable.
 *  - UL005 mem-row-conflict: a word issues a memory function but
 *    claims a compute-only row (DECODE, B-DISP, ABORT), breaking the
 *    read/write/IB-stall column split of Table 8.
 *  - UL006 ibstall-not-unique: an "insufficient bytes" stall address
 *    aliases another stall word, a landmark, or a dispatch entry, or
 *    is not a pure no-op; stall cycles would be misattributed.
 *  - UL007 annotation-mismatch: an analyzer annotation disagrees with
 *    the dispatch tables or the microword it describes (wrong
 *    position/class, stale key, group or branch-format drift).
 *  - UL008 duplicate-entry: one address carries more than one
 *    annotation (or annotates a landmark), so the analyzer would
 *    count its executions in several tables at once.
 *  - UL009 row-mismatch: a landmark or annotated entry carries a row
 *    other than the one the paper's attribution requires (e.g. a
 *    first-specifier routine rowed SPEC2-6).
 *
 * The dataflow rules (UL010+) run the fixpoint engine of dataflow.hh
 * over the per-word effects of effects.hh:
 *
 *  - UL010 dead-write: a word whose only datapath effect is writing a
 *    micro-register, but the value is overwritten on every path before
 *    any use (backward liveness, union meet). Dead setup words dilute
 *    the per-row cycle attribution with cycles that do nothing.
 *  - UL011 undefined-read / bus conflict: a word's certain read of a
 *    micro-register that no write — not even a may-def — can reach
 *    (forward reaching definitions over the sequential sub-CFG, so
 *    facts cannot leak between routines through the dispatch
 *    over-approximation), or a word's own memory function overwrites
 *    a value the word just drove before anything reads it.
 *  - UL012 tainted-reach: a word reachable from uDECODE only through
 *    words flagged by other rules; its attribution inherits their
 *    defects even though the word itself is well-formed.
 *  - UL013 class-ambiguity: a reachable word does not map to exactly
 *    one UPC cycle class (compute/read/write/ib-stall/abort/halt), or
 *    maps to a class its activity row cannot admit — the Table 8
 *    column split would misfile its cycles.
 *  - UL014 counter-unsound: a reachable word can bump an obs counter
 *    its activity row's micro-ops cannot generate, so a dynamic count
 *    could land outside the statically-allowed set.
 *  - UL015 counter-unreachable: no reachable word can generate one of
 *    the core obs counters; the dynamic cross-check for that event
 *    would be vacuously true.
 *  - UL016 decode-divergence: the pre-decoded row matrix the threaded
 *    dispatcher executes disagrees with the source control store — a
 *    row is not a verbatim copy of its word, carries the wrong fused
 *    form or pad-superblock run length, or its static read/write
 *    cycle class contradicts the effects map. UL013-UL015 audit cycle
 *    classes and counter effects per word; this rule proves the
 *    decoded matrix is a faithful image of those words, so their
 *    verdicts carry over to what the threaded EBOX actually runs.
 *
 * All rules are Severity::Error: the shipped microprogram must be
 * clean, and a ctest case asserts that it is.
 */

#ifndef UPC780_ULINT_ULINT_HH
#define UPC780_ULINT_ULINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ucode/controlstore.hh"
#include "ulint/cfg.hh"

namespace upc780::ulint
{

enum class Severity : uint8_t
{
    Error,
    Warning,
};

std::string_view severityName(Severity s);

/** One rule violation. */
struct Finding
{
    std::string rule;        //!< rule ID, e.g. "UL003"
    Severity severity = Severity::Error;
    UAddr addr = 0;          //!< offending micro-address (0: global)
    ucode::Row row = ucode::Row::None;  //!< its activity row
    std::string detail;      //!< human-readable description
};

/** The findings report for one microprogram image. */
struct Report
{
    std::vector<Finding> findings;
    uint32_t wordsChecked = 0;    //!< allocated control-store words
    uint32_t reachableWords = 0;  //!< words reachable from uDECODE

    /** True when no Error-severity finding was produced. */
    bool clean() const;

    /** Number of findings carrying rule ID @p rule. */
    size_t countRule(std::string_view rule) const;

    /** True if some finding names micro-address @p a. */
    bool flags(UAddr a) const;

    /** One line per finding, plus a summary line. */
    std::string toText() const;

    /** The same report as a JSON object (machine-readable). */
    std::string toJson() const;

    /**
     * The report as a SARIF 2.1.0 log so CI renders findings as code
     * annotations. Micro-addresses have no source file, so each result
     * carries a logical location naming the control-store word.
     */
    std::string toSarif() const;
};

/** Run every rule against @p image. */
Report lint(const ucode::MicrocodeImage &image);

} // namespace upc780::ulint

#endif // UPC780_ULINT_ULINT_HH
