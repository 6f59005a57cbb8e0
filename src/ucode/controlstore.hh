/**
 * @file
 * The control store and its static map. The map assigns every
 * micro-address an *activity row* (the rows of the paper's Table 8)
 * and carries the annotations the offline histogram analyzer uses to
 * derive event frequencies (specifier entries, execute entries,
 * taken-branch entries). This mirrors the paper's method: the raw UPC
 * histogram is interpreted against static knowledge of the microcode.
 */

#ifndef UPC780_UCODE_CONTROLSTORE_HH
#define UPC780_UCODE_CONTROLSTORE_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "arch/opcodes.hh"
#include "arch/specifier.hh"
#include "ucode/uop.hh"

namespace upc780::ucode
{

/** Table 8 activity rows. */
enum class Row : uint8_t
{
    None,        //!< unallocated control store
    Decode,
    Spec1,
    Spec26,
    BDisp,
    ExSimple,
    ExField,
    ExFloat,
    ExCallRet,
    ExSystem,
    ExCharacter,
    ExDecimal,
    IntExcept,
    MemMgmt,
    Abort,
    NumRows,
};

/** Row label as printed in Table 8. */
std::string_view rowName(Row r);

/** The execute row for an opcode group. */
Row execRowFor(arch::Group g);

/** Static per-address metadata. */
struct UAddrInfo
{
    Row row = Row::None;
};

/** Specifier-routine modes the dispatch hardware distinguishes. */
enum class SpecMode : uint8_t
{
    Lit,
    Reg,
    RegDef,
    AutoInc,
    AutoIncDef,
    AutoDec,
    Disp,
    DispDef,
    Abs,
    Imm,
    NumModes,
};

/** Map an architectural addressing mode to its routine family. */
SpecMode specModeFor(arch::AddrMode m);

/** Access buckets the specifier routines are specialized on. */
enum class AccessBucket : uint8_t
{
    Read,
    Write,
    Modify,
    Addr,  //!< address/field access: compute address only
    NumBuckets,
};

/** Map an operand access class to its routine bucket. */
AccessBucket accessBucketFor(arch::Access a);

/** Annotation on a specifier-routine entry micro-address. */
struct SpecEntryNote
{
    bool first = false;             //!< SPEC1 vs SPEC2-6
    arch::SpecClass cls = arch::SpecClass::Register;
    bool indexed = false;           //!< index-prefix calc entry
};

/** Annotation on an execute-routine entry micro-address. */
struct ExecEntryNote
{
    arch::Group group = arch::Group::Simple;
    arch::PcClass pcClass = arch::PcClass::None;
    bool branchFormat = false;      //!< consumes a branch displacement
};

/** Well-known micro-addresses. */
struct Landmarks
{
    UAddr decode = 0;        //!< the IRD microinstruction (1/instr)
    UAddr ibStallDecode = 0; //!< IB stall awaiting the opcode byte
    UAddr ibStallSpec1 = 0;  //!< IB stall awaiting a first specifier
    UAddr ibStallSpec26 = 0; //!< IB stall awaiting a later specifier
    UAddr ibStallBdisp = 0;  //!< IB stall awaiting a branch disp
    UAddr abort = 0;         //!< one cycle per microtrap
    UAddr tbMissD = 0;       //!< D-stream TB miss service entry
    UAddr tbMissI = 0;       //!< I-stream TB miss service entry
    UAddr intDispatch = 0;   //!< interrupt/exception dispatch entry
    UAddr machineCheck = 0;  //!< machine-check dispatch entry
    UAddr halted = 0;        //!< resting place after HALT
};

/**
 * The assembled microprogram: control words, the static map, the
 * decode dispatch tables, and the analyzer annotations.
 */
struct MicrocodeImage
{
    std::array<MicroOp, ControlStoreSize> ops{};
    std::array<UAddrInfo, ControlStoreSize> info{};
    Landmarks marks;

    /** [first][SpecMode][AccessBucket] -> routine entry (0 invalid). */
    UAddr specRoutine[2][size_t(SpecMode::NumModes)]
                     [size_t(AccessBucket::NumBuckets)] = {};

    /** Field access (.v) with register mode, [first]. */
    UAddr regFieldRoutine[2] = {};

    /** Quad/double immediate routine (two I-stream pulls), [first]. */
    UAddr immQuadRoutine[2] = {};

    /**
     * Indexed-specifier base-calculation entries, [first][base
     * SpecMode]. All live in the SPEC2-6 region: the 780 shares the
     * base-address microcode, which is why the paper reports indexed
     * first-specifier base calc under SPEC2-6 (§5).
     */
    UAddr idxRoutine[2][size_t(SpecMode::NumModes)] = {};

    /** Post-index access tails, [first][AccessBucket]. */
    UAddr idxTail[2][size_t(AccessBucket::NumBuckets)] = {};

    /** Per-opcode execute entry (0 = not implemented). */
    std::array<UAddr, 256> execEntry{};

    /**
     * Register-operand fast-path execute entry (0 = none). The real
     * microcode has separate paths for register and memory modify
     * destinations (and register vs memory bit-field bases); decode
     * dispatch selects between them, so a register-destination ADDL2
     * never touches the memory-writeback microword.
     */
    std::array<UAddr, 256> execEntryRegAlt{};

    /** Analyzer annotations. */
    std::unordered_map<UAddr, SpecEntryNote> specEntries;
    std::unordered_map<UAddr, ExecEntryNote> execEntries;
    /** BranchTarget micro-ops, keyed by address -> PC-change class. */
    std::unordered_map<UAddr, arch::PcClass> takenEntries;

    /** Number of allocated control-store words. */
    uint32_t allocated = 0;

    const MicroOp &at(UAddr a) const { return ops[a]; }
    Row rowOf(UAddr a) const { return info[a].row; }
};

/**
 * Build (once) and return the complete 780 microprogram. The image is
 * immutable after construction; every CPU instance shares it.
 */
const MicrocodeImage &microcodeImage();

/**
 * The same microprogram assembled for a machine *without* the
 * Floating Point Accelerator: float execute routines carry the base
 * machine's serial fraction-arithmetic cycle counts. Identical
 * layout up to the execute region; all landmarks coincide with the
 * FPA image's.
 */
const MicrocodeImage &microcodeImageNoFpa();

/**
 * Content fingerprint of a microprogram: a 64-bit FNV-1a over every
 * allocated control word (all five micro-op fields), the static row
 * map and the landmark set — everything that shapes what a machine
 * running this image *does* and how its cycles are attributed. Two
 * images with equal hashes execute identically for cache purposes;
 * the experiment daemon folds this into its content-addressed result
 * key, so a result computed under one image is never served for
 * another (a defective lint-test copy hashes differently from the
 * shipped image it was cloned from).
 *
 * The two shipped images are immutable singletons, so their hashes
 * are computed once and memoized. Any other image is hashed afresh on
 * every call: a custom image can be freed and a different one built at
 * the same address, so no memo may be keyed on its address.
 * Thread-safe.
 */
uint64_t imageContentHash(const MicrocodeImage &img);

// ----- debug/listing helpers ------------------------------------------

/** Mnemonic for a datapath function (microprogram listings). */
std::string_view dpName(Dp d);
/** Mnemonic for a memory function. */
std::string_view memName(Mem m);
/** Mnemonic for an I-Decode function. */
std::string_view ibName(Ib i);
/** Mnemonic for a sequencing control. */
std::string_view seqName(Seq s);

} // namespace upc780::ucode

#endif // UPC780_UCODE_CONTROLSTORE_HH
