/**
 * @file
 * Pre-decoded control store: the per-cycle interpreter's view of the
 * microprogram.
 *
 * The assembled MicrocodeImage stores each word as a MicroOp with four
 * fields (dp, mem, ib, seq). The decoded image flattens each word,
 * once per image, into a DecodedRow carrying its fused form (the Hx
 * the threaded dispatcher jumps through in one indirect branch), the
 * word's static obs cycle classification, and the superblock run
 * length used by the micro-trace cache (consecutive pure-padding
 * words executed in one batched inner loop).
 *
 * A form is one row of the `forms` table below: the field values a
 * hot word fixes. The EBOX has one cycle body, templated over a
 * FieldView; each form instantiates it with those fields as
 * compile-time constants, and Generic instantiates it with every
 * field read from the word. The table is the only place the fused
 * combinations are spelled: classifyUop and the EBOX both read it.
 *
 * Decoded images are immutable and shared copy-on-write across
 * machines and worker threads: a registry keyed on the source image's
 * identity hands out shared_ptrs, so the parallel engine's N workers
 * decode each image exactly once. An EBOX re-derives its pointer from
 * its (config-owned) MicrocodeImage both at construction and on
 * snapshot restore — decoded state is never serialized, so a restore
 * can never observe a stale decode.
 */

#ifndef UPC780_UCODE_DECODED_HH
#define UPC780_UCODE_DECODED_HH

#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ucode/uop.hh"

namespace upc780::ucode
{

struct MicrocodeImage;

/** How the EBOX dispatches microinstructions (MachineConfig::dispatch). */
enum class DispatchMode : uint8_t
{
    Switch,    //!< reference: the Generic cycle body on every word
    Threaded,  //!< decoded rows + computed-goto + micro-trace cache
};

/**
 * Fused form of one decoded control-store word. Each value but
 * Generic names a (dp, mem, ib, seq) combination hot enough in the
 * shipped microprogram to deserve its own instantiation of the cycle
 * body; everything else (including any word of a defective test image)
 * takes Generic, which reads every field from the word and is
 * therefore correct for arbitrary field combinations.
 */
enum class Hx : uint8_t
{
    Generic,          //!< every field read from the word (always correct)
    Pad,              //!< nop/-/-/next: ExecCost padding; batchable
    Decode,           //!< the I-Decode word (nop/-/decop/specdisp)
    SpecHead,         //!< address-calc head, ib=decspec, seq=next
    SpecOperand,      //!< reg/lit/imm operand latch, seq=specdisp
    OperandMdrRead,   //!< opnd.mdr / rdv / specdisp (memory operand)
    WriteResultSpec,  //!< wres / wrv / specdisp (result write-back)
    OperandAddrDisp,  //!< opnd.addr / - / specdisp (address operand)
    NopSpecDispatch,  //!< nop / - / specdisp (dispatch-only word)
    ExecNext,         //!< exec / - / next (one-cycle execute)
    ExecStepNext,     //!< exec.step / - / next (non-memory step)
    LoopDecJif,       //!< loopdec / - / jumpif (iteration control)
    TakeBranchDecode, //!< take / - / decnext (taken-branch retire)
    ExecSpecDispatch, //!< exec / - / specdisp (execute, then write specs)
    ExecBdispCond,    //!< exec / bdisp / decnextifnot (loop-branch test)
    BranchTargetNext, //!< brtgt / - / next (target from latched disp)
    NumHandlers,
};

static_assert(static_cast<unsigned>(Dp::Halt) < 64,
              "Form::dps holds one bit per Dp value");

/** The one-bit Form::dps set of @p d. */
constexpr uint64_t
dpBit(Dp d)
{
    return uint64_t{1} << static_cast<unsigned>(d);
}

/**
 * The fields one fused form fixes. A form fixes mem, ib and seq to one
 * value each and dp to a set (usually one value); arg and target are
 * never fixed.
 */
struct Form
{
    Hx h;
    std::string_view name;  //!< hxName(h), as ulint --decoded prints it
    uint64_t dps;           //!< accepted dp values, one bit each (0: none)
    Mem mem;
    Ib ib;
    Seq seq;

    constexpr bool
    matches(const MicroOp &op) const
    {
        return (dps & dpBit(op.dp)) != 0 && op.mem == mem && op.ib == ib &&
               op.seq == seq;
    }
};

/**
 * The form table, indexed by Hx. Generic accepts no dp, so it matches
 * no word; classifyUop falls back to it when no other form matches.
 */
inline constexpr Form forms[] = {
    // form, hxName, dp set,
    //  mem, ib, seq
    {Hx::Generic, "generic", 0,
     Mem::None, Ib::None, Seq::Next},
    {Hx::Pad, "pad", dpBit(Dp::Nop),
     Mem::None, Ib::None, Seq::Next},
    {Hx::Decode, "decode", dpBit(Dp::Nop),
     Mem::None, Ib::DecodeOp, Seq::SpecDispatch},
    {Hx::SpecHead, "spec-head",
     dpBit(Dp::SpecLoadReg) | dpBit(Dp::SpecLoadRegDisp) |
         dpBit(Dp::SpecLoadAbs) | dpBit(Dp::SpecAutoInc) |
         dpBit(Dp::SpecAutoDec),
     Mem::None, Ib::DecodeSpec, Seq::Next},
    {Hx::SpecOperand, "spec-operand",
     dpBit(Dp::OperandFromReg) | dpBit(Dp::OperandFromLit) |
         dpBit(Dp::OperandFromImm) | dpBit(Dp::RegWriteSpec),
     Mem::None, Ib::DecodeSpec, Seq::SpecDispatch},
    {Hx::OperandMdrRead, "operand-mdr-read", dpBit(Dp::OperandFromMdr),
     Mem::ReadV, Ib::None, Seq::SpecDispatch},
    {Hx::WriteResultSpec, "write-result", dpBit(Dp::WriteResult),
     Mem::WriteV, Ib::None, Seq::SpecDispatch},
    {Hx::OperandAddrDisp, "operand-addr", dpBit(Dp::OperandAddr),
     Mem::None, Ib::None, Seq::SpecDispatch},
    {Hx::NopSpecDispatch, "nop-specdisp", dpBit(Dp::Nop),
     Mem::None, Ib::None, Seq::SpecDispatch},
    {Hx::ExecNext, "exec-next", dpBit(Dp::Exec),
     Mem::None, Ib::None, Seq::Next},
    {Hx::ExecStepNext, "exec-step-next", dpBit(Dp::ExecStep),
     Mem::None, Ib::None, Seq::Next},
    {Hx::LoopDecJif, "loopdec-jif", dpBit(Dp::LoopDec),
     Mem::None, Ib::None, Seq::JumpIfFlag},
    {Hx::TakeBranchDecode, "take-branch-decode", dpBit(Dp::TakeBranch),
     Mem::None, Ib::None, Seq::DecodeNext},
    {Hx::ExecSpecDispatch, "exec-specdisp", dpBit(Dp::Exec),
     Mem::None, Ib::None, Seq::SpecDispatch},
    {Hx::ExecBdispCond, "exec-bdisp-cond", dpBit(Dp::Exec),
     Mem::None, Ib::GetBranchDisp, Seq::DecodeNextIfNotFlag},
    {Hx::BranchTargetNext, "branch-target", dpBit(Dp::BranchTarget),
     Mem::None, Ib::None, Seq::Next},
};

static_assert(std::size(forms) == static_cast<size_t>(Hx::NumHandlers));
static_assert([] {
    for (size_t i = 0; i < std::size(forms); ++i)
        if (forms[i].h != static_cast<Hx>(i))
            return false;
    return true;
}(), "forms[] is indexed by Hx");

/**
 * A word's fields as the cycle body sees them under form @p H: the
 * fields the form fixes are compile-time constants, so the body's
 * switches over them fold away; every other field (all of them, for
 * Generic) is read from the word.
 */
template <Hx H>
struct FieldView
{
    static constexpr Form form = forms[static_cast<size_t>(H)];
    static constexpr bool fixed = H != Hx::Generic;

    const MicroOp &op;

    constexpr Dp
    dp() const
    {
        if constexpr (fixed && std::has_single_bit(form.dps)) {
            return static_cast<Dp>(std::countr_zero(form.dps));
        } else {
            // A row carries a dp-set form only when its word's dp is
            // in the set (classifyUop; ulint UL016 audits it), so the
            // body's dp switches may shrink to the set's cases.
            if constexpr (fixed)
                if (!(form.dps & dpBit(op.dp)))
                    __builtin_unreachable();
            return op.dp;
        }
    }
    constexpr Mem mem() const { return fixed ? form.mem : op.mem; }
    constexpr Ib ib() const { return fixed ? form.ib : op.ib; }
    constexpr Seq seq() const { return fixed ? form.seq : op.seq; }
    constexpr uint16_t arg() const { return op.arg; }
    constexpr UAddr target() const { return op.target; }
};

std::string_view hxName(Hx h);

/** One pre-decoded control-store row (16 bytes). */
struct DecodedRow
{
    MicroOp op;            //!< verbatim copy of the source word
    Hx h = Hx::Generic;    //!< fused form
    uint8_t memRead : 1;   //!< static obs class: counted read cycle
    uint8_t memWrite : 1;  //!< static obs class: counted write cycle
    uint16_t runLen = 0;   //!< pad-superblock length from here (Pad only)
    UAddr self = 0;        //!< own control-store address

    DecodedRow() : memRead(0), memWrite(0) {}
};

/** The decoded twin of one MicrocodeImage. */
struct DecodedImage
{
    const MicrocodeImage *source = nullptr;
    std::array<DecodedRow, ControlStoreSize> rows{};
};

/**
 * Decode @p img (or return the cached decode). The registry is keyed
 * on image identity (address), which is sound because every image in
 * the system — the two shipped singletons and any MachineConfig::image
 * override — is immutable for the lifetime of the machines running it.
 */
std::shared_ptr<const DecodedImage> decodedImage(const MicrocodeImage &img);

/**
 * The fused form of one word: the first form in the table that matches
 * it, else Generic (exported for audits).
 */
Hx classifyUop(const MicroOp &op);

/**
 * Audit a decoded image against its source: every row must copy its
 * source word verbatim, carry the form classifyUop derives, agree
 * with the word's static read/write cycle class, and chain correct
 * pad-run lengths. Returns human-readable findings; empty means clean.
 * tools/ulint runs this so UL013-UL015, which audit cycle classes and
 * counter effects over the decoded matrix, rest on a verified decode.
 */
std::vector<std::string> verifyDecoded(const MicrocodeImage &img,
                                       const DecodedImage &dec);

} // namespace upc780::ucode

#endif // UPC780_UCODE_DECODED_HH
