/**
 * @file
 * Pre-decoded control store: the per-cycle interpreter's view of the
 * microprogram.
 *
 * The assembled MicrocodeImage stores each word as a MicroOp whose
 * four fields (dp, mem, ib, seq) the legacy EBOX dispatcher re-parses
 * through nested switches every cycle. The decoded image flattens each
 * word, once per image, into a DecodedRow carrying a fused handler id
 * (the combination of the four fields the threaded dispatcher jumps
 * through in one indirect branch), the word's static obs cycle
 * classification, and the superblock run length used by the micro-
 * trace cache (consecutive pure-padding words executed in one batched
 * inner loop).
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
#include <memory>
#include <string>
#include <vector>

#include "ucode/uop.hh"

namespace upc780::ucode
{

struct MicrocodeImage;

/** How the EBOX dispatches microinstructions (MachineConfig::dispatch). */
enum class DispatchMode : uint8_t
{
    Switch,    //!< legacy reference: nested switches over raw MicroOps
    Threaded,  //!< decoded rows + computed-goto + micro-trace cache
};

/**
 * Fused handler of one decoded control-store word. Each value names a
 * (dp, mem, ib, seq) combination hot enough in the shipped
 * microprogram to deserve a straight-line handler; everything else
 * (including any word of a defective test image) takes Generic, which
 * runs the legacy interpreter body for that word and is therefore
 * correct for arbitrary field combinations.
 */
enum class Hx : uint8_t
{
    Generic,          //!< full legacy cycle body (always correct)
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
    BranchDisp,       //!< brtgt / bdisp / next (displacement fetch)
    TakeBranchDecode, //!< take / - / decnext (taken-branch retire)
    ExecSpecDispatch, //!< exec / - / specdisp (execute, then write specs)
    ExecBdispCond,    //!< exec / bdisp / decnextifnot (loop-branch test)
    BranchTargetNext, //!< brtgt / - / next (target from latched disp)
    NumHandlers,
};

std::string_view hxName(Hx h);

/** One pre-decoded control-store row (16 bytes). */
struct DecodedRow
{
    MicroOp op;            //!< verbatim copy of the source word
    Hx h = Hx::Generic;    //!< fused handler
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

/** Classify one word into its fused handler (exported for audits). */
Hx classifyUop(const MicroOp &op);

/**
 * Audit a decoded image against its source: every row must copy its
 * source word verbatim, carry the handler classifyUop derives, agree
 * with the word's static read/write cycle class, and chain correct
 * pad-run lengths. Returns human-readable findings; empty means clean.
 * tools/ulint runs this so UL013-UL015, which audit cycle classes and
 * counter effects over the decoded matrix, rest on a verified decode.
 */
std::vector<std::string> verifyDecoded(const MicrocodeImage &img,
                                       const DecodedImage &dec);

} // namespace upc780::ucode

#endif // UPC780_UCODE_DECODED_HH
