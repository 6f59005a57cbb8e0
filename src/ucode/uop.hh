/**
 * @file
 * The microinstruction word of the modeled VAX-11/780 EBOX.
 *
 * The real 780 control word is 99 bits of horizontal microcode; this
 * model uses a symbolic microinstruction with the same *structural*
 * fields — a datapath function, a memory function, an instruction-
 * buffer (I-Decode) function, and next-address sequencing — executed
 * at one microinstruction per 200 ns cycle. Semantically heavy
 * datapath steps (e.g. "perform this opcode's arithmetic") are single
 * micro-operations whose surrounding routine supplies the 780's
 * documented cycle counts; DESIGN.md discusses this substitution.
 *
 * Instruction flow through the microcode:
 *
 *   uDECODE --(dispatch)--> SPEC routines for read/modify/address
 *   operands --> per-opcode EXECUTE routine (which consumes any
 *   branch displacement and may loop) --> SPEC routines for write
 *   operands --> uDECODE of the next instruction.
 *
 * TB misses microtrap through a one-cycle ABORT microinstruction into
 * the memory-management service routine and then retry the trapped
 * microinstruction, exactly as the paper describes (§4.2, §5).
 */

#ifndef UPC780_UCODE_UOP_HH
#define UPC780_UCODE_UOP_HH

#include <cstdint>

namespace upc780::ucode
{

/** Address within the control store. */
using UAddr = uint16_t;

/** Control store capacity: matches the UPC board's 16 K buckets. */
constexpr uint32_t ControlStoreSize = 16384;

/**
 * One micro-address field of a checkpoint field walk (common/serial.hh):
 * a restore rejects any address outside the control store.
 */
template <class Ar, class A>
void
walkUAddr(Ar &ar, A &a, const char *what)
{
    ar.below(a, ControlStoreSize, what);
}

/** Datapath function of a micro-op. */
enum class Dp : uint8_t
{
    Nop,

    // --- operand-specifier datapath steps -----------------------------
    SpecLoadReg,     //!< TADDR = GPR[specReg]
    SpecLoadRegDisp, //!< TADDR = GPR[specReg] + specDisp
    SpecLoadAbs,     //!< TADDR = absolute address from I-stream
    SpecAutoInc,     //!< TADDR = GPR[specReg]; GPR[specReg] += size
    SpecAutoDec,     //!< GPR[specReg] -= size; TADDR = GPR[specReg]
    SpecIndexBase,   //!< TADDR = base address of indexed specifier
    SpecIndexAdd,    //!< TADDR += GPR[specIndexReg] * operand size
    MdrToTaddr,      //!< TADDR = MDR (deferred modes)
    OperandFromReg,  //!< operand[cur] = GPR[specReg] (+pair for quad)
    OperandFromLit,  //!< operand[cur] = expanded short literal
    OperandFromImm,  //!< operand[cur] = I-stream immediate (low half)
    OperandImmHigh,  //!< merge high longword of a quad immediate
    OperandFromMdr,  //!< operand[cur] = MDR; remember TADDR
    OperandAddr,     //!< operand[cur] address = TADDR (access .a/.v)
    RegWriteSpec,    //!< GPR[specReg] = next pending result (write spec)
    WriteResult,     //!< MDR = next pending result (mem write spec)

    // --- execute-phase steps ------------------------------------------
    Exec,            //!< perform the opcode's operation (sets flags)
    ExecStep,        //!< one step of an iterative execute; arg = phase
    LoopDec,         //!< decrement loop counter; flag = (counter != 0)
    ModifyWriteback, //!< TADDR = saved modify address; MDR = result
    BranchTarget,    //!< TADDR = PC + branchDisp (B-DISP activity)
    TakeBranch,      //!< PC = TADDR; flush and redirect the IB

    // --- memory management (TB miss service) ---------------------------
    TbComputePte,    //!< TADDR = address of PTE for the missed VA
    TbFill,          //!< insert MDR's PFN into the TB for the missed VA

    // --- interrupt/exception dispatch (hardware-initiated) -------------
    IntPushPc,       //!< SP -= 4; TADDR = SP; MDR = PC
    IntPushPsl,      //!< SP -= 4; TADDR = SP; MDR = PSL
    IntVector,       //!< TADDR = SCBB + 4 * pending vector (physical)
    IntEnter,        //!< PC = MDR; raise IPL; redirect IB
    McheckPushCode,  //!< SP -= 4; TADDR = SP; MDR = machine-check code

    // --- model hooks ----------------------------------------------------
    OsAssist,        //!< XFC escape to the VMS-lite assist hook
    Halt,            //!< stop the machine
};

/** Memory function of a micro-op (at most one reference per cycle). */
enum class Mem : uint8_t
{
    None,
    ReadV,   //!< D-stream read at virtual TADDR -> MDR
    WriteV,  //!< D-stream write of MDR at virtual TADDR
    ReadP,   //!< read at physical TADDR -> MDR (PTE and SCB fetches)
};

/** I-Decode / instruction-buffer function of a micro-op. */
enum class Ib : uint8_t
{
    None,
    DecodeOp,      //!< consume the opcode byte
    DecodeSpec,    //!< consume the current specifier's encoding
    GetImmHigh,    //!< consume the high longword of a quad immediate
    GetBranchDisp, //!< consume the 1- or 2-byte branch displacement
};

/** Sequencing control. */
enum class Seq : uint8_t
{
    Next,                //!< fall through to uPC + 1
    Jump,                //!< go to target
    Call,                //!< push uPC + 1, go to target
    Return,              //!< pop micro return stack
    JumpIfFlag,          //!< go to target if EBOX condition flag set
    JumpIfNotFlag,       //!< go to target if flag clear
    SpecDispatch,        //!< dispatch to next specifier routine / phase
    DecodeNext,          //!< instruction complete
    DecodeNextIfNotFlag, //!< flag clear: done; flag set: fall through
    TrapReturn,          //!< end of microtrap service: retry trapped uop
};

/** One control-store word. */
struct MicroOp
{
    Dp dp = Dp::Nop;
    Mem mem = Mem::None;
    Ib ib = Ib::None;
    Seq seq = Seq::Next;
    UAddr target = 0;

    /**
     * Function-specific small argument: explicit memory access size
     * in bytes (0 = current operand size), ExecStep phase id, or
     * pending-result index for WriteResult/RegWriteSpec.
     */
    uint16_t arg = 0;
};

} // namespace upc780::ucode

#endif // UPC780_UCODE_UOP_HH
