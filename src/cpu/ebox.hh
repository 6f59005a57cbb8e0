/**
 * @file
 * The EBOX: the microcoded execution unit of the modeled VAX-11/780.
 *
 * The EBOX interprets the microprogram one microinstruction per cycle.
 * Each call to cycle() advances exactly one 200 ns machine cycle and
 * reports which control-store address the cycle belongs to and whether
 * it was a read/write-stalled cycle — precisely the two counts the UPC
 * histogram board keeps per bucket (paper §2.2, §4.3). What a
 * microinstruction does in its cycle is said once, in the cycle body
 * runCycleCore; both dispatch modes run instantiations of it (see
 * ucode/decoded.hh and DESIGN.md §15).
 *
 * Architectural semantics are computed by the execute unit (exec.cc)
 * when the per-opcode Exec micro-operation runs; memory traffic,
 * stalls, TB misses and IB behaviour are produced by the surrounding
 * micro-routines cycle by cycle.
 */

#ifndef UPC780_CPU_EBOX_HH
#define UPC780_CPU_EBOX_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "arch/opcodes.hh"
#include "arch/specifier.hh"
#include "arch/types.hh"
#include "cpu/ibox.hh"
#include "mem/memsys.hh"
#include "mmu/pagetable.hh"
#include "mmu/prreg.hh"
#include "mmu/tb.hh"
#include "obs/counters.hh"
#include "ucode/controlstore.hh"
#include "ucode/decoded.hh"

namespace upc780::fault
{
class FaultInjector;
}

namespace upc780::obs
{
class EventTracer;
}

namespace upc780::cpu
{

using arch::VAddr;

/** Architectural SCB index of the machine-check vector. */
constexpr uint32_t McheckScbVector = 1;

/** One machine cycle as seen by a hardware monitor probe. */
struct CycleOut
{
    ucode::UAddr upc = 0;  //!< control-store address of this cycle
    bool stalled = false;  //!< read- or write-stalled cycle
    bool halted = false;
};

/**
 * Hardware interrupt requests presented to the CPU. Implemented by
 * the machine (which aggregates its devices).
 */
class InterruptController
{
  public:
    virtual ~InterruptController() = default;

    /**
     * Highest-priority pending hardware interrupt, if any.
     * @retval true if a request is pending.
     */
    virtual bool highestPending(uint32_t &level, uint32_t &vector) = 0;

    /** The CPU has dispatched the interrupt at @p level. */
    virtual void acknowledge(uint32_t level) = 0;
};

/** The microcoded execution unit. */
class Ebox
{
  public:
    Ebox(obs::CounterRegistry &counters, const ucode::MicrocodeImage &image,
         mem::MemorySubsystem &memsys, mmu::TranslationBuffer &tb,
         IBox &ibox, ucode::DispatchMode mode);

    /** Reset to begin execution at @p pc. */
    void reset(VAddr pc, bool map_enabled);

    /**
     * Advance one machine cycle, then classify it into the obs counter
     * fabric *after* its CycleOut is final — the same post-cycle
     * instant the monitor observes it — so mid-cycle monitor gating
     * (the OS-assist switch hook) affects both bookkeepings alike.
     */
    CycleOut
    cycle(uint64_t now)
    {
        obsEv_ = obs::CycleEvents{};
        CycleOut out = cycleInner(now);
        counters_.emitCycle(obsEv_, out.stalled);
        return out;
    }

    /**
     * Stall-window probe: the number of read/write-stall cycles still
     * to come at the stalled microinstruction's address. Each is a
     * cycle() that only decrements the count, so a window of them can
     * advance in one step (advanceStall). Zero when halted or with a
     * fault injector attached (it is consulted every cycle).
     */
    uint64_t
    stallWindow() const
    {
        return halted_ || fault_ ? 0 : stallRemaining_;
    }

    /**
     * Run @p n (≤ stallWindow()) stall cycles at once, ending at cycle
     * @p last: exactly n cycle() calls, counted as n stall cycles.
     * Returns the stalled address, the upc of every one of them.
     */
    ucode::UAddr
    advanceStall(uint64_t n, uint64_t last)
    {
        now_ = last;
        stallRemaining_ -= n;
        counters_.add(obs::Ev::EboxStallCycles, n);
        return upc_;
    }

    /**
     * Micro-trace cache probe: the number of consecutive pure-padding
     * cycles (nop datapath, no memory, no IB pull, sequential) that
     * can be executed from the current micro-PC with no per-cycle
     * dispatch. Zero whenever the EBOX is not in a clean running state
     * (halted, stalled, trapping, dispatch-pending, fault injection
     * attached) or dispatch is the Switch reference.
     */
    uint32_t padRun() const
    {
        if (!threaded_ || halted_ || stallRemaining_ > 0 ||
            trapEntryPending_ || pendDispatch_ || pendingComplete_ ||
            fault_ != nullptr)
            return 0;
        return rows_[upc_].runLen;
    }

    /**
     * Execute one cycle of a pad superblock previously validated by
     * padRun(). Equivalent to cycle() for such a word, minus the obs
     * classification (the caller counts the uop cycle itself).
     */
    CycleOut padCycle()
    {
        ucode::UAddr a = upc_;
        ++upc_;
        return {a, false, false};
    }

    /**
     * IB-stall window probe: true when the cycle just run was an
     * IB-stall cycle — its word wants I-stream bytes the IB lacks.
     * Such a cycle reads only the IB's byte count and TB-miss flag and
     * changes no EBOX state that the next cycle reads differently, so
     * while the IB is quiet every following cycle is the same stall at
     * the same address. Not if the fill engine hit a TB miss after the
     * EBOX looked (the next cycle traps on it), nor with a fault
     * injector attached.
     */
    bool
    ibStallRepeats() const
    {
        return obsEv_.ibStall && !fault_ && !ibox_.tbMissPending();
    }

    /**
     * Run @p n more IB-stall cycles like the last one, ending at cycle
     * @p last: exactly n cycle() calls, counted as n IB-stall cycles.
     */
    void
    advanceIbStall(uint64_t n, uint64_t last)
    {
        now_ = last;
        counters_.add(obs::Ev::EboxIbStallCycles, n);
    }

    // ----- architectural state ------------------------------------------
    uint32_t &gpr(unsigned i) { return gpr_[i]; }
    uint32_t gpr(unsigned i) const { return gpr_[i]; }
    uint32_t pc() const { return pc_; }
    uint32_t psl() const { return psl_; }
    void setPsl(uint32_t v) { psl_ = v; }

    /** Internal processor register write with MTPR side effects. */
    void writePr(uint32_t idx, uint32_t val);
    uint32_t readPr(uint32_t idx) const;

    const mmu::MapRegisters &mapRegisters() const { return map_; }
    bool mapEnabled() const { return mapEnabled_; }

    bool halted() const { return halted_; }
    uint64_t instructions() const { return instructions_; }

    void setInterruptController(InterruptController *c) { intCtrl_ = c; }

    /**
     * Attach a fault injector: microinstruction fetches may then see
     * control-store parity errors, each costing one ABORT-row cycle
     * while the word is re-fetched (the 780 retried CS parity errors
     * in hardware). Null disables injection.
     */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    /** Trace interrupt, machine-check and TB-miss events; null: none. */
    void setTracer(obs::EventTracer *t) { tracer_ = t; }

    /**
     * Queue a machine check with the given code (fault::mcheckCode).
     * Delivered at the next instruction boundary through the dedicated
     * machine-check microcode flow and SCB vector 1, ahead of any
     * pending interrupt. Deliveries nest only after the current
     * handler lowers IPL below 31 (REI), so a burst of faults cannot
     * recurse unboundedly on the interrupt stack.
     */
    void raiseMachineCheck(uint32_t code) { mcheckQueue_.push_back(code); }

    /** Code of the machine check currently being dispatched. */
    uint32_t machineCheckCode() const { return mcheckCode_; }

    /** Machine checks delivered to the SCB vector so far. */
    uint64_t machineChecksDelivered() const { return mchecksDelivered_; }

    /**
     * Enable the real 780's RMODE decode optimization: the I-Decode
     * hardware delivers a register or short-literal *first* operand
     * together with the opcode dispatch, costing no microcode cycle.
     * Off by default, which keeps every specifier visible to the UPC
     * histogram (exact Table 3/4 counts); see DESIGN.md.
     */
    void setDecodeDeliversFirstOperand(bool on) { rmodeOpt_ = on; }

    /** XFC escape hook for the VMS-lite substrate. */
    void setOsAssist(std::function<void(Ebox &)> fn)
    {
        osAssist_ = std::move(fn);
    }

    // ----- untimed ("backdoor") memory access ----------------------------
    // Used by the execute unit to precompute instruction semantics and
    // by the OS substrate for image loading and inspection. Performs
    // page-table translation but no cache/TB/timing effects.
    uint64_t backdoorRead(VAddr va, uint32_t n) const;
    void backdoorWrite(VAddr va, uint32_t n, uint64_t v);

    IBox &ibox() { return ibox_; }
    mem::MemorySubsystem &memsys() { return memsys_; }
    mmu::TranslationBuffer &tb() { return tb_; }
    const ucode::MicrocodeImage &image() const { return img_; }

    /**
     * Checkpoint the complete microarchitectural state: architectural
     * registers, micro-PC and stack, datapath latches, microtrap and
     * interrupt latches, the machine-check queue, and the in-flight
     * instruction (operands, queued reads/writes, execute-loop
     * counters). The microcode image, wiring and config knobs are not
     * serialized — they are reconstructed from the machine config, and
     * the `curInfo_` pointer is re-derived from the opcode on restore.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

    /** Condition-code helpers (used by the execute unit and tests). */
    void setCc(bool n, bool z, bool v, bool c);
    bool ccN() const { return psl_ & arch::psl::N; }
    bool ccZ() const { return psl_ & arch::psl::Z; }
    bool ccV() const { return psl_ & arch::psl::V; }
    bool ccC() const { return psl_ & arch::psl::C; }

  private:
    friend class ExecUnit;

    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar, bool &hasInfo);

    // ----- per-operand state ----------------------------------------------
    struct Opnd
    {
        enum class Kind : uint8_t { None, RegVal, MemVal, Addr, FieldReg };
        Kind kind = Kind::None;
        uint64_t value = 0;
        VAddr addr = 0;
        uint8_t reg = 0;
    };

    /** Queued timed memory write of the execute phase. */
    struct TimedWrite
    {
        VAddr addr;
        uint8_t size;
        uint64_t value;
    };

    /** Queued timed memory read of the execute phase. */
    struct TimedRead
    {
        VAddr addr;
        uint8_t size;
    };

    enum class Phase : uint8_t { PreSpecs, PostSpecs };
    enum class TrapKind : uint8_t { None, TbMissD, TbMissI };

    // ----- cycle machinery -------------------------------------------------
    /** cycle() body, before the obs classification. */
    CycleOut cycleInner(uint64_t now);
    /** Threaded dispatch: jump to the decoded row's form. */
    CycleOut runCycleDecoded(uint64_t now);

    /**
     * The one cycle body: word @p op's I-Decode gate, memory function
     * and completion. Form @p H fixes some of the word's fields at
     * compile time (ucode::FieldView); Hx::Generic reads every field
     * from @p op and is what DispatchMode::Switch runs. The helpers
     * below take the same view and, like the body, are force-inlined
     * so each form's instantiation folds their switches.
     */
    template <ucode::Hx H>
    [[gnu::always_inline]] inline CycleOut
    runCycleCore(const ucode::MicroOp &op, uint64_t now);
    template <class V>
    [[gnu::always_inline]] inline bool ibSatisfied(const V &f,
                                                   uint32_t &need) const;
    template <class V>
    [[gnu::always_inline]] inline ucode::UAddr
    ibStallAddrFor(const V &f) const;
    template <class V>
    [[gnu::always_inline]] inline void consumeIb(const V &f);
    template <class V>
    [[gnu::always_inline]] inline void completeUop(const V &f);
    template <class V>
    [[gnu::always_inline]] inline void sequence(const V &f);
    /** dp execution split around the memory function. */
    template <class V>
    [[gnu::always_inline]] inline bool dpPre(const V &f); //!< do memory?
    template <class V>
    [[gnu::always_inline]] inline void dpPost(const V &f);
    template <class V>
    [[gnu::always_inline]] inline void dpAll(const V &f);

    /** Encoded bytes of a branch displacement for the current opcode. */
    uint32_t branchDispNeed() const;
    /** Ib::DecodeOp: consume the opcode byte and reset per-insn state. */
    void consumeDecodeOp();
    /** (Re)derive the decoded-image binding from img_ and the mode. */
    void rebindDecoded();

    // ----- dispatch ---------------------------------------------------------
    /** Attempt the specifier/execute dispatch; 0 means IB-starved. */
    ucode::UAddr trySpecDispatch();
    ucode::UAddr dispatchSpecifier(unsigned i);
    ucode::UAddr endInstruction();

    void startTrap(TrapKind kind, VAddr va);
    void endTrap();

    // ----- specifier datapath helpers ----------------------------------------
    uint64_t expandLiteral(uint8_t lit) const;
    void storeRegResult(uint8_t r, uint64_t v, uint32_t size);
    uint32_t readRegPair(uint8_t r, uint32_t size) const;

    // ----- execute unit (exec.cc) ---------------------------------------------
    void execMain();
    bool execStepPre(uint16_t ph);
    void execStepPost(uint16_t ph);

    // Semantic helpers implemented in exec.cc.
    void execArith();
    void execFloatOp();
    void execStringOp();
    void execDecimalOp();
    void execCallRet();
    void execSystemOp();
    void execFieldOp();
    void execBranchOp();
    uint64_t operandValue(unsigned i) const;
    VAddr operandAddr(unsigned i) const;
    void pushResult(uint64_t v);
    void setModifyResult(uint64_t v);
    void queueWrite(VAddr a, uint8_t size, uint64_t v);
    void queueRead(VAddr a, uint8_t size);
    void bankSpFor(arch::Mode new_mode, bool to_interrupt_stack);

    // ----- wiring ---------------------------------------------------------
    const ucode::MicrocodeImage &img_;
    // Decoded twin of img_ (threaded dispatch only). Never serialized:
    // rebindDecoded() re-derives it at construction and on restore, so
    // a snapshot restored under either dispatch mode can never observe
    // a stale decode or trace-cache link.
    std::shared_ptr<const ucode::DecodedImage> dimg_;
    const ucode::DecodedRow *rows_ = nullptr;
    bool threaded_ = false;
    obs::CounterRegistry &counters_;
    obs::EventTracer *tracer_ = nullptr;
    mem::MemorySubsystem &memsys_;
    mmu::TranslationBuffer &tb_;
    IBox &ibox_;
    InterruptController *intCtrl_ = nullptr;
    std::function<void(Ebox &)> osAssist_;

    // ----- architectural state ---------------------------------------------
    uint32_t gpr_[16] = {};
    uint32_t psl_ = 0;
    VAddr pc_ = 0;
    uint32_t prRegs_[mmu::pr::NumRegs] = {};
    mmu::MapRegisters map_;
    bool mapEnabled_ = false;

    // ----- micro state --------------------------------------------------------
    ucode::UAddr upc_ = 0;
    bool halted_ = false;
    std::vector<ucode::UAddr> ustack_;
    bool flag_ = false;
    uint32_t taddr_ = 0;
    uint64_t mdr_ = 0;
    uint8_t dpMemSize_ = 0;   //!< size set by dpPre (0: use arg/curSize)

    // Memory-op-in-progress bookkeeping.
    bool memDone_ = false;
    bool memSuppressed_ = false;
    uint64_t stallRemaining_ = 0;
    bool pendingComplete_ = false;

    // Pending dispatch retry (IB-starved between micro-routines).
    bool pendDispatch_ = false;
    ucode::UAddr pendStallAddr_ = 0;

    // Microtrap state. The datapath latches are saved on trap entry
    // and restored on TrapReturn so the retried microinstruction sees
    // the state it computed before the trap.
    TrapKind trapKind_ = TrapKind::None;
    ucode::UAddr trappedUpc_ = 0;
    VAddr missVa_ = 0;
    VAddr pteVa_ = 0;
    bool trapEntryPending_ = false;
    ucode::UAddr trapEntry_ = 0;
    uint32_t trapSavedTaddr_ = 0;
    uint64_t trapSavedMdr_ = 0;
    bool trapSavedFlag_ = false;

    // Interrupt dispatch latches.
    uint32_t intVector_ = 0;
    uint32_t intIpl_ = 0;
    uint32_t intHandler_ = 0;
    bool intUseIstack_ = true;

    // Machine-check state. Codes queue until an instruction boundary;
    // dispatch latches the code for Dp::McheckPushCode.
    fault::FaultInjector *fault_ = nullptr;
    std::deque<uint32_t> mcheckQueue_;
    uint32_t mcheckCode_ = 0;
    uint64_t mchecksDelivered_ = 0;
    bool csRetried_ = false;  //!< current word already re-fetched once

    // ----- current instruction state ------------------------------------------
    uint8_t curOp_ = 0;
    const arch::OpcodeInfo *curInfo_ = nullptr;
    Phase phase_ = Phase::PreSpecs;
    unsigned scan_ = 0;       //!< next operand index to consider
    unsigned curSpecIdx_ = 0;
    arch::DecodedSpecifier curSpec_;
    arch::Access curAccess_ = arch::Access::Read;
    arch::DataType curType_ = arch::DataType::Long;
    uint32_t curSize_ = 4;
    uint32_t curEncLen_ = 0;  //!< encoded bytes of current specifier
    bool idxTailPending_ = false;
    int32_t branchDisp_ = 0;

    Opnd opnd_[6];
    std::vector<uint64_t> results_;
    unsigned curResultIdx_ = 0;
    unsigned nextResultIdx_ = 0;
    bool haveModifyMem_ = false;
    VAddr modifyAddr_ = 0;
    uint64_t modifyResult_ = 0;
    bool modifyPending_ = false;

    // Execute-phase iterative state.
    uint32_t loopCount_ = 0;
    std::vector<TimedRead> reads_;
    size_t readIdx_ = 0;
    std::vector<TimedWrite> writes_;
    size_t writeIdx_ = 0;
    bool hasNumarg_ = false;
    TimedWrite numargWrite_{};
    VAddr target_ = 0;

    uint64_t instructions_ = 0;
    uint64_t now_ = 0;  //!< cycle timestamp during cycle()
    bool rmodeOpt_ = false;

    // What happened this cycle, for the obs counter fabric; flags are
    // raised at the decision points and emitted once per cycle.
    obs::CycleEvents obsEv_;
};

} // namespace upc780::cpu

#endif // UPC780_CPU_EBOX_HH
