#include "cpu/ebox.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "fault/fault.hh"
#include "obs/trace.hh"

namespace upc780::cpu
{

using namespace upc780::ucode;
using namespace upc780::arch;

Ebox::Ebox(const MicrocodeImage &image, mem::MemorySubsystem &memsys,
           mmu::TranslationBuffer &tb, IBox &ibox, ucode::DispatchMode mode)
    : img_(image), threaded_(mode == ucode::DispatchMode::Threaded),
      memsys_(memsys), tb_(tb), ibox_(ibox)
{
    upc_ = img_.marks.decode;
    rebindDecoded();
}

void
Ebox::rebindDecoded()
{
    if (threaded_) {
        dimg_ = ucode::decodedImage(img_);
        rows_ = dimg_->rows.data();
    } else {
        dimg_.reset();
        rows_ = nullptr;
    }
}

void
Ebox::reset(VAddr pc, bool map_enabled)
{
    pc_ = pc;
    upc_ = img_.marks.decode;
    mapEnabled_ = map_enabled;
    ibox_.setMapEnable(map_enabled);
    ibox_.redirect(pc);
    halted_ = false;
    // Clear any in-flight micro state from a previous run.
    ustack_.clear();
    stallRemaining_ = 0;
    pendingComplete_ = false;
    memDone_ = false;
    memSuppressed_ = false;
    pendDispatch_ = false;
    trapKind_ = TrapKind::None;
    trapEntryPending_ = false;
    idxTailPending_ = false;
    mcheckQueue_.clear();
    mcheckCode_ = 0;
    csRetried_ = false;
}

void
Ebox::setCc(bool n, bool z, bool v, bool c)
{
    psl_ &= ~psl::CcMask;
    if (n)
        psl_ |= psl::N;
    if (z)
        psl_ |= psl::Z;
    if (v)
        psl_ |= psl::V;
    if (c)
        psl_ |= psl::C;
}

// --------------------------------------------------------------------------
// Cycle machinery
// --------------------------------------------------------------------------

CycleOut
Ebox::cycleInner(uint64_t now)
{
    now_ = now;
    if (halted_) {
        obsEv_.halt = true;
        return {img_.marks.halted, false, true};
    }

    // Read/write stall cycles in progress: the stalled microinstruction
    // sits at its address accumulating stalled counts (paper §4.3).
    if (stallRemaining_ > 0) {
        --stallRemaining_;
        return {upc_, true, false};
    }

    // Enter a microtrap service routine (the abort cycle was reported
    // on the previous cycle).
    if (trapEntryPending_) {
        upc_ = trapEntry_;
        trapEntryPending_ = false;
    }

    // Retry an IB-starved dispatch between micro-routines.
    if (pendDispatch_ && trapKind_ == TrapKind::None) {
        UAddr t = trySpecDispatch();
        if (t == 0) {
            if (ibox_.tbMissPending()) {
                startTrap(TrapKind::TbMissI, ibox_.tbMissVa());
                obsEv_.abort = true;
                return {img_.marks.abort, false, false};
            }
            obsEv_.ibStall = true;
            return {pendStallAddr_, false, false};
        }
        pendDispatch_ = false;
        upc_ = t;
    }

    // Control-store parity error on this word's fetch: the 780's
    // hardware re-fetched the word, costing one abort cycle. A word
    // is retried at most once so injection cannot wedge the machine.
    if (fault_ && !csRetried_ && fault_->onCsFetch()) {
        csRetried_ = true;
        obsEv_.abort = true;
        return {img_.marks.abort, false, false};
    }
    csRetried_ = false;

    if (threaded_)
        return runCycleDecoded(now);
    return runCycleCore<Hx::Generic>(img_.ops[upc_], now);
}

// --------------------------------------------------------------------------
// The cycle body. One template serves both dispatchers: the Switch
// reference and the threaded dispatcher's Generic rows instantiate it
// with every field read from the word, and each fused form of the
// decoded control store instantiates it with the fields its
// ucode::forms row fixes as compile-time constants. Every member below
// is force-inlined, so each instantiation folds its switches down to
// the cases its form can reach; the state it leaves behind
// (dpMemSize_, memDone_, memSuppressed_, pendingComplete_) is the
// same in every instantiation because there is only one body.
// --------------------------------------------------------------------------

CycleOut
Ebox::runCycleDecoded(uint64_t now)
{
    const DecodedRow &row = rows_[upc_];

    // Computed-goto dispatch (a GCC/Clang extension; the build supports
    // no other compiler): one indirect branch per cycle, with a
    // distinct branch site per form transition for the predictor.
    static const void *const tbl[] = {
        &&hx_generic,  &&hx_pad,       &&hx_decode,    &&hx_spechead,
        &&hx_specopnd, &&hx_mdrread,   &&hx_wres,      &&hx_opndaddr,
        &&hx_nopdisp,  &&hx_exec,      &&hx_execstep,  &&hx_loopdec,
        &&hx_brdisp,   &&hx_takebr,    &&hx_execdisp,  &&hx_execbdisp,
        &&hx_brtgt,
    };
    static_assert(sizeof(tbl) / sizeof(tbl[0]) ==
                  static_cast<size_t>(Hx::NumHandlers));
    goto *tbl[static_cast<size_t>(row.h)];

  hx_generic:
    return runCycleCore<Hx::Generic>(row.op, now);
  hx_pad:
    return runCycleCore<Hx::Pad>(row.op, now);
  hx_decode:
    return runCycleCore<Hx::Decode>(row.op, now);
  hx_spechead:
    return runCycleCore<Hx::SpecHead>(row.op, now);
  hx_specopnd:
    return runCycleCore<Hx::SpecOperand>(row.op, now);
  hx_mdrread:
    return runCycleCore<Hx::OperandMdrRead>(row.op, now);
  hx_wres:
    return runCycleCore<Hx::WriteResultSpec>(row.op, now);
  hx_opndaddr:
    return runCycleCore<Hx::OperandAddrDisp>(row.op, now);
  hx_nopdisp:
    return runCycleCore<Hx::NopSpecDispatch>(row.op, now);
  hx_exec:
    return runCycleCore<Hx::ExecNext>(row.op, now);
  hx_execstep:
    return runCycleCore<Hx::ExecStepNext>(row.op, now);
  hx_loopdec:
    return runCycleCore<Hx::LoopDecJif>(row.op, now);
  hx_brdisp:
    return runCycleCore<Hx::BranchDisp>(row.op, now);
  hx_takebr:
    return runCycleCore<Hx::TakeBranchDecode>(row.op, now);
  hx_execdisp:
    return runCycleCore<Hx::ExecSpecDispatch>(row.op, now);
  hx_execbdisp:
    return runCycleCore<Hx::ExecBdispCond>(row.op, now);
  hx_brtgt:
    return runCycleCore<Hx::BranchTargetNext>(row.op, now);
}

template <Hx H>
CycleOut
Ebox::runCycleCore(const MicroOp &op, uint64_t now)
{
    const FieldView<H> f{op};

    // 1. I-Decode requirement: insufficient bytes is an IB stall cycle
    // at the context's dedicated stall address, or a microtrap when an
    // I-stream TB miss is what is starving the buffer.
    if (f.ib() != Ib::None && !pendingComplete_) {
        uint32_t need = 0;
        if (!ibSatisfied(f, need)) {
            if (ibox_.tbMissPending() && ibox_.available() < need) {
                startTrap(TrapKind::TbMissI, ibox_.tbMissVa());
                obsEv_.abort = true;
                return {img_.marks.abort, false, false};
            }
            obsEv_.ibStall = true;
            return {ibStallAddrFor(f), false, false};
        }
    }

    // 2. Memory function: translate, access, and absorb stalls.
    if (f.mem() != Mem::None && !memDone_ && !pendingComplete_) {
        dpMemSize_ = 0;
        bool do_mem = dpPre(f);
        memSuppressed_ = !do_mem;
        if (do_mem) {
            arch::PAddr pa = taddr_;
            if (f.mem() != Mem::ReadP && mapEnabled_) {
                if (!tb_.lookup(taddr_, false, pa)) {
                    startTrap(TrapKind::TbMissD, taddr_);
                    obsEv_.abort = true;
                    return {img_.marks.abort, false, false};
                }
            }
            uint32_t size =
                dpMemSize_ ? dpMemSize_ : (f.arg() ? f.arg() : curSize_);
            uint64_t stall = 0;
            if (f.mem() == Mem::WriteV) {
                auto r = memsys_.write(pa, size, mdr_, now);
                stall = r.stallCycles;
            } else {
                auto r = memsys_.read(pa, size, now);
                mdr_ = r.data;
                stall = r.stallCycles;
            }
            memDone_ = true;
            if (stall > 0) {
                stallRemaining_ = stall - 1;
                pendingComplete_ = true;
                return {upc_, true, false};
            }
        } else {
            memDone_ = true;
        }
    }
    pendingComplete_ = false;

    // 3. Completion: consume I-stream bytes, run the datapath, and
    // sequence to the next microinstruction.
    //
    // The obs read/write classification is by the word's static memory
    // function — matching the analyzer's column rule — so a suppressed
    // memory op (dpPre said no) still counts, exactly as its histogram
    // bucket does.
    if (f.mem() == Mem::ReadV || f.mem() == Mem::ReadP)
        obsEv_.memRead = true;
    else if (f.mem() == Mem::WriteV)
        obsEv_.memWrite = true;
    UAddr attributed = upc_;
    completeUop(f);
    return {attributed, false, halted_};
}

template <class V>
bool
Ebox::ibSatisfied(const V &f, uint32_t &need) const
{
    switch (f.ib()) {
      case Ib::DecodeOp:
        need = 1;
        break;
      case Ib::DecodeSpec:
        need = curEncLen_;
        break;
      case Ib::GetImmHigh:
        need = 4;
        break;
      case Ib::GetBranchDisp:
        need = branchDispNeed();
        break;
      default:
        need = 0;
        return true;
    }
    return ibox_.available() >= need;
}

template <class V>
UAddr
Ebox::ibStallAddrFor(const V &f) const
{
    switch (f.ib()) {
      case Ib::DecodeOp:
        return img_.marks.ibStallDecode;
      case Ib::GetBranchDisp:
        return img_.marks.ibStallBdisp;
      default:
        return curSpecIdx_ == 0 ? img_.marks.ibStallSpec1
                                : img_.marks.ibStallSpec26;
    }
}

uint32_t
Ebox::branchDispNeed() const
{
    uint32_t need = 1;
    for (const OperandSpec &s : curInfo_->specs())
        if (s.access == Access::BranchW)
            need = 2;
    return need;
}

template <class V>
void
Ebox::consumeIb(const V &f)
{
    switch (f.ib()) {
      case Ib::None:
        return;
      case Ib::DecodeOp:
        consumeDecodeOp();
        return;
      case Ib::DecodeSpec:
        ibox_.consume(curEncLen_);
        pc_ += curEncLen_;
        return;
      case Ib::GetImmHigh: {
        uint32_t hi = 0;
        for (int i = 0; i < 4; ++i)
            hi |= static_cast<uint32_t>(ibox_.peek(i)) << (8 * i);
        ibox_.consume(4);
        pc_ += 4;
        opnd_[curSpecIdx_].value |= static_cast<uint64_t>(hi) << 32;
        return;
      }
      case Ib::GetBranchDisp: {
        uint32_t n = branchDispNeed();
        uint32_t raw = ibox_.peek(0);
        if (n == 2)
            raw |= static_cast<uint32_t>(ibox_.peek(1)) << 8;
        branchDisp_ = sext(raw, static_cast<int>(8 * n));
        ibox_.consume(n);
        pc_ += n;
        return;
      }
    }
}

void
Ebox::consumeDecodeOp()
{
    curOp_ = ibox_.peek(0);
    ibox_.consume(1);
    pc_ += 1;
    curInfo_ = &opcodeInfo(curOp_);
    if (!curInfo_->valid())
        sim_throw(GuestError, "undefined opcode 0x%02x at pc 0x%08x",
                  curOp_, pc_ - 1);
    // Reset per-instruction state.
    phase_ = Phase::PreSpecs;
    scan_ = 0;
    curSpecIdx_ = 0;
    idxTailPending_ = false;
    results_.clear();
    nextResultIdx_ = 0;
    curResultIdx_ = 0;
    modifyPending_ = false;
    haveModifyMem_ = false;
    obsEv_.decode = true;
    loopCount_ = 0;
    reads_.clear();
    readIdx_ = 0;
    writes_.clear();
    writeIdx_ = 0;
    hasNumarg_ = false;
    for (Opnd &o : opnd_)
        o = Opnd{};
    ++instructions_;

    // RMODE optimization: deliver a register/short-literal first
    // operand with the dispatch, in this same decode cycle.
    if (rmodeOpt_ && curInfo_->numOperands > 0 &&
        ibox_.available() >= 1) {
        Access a0 = curInfo_->operands[0].access;
        if (a0 == Access::Read || a0 == Access::Modify ||
            a0 == Access::Field) {
            uint8_t sb = ibox_.peek(0);
            uint8_t mode = sb >> 4;
            if (mode <= 3 || mode == 5) {
                curType_ = curInfo_->operands[0].type;
                curSize_ = dataTypeSize(curType_);
                curAccess_ = a0;
                curSpecIdx_ = 0;
                Opnd &o = opnd_[0];
                if (mode == 5) {
                    uint8_t r = sb & 0xf;
                    o.reg = r;
                    if (a0 == Access::Field) {
                        o.kind = Opnd::Kind::FieldReg;
                    } else {
                        o.kind = Opnd::Kind::RegVal;
                        o.value = gpr_[r];
                        if (curSize_ == 8) {
                            o.value |= static_cast<uint64_t>(
                                gpr_[(r + 1) & 0xf]) << 32;
                        }
                    }
                } else if (a0 == Access::Read) {
                    curSpec_.literal = sb & 0x3f;
                    o.kind = Opnd::Kind::RegVal;
                    o.value = expandLiteral(sb & 0x3f);
                } else {
                    return;  // literal cannot be modified
                }
                ibox_.consume(1);
                pc_ += 1;
                scan_ = 1;
            }
        }
    }
}

template <class V>
void
Ebox::completeUop(const V &f)
{
    consumeIb(f);
    if (f.mem() != Mem::None) {
        if (!memSuppressed_)
            dpPost(f);
    } else {
        dpAll(f);
    }
    memDone_ = false;
    memSuppressed_ = false;
    sequence(f);
}

template <class V>
void
Ebox::sequence(const V &f)
{
    switch (f.seq()) {
      case Seq::Next:
        ++upc_;
        return;
      case Seq::Jump:
        upc_ = f.target();
        return;
      case Seq::Call:
        ustack_.push_back(static_cast<UAddr>(upc_ + 1));
        upc_ = f.target();
        return;
      case Seq::Return:
        if (ustack_.empty())
            panic("micro return with empty stack");
        upc_ = ustack_.back();
        ustack_.pop_back();
        return;
      case Seq::JumpIfFlag:
        upc_ = flag_ ? f.target() : static_cast<UAddr>(upc_ + 1);
        return;
      case Seq::JumpIfNotFlag:
        upc_ = !flag_ ? f.target() : static_cast<UAddr>(upc_ + 1);
        return;
      case Seq::SpecDispatch:
        if (UAddr t = trySpecDispatch()) {
            upc_ = t;
        } else {
            // upc_ is stale until the dispatch succeeds; cycleInner()
            // consults pendDispatch_ first.
            pendDispatch_ = true;
            pendStallAddr_ = scan_ == 0 ? img_.marks.ibStallSpec1
                                        : img_.marks.ibStallSpec26;
        }
        return;
      case Seq::DecodeNext:
        upc_ = endInstruction();
        return;
      case Seq::DecodeNextIfNotFlag:
        upc_ = flag_ ? static_cast<UAddr>(upc_ + 1) : endInstruction();
        return;
      case Seq::TrapReturn:
        if (trapKind_ == TrapKind::TbMissI)
            ibox_.clearTbMiss();
        trapKind_ = TrapKind::None;
        taddr_ = trapSavedTaddr_;
        mdr_ = trapSavedMdr_;
        flag_ = trapSavedFlag_;
        upc_ = trappedUpc_;
        return;
    }
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

UAddr
Ebox::trySpecDispatch()
{
    if (idxTailPending_) {
        idxTailPending_ = false;
        int f = curSpecIdx_ == 0 ? 1 : 0;
        return img_.idxTail[f][size_t(accessBucketFor(curAccess_))];
    }

    const unsigned n = curInfo_->numOperands;
    if (phase_ == Phase::PreSpecs) {
        while (scan_ < n) {
            Access a = curInfo_->operands[scan_].access;
            if (isBranchDisp(a) || a == Access::Write) {
                ++scan_;
                continue;
            }
            UAddr t = dispatchSpecifier(scan_);
            if (t == 0)
                return 0;
            ++scan_;
            return t;
        }
        phase_ = Phase::PostSpecs;
        scan_ = 0;
        UAddr e = img_.execEntry[curOp_];
        if (e == 0)
            sim_throw(GuestError, "no execute microcode for opcode 0x%02x", curOp_);
        // Register-operand fast paths: decode dispatch selects the
        // variant without memory write-back / field references.
        UAddr alt = img_.execEntryRegAlt[curOp_];
        if (alt) {
            for (unsigned i = 0; i < curInfo_->numOperands; ++i) {
                Access acc = curInfo_->operands[i].access;
                if (acc == Access::Modify) {
                    if (opnd_[i].kind == Opnd::Kind::RegVal)
                        e = alt;
                    break;
                }
                if (acc == Access::Field) {
                    if (opnd_[i].kind == Opnd::Kind::FieldReg)
                        e = alt;
                    break;
                }
            }
        }
        return e;
    }

    while (scan_ < n) {
        if (curInfo_->operands[scan_].access != Access::Write) {
            ++scan_;
            continue;
        }
        UAddr t = dispatchSpecifier(scan_);
        if (t == 0)
            return 0;
        ++scan_;
        return t;
    }
    return endInstruction();
}

UAddr
Ebox::dispatchSpecifier(unsigned i)
{
    const uint32_t avail = ibox_.available();
    if (avail < 1)
        return 0;

    uint8_t b0 = ibox_.peek(0);
    bool indexed = (b0 >> 4) == 4;
    uint32_t pos = 0;
    if (indexed) {
        if (avail < 2)
            return 0;
        pos = 1;
        b0 = ibox_.peek(1);
    }
    uint8_t mode = b0 >> 4;
    uint8_t rn = b0 & 0xf;

    const OperandSpec &os = curInfo_->operands[i];
    curType_ = os.type;
    curSize_ = dataTypeSize(os.type);
    curAccess_ = os.access;

    uint32_t extra = 0;
    bool imm_quad = false;
    switch (mode) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 5:
      case 6:
      case 7:
        break;
      case 4:
        sim_throw(GuestError, "index prefix on index prefix at pc 0x%08x", pc_);
      case 8:
        if (rn == reg::PC) {
            extra = curSize_ > 4 ? 4 : curSize_;
            imm_quad = curSize_ == 8;
        }
        break;
      case 9:
        if (rn == reg::PC)
            extra = 4;
        break;
      case 0xA:
      case 0xB:
        extra = 1;
        break;
      case 0xC:
      case 0xD:
        extra = 2;
        break;
      default:
        extra = 4;
        break;
    }

    uint32_t enc_len = pos + 1 + extra;
    if (avail < enc_len)
        return 0;

    uint8_t buf[16];
    for (uint32_t j = 0; j < enc_len; ++j)
        buf[j] = ibox_.peek(j);
    DecodedSpecifier ds;
    uint32_t got = decodeSpecifier(
        {buf, enc_len}, imm_quad ? DataType::Long : curType_, ds);
    if (got != enc_len)
        sim_throw(GuestError, "specifier decode mismatch at pc 0x%08x (%u vs %u)", pc_,
              got, enc_len);

    curSpec_ = ds;
    curSpecIdx_ = i;
    curEncLen_ = enc_len;
    if (phase_ == Phase::PostSpecs)
        curResultIdx_ = nextResultIdx_++;

    const int f = i == 0 ? 1 : 0;
    if (ds.indexed)
        return img_.idxRoutine[f][size_t(specModeFor(ds.mode))];

    if (ds.mode == AddrMode::Register) {
        if (curAccess_ == Access::Field)
            return img_.regFieldRoutine[f];
        if (curAccess_ == Access::Address)
            sim_throw(GuestError, "register mode with address access at pc 0x%08x", pc_);
        return img_.specRoutine[f][size_t(SpecMode::Reg)]
                                [size_t(accessBucketFor(curAccess_))];
    }
    if (ds.mode == AddrMode::Literal || ds.mode == AddrMode::Immediate) {
        if (curAccess_ != Access::Read)
            sim_throw(GuestError, "literal/immediate with non-read access at pc 0x%08x",
                  pc_);
        if (imm_quad)
            return img_.immQuadRoutine[f];
        return img_.specRoutine[f][size_t(specModeFor(ds.mode))]
                                [size_t(AccessBucket::Read)];
    }
    return img_.specRoutine[f][size_t(specModeFor(ds.mode))]
                            [size_t(accessBucketFor(curAccess_))];
}

UAddr
Ebox::endInstruction()
{
    uint32_t cur_ipl = (psl_ >> psl::IplShift) & 0x1f;

    // Machine checks outrank every interrupt. Hold delivery while a
    // handler already runs at IPL 31 so bursts drain one frame at a
    // time as each REI lowers IPL.
    if (!mcheckQueue_.empty() && cur_ipl < 31) {
        mcheckCode_ = mcheckQueue_.front();
        mcheckQueue_.pop_front();
        intVector_ = McheckScbVector;
        intIpl_ = 31;
        ++mchecksDelivered_;
        obsEv_.mcheck = true;
        obs::event(obs::Cat::Irq, obs::Code::MachineCheck, now_,
                   mcheckCode_);
        return img_.marks.machineCheck;
    }

    uint32_t best_level = 0, best_vector = 0;
    bool hw = false;
    uint32_t l = 0, v = 0;
    if (intCtrl_ && intCtrl_->highestPending(l, v) && l > cur_ipl) {
        best_level = l;
        best_vector = v;
        hw = true;
    }
    uint32_t sisr = prRegs_[mmu::pr::SISR] & 0xfffeu;
    if (sisr) {
        uint32_t soft = 31 - static_cast<uint32_t>(
            __builtin_clz(sisr));
        if (soft > cur_ipl && soft > best_level) {
            best_level = soft;
            best_vector = soft;
            hw = false;
        }
    }

    if (best_level > cur_ipl) {
        if (hw)
            intCtrl_->acknowledge(best_level);
        else
            prRegs_[mmu::pr::SISR] &= ~(1u << best_level);
        intVector_ = best_vector;
        intIpl_ = best_level;
        obsEv_.irq = true;
        obs::event(obs::Cat::Irq, obs::Code::IrqDispatch, now_,
                   best_vector, best_level);
        return img_.marks.intDispatch;
    }
    return img_.marks.decode;
}

void
Ebox::startTrap(TrapKind kind, VAddr va)
{
    if (kind == TrapKind::TbMissD) {
        obsEv_.tbMissD = true;
        obs::event(obs::Cat::Tb, obs::Code::TbMissD, now_, va);
    } else {
        obsEv_.tbMissI = true;
        obs::event(obs::Cat::Tb, obs::Code::TbMissI, now_, va);
    }
    trapKind_ = kind;
    missVa_ = va;
    trappedUpc_ = upc_;
    trapEntry_ = kind == TrapKind::TbMissD ? img_.marks.tbMissD
                                           : img_.marks.tbMissI;
    trapEntryPending_ = true;
    trapSavedTaddr_ = taddr_;
    trapSavedMdr_ = mdr_;
    trapSavedFlag_ = flag_;
}

// --------------------------------------------------------------------------
// Datapath
// --------------------------------------------------------------------------

uint64_t
Ebox::expandLiteral(uint8_t lit) const
{
    switch (curType_) {
      case DataType::FFloat: {
        uint32_t v = (static_cast<uint32_t>(128 + (lit >> 3)) << 23) |
                     (static_cast<uint32_t>(lit & 7) << 20);
        return (v << 16) | (v >> 16);
      }
      case DataType::DFloat: {
        uint32_t v = (static_cast<uint32_t>(128 + (lit >> 3)) << 23) |
                     (static_cast<uint32_t>(lit & 7) << 20);
        return static_cast<uint64_t>((v << 16) | (v >> 16));
      }
      default:
        return lit;
    }
}

void
Ebox::storeRegResult(uint8_t r, uint64_t v, uint32_t size)
{
    switch (size) {
      case 1:
        gpr_[r] = (gpr_[r] & ~0xffu) | (v & 0xff);
        break;
      case 2:
        gpr_[r] = (gpr_[r] & ~0xffffu) | (v & 0xffff);
        break;
      case 4:
        gpr_[r] = static_cast<uint32_t>(v);
        break;
      case 8:
        gpr_[r] = static_cast<uint32_t>(v);
        gpr_[(r + 1) & 0xf] = static_cast<uint32_t>(v >> 32);
        break;
      default:
        panic("bad register result size %u", size);
    }
}

uint32_t
Ebox::readRegPair(uint8_t r, uint32_t size) const
{
    (void)size;
    return gpr_[r];
}

template <class V>
bool
Ebox::dpPre(const V &f)
{
    switch (f.dp()) {
      case Dp::ExecStep:
        return execStepPre(f.arg());
      case Dp::WriteResult:
        if (curResultIdx_ >= results_.size())
            panic("write specifier with no pending result");
        mdr_ = results_[curResultIdx_];
        return true;
      case Dp::ModifyWriteback:
        if (modifyPending_ && haveModifyMem_) {
            taddr_ = modifyAddr_;
            mdr_ = modifyResult_;
            return true;
        }
        modifyPending_ = false;
        return false;
      case Dp::IntPushPsl: {
        uint32_t base;
        uint32_t cur_mode = (psl_ >> psl::CurModeShift) & 3;
        if (intUseIstack_) {
            base = (psl_ & psl::IS) ? gpr_[reg::SP]
                                    : prRegs_[mmu::pr::ISP];
        } else {
            base = (!(psl_ & psl::IS) && cur_mode == 0)
                       ? gpr_[reg::SP]
                       : prRegs_[mmu::pr::KSP];
        }
        taddr_ = base - 4;
        mdr_ = psl_;
        return true;
      }
      case Dp::IntPushPc:
        taddr_ = gpr_[reg::SP] - 4;
        mdr_ = pc_;
        return true;
      case Dp::McheckPushCode:
        taddr_ = gpr_[reg::SP] - 4;
        mdr_ = mcheckCode_;
        return true;
      case Dp::IntVector:
        taddr_ = prRegs_[mmu::pr::SCBB] + 4 * intVector_;
        return true;
      default:
        return true;
    }
}

template <class V>
void
Ebox::dpPost(const V &f)
{
    switch (f.dp()) {
      case Dp::OperandFromMdr: {
        Opnd &o = opnd_[curSpecIdx_];
        o.kind = Opnd::Kind::MemVal;
        o.value = mdr_;
        o.addr = taddr_;
        return;
      }
      case Dp::ExecStep:
        execStepPost(f.arg());
        return;
      case Dp::ModifyWriteback:
        modifyPending_ = false;
        return;
      case Dp::IntPushPsl: {
        // Bank the outgoing stack pointer, then switch.
        uint32_t mode = (psl_ >> psl::CurModeShift) & 3;
        if (psl_ & psl::IS)
            prRegs_[mmu::pr::ISP] = gpr_[reg::SP];
        else
            prRegs_[mode] = gpr_[reg::SP];
        if (intUseIstack_) {
            psl_ |= psl::IS;
        } else {
            psl_ &= ~psl::IS;
            psl_ = insertBits(psl_, psl::CurModeShift, 2, 0);
        }
        gpr_[reg::SP] = taddr_;
        return;
      }
      case Dp::IntPushPc:
      case Dp::McheckPushCode:
        gpr_[reg::SP] = taddr_;
        return;
      case Dp::IntVector:
        intHandler_ = static_cast<uint32_t>(mdr_) & ~3u;
        intUseIstack_ = mdr_ & 1;
        return;
      default:
        return;
    }
}

template <class V>
void
Ebox::dpAll(const V &f)
{
    // The specifier's base register; PC reads as the updated PC.
    const uint32_t base =
        curSpec_.reg == reg::PC ? pc_ : gpr_[curSpec_.reg];

    switch (f.dp()) {
      case Dp::Nop:
        return;
      case Dp::SpecLoadReg:
        taddr_ = base;
        return;
      case Dp::SpecLoadRegDisp:
        taddr_ = base + static_cast<uint32_t>(curSpec_.disp);
        return;
      case Dp::SpecLoadAbs:
        taddr_ = static_cast<uint32_t>(curSpec_.immediate);
        return;
      case Dp::SpecAutoInc: {
        uint32_t step = f.arg() ? f.arg() : curSize_;
        taddr_ = gpr_[curSpec_.reg];
        gpr_[curSpec_.reg] += step;
        return;
      }
      case Dp::SpecAutoDec: {
        uint32_t step = f.arg() ? f.arg() : curSize_;
        gpr_[curSpec_.reg] -= step;
        taddr_ = gpr_[curSpec_.reg];
        return;
      }
      case Dp::SpecIndexBase: {
        switch (curSpec_.mode) {
          case AddrMode::RegDeferred:
            taddr_ = gpr_[curSpec_.reg];
            break;
          case AddrMode::AutoIncr:
            taddr_ = gpr_[curSpec_.reg];
            gpr_[curSpec_.reg] += curSize_;
            break;
          case AddrMode::AutoIncrDeferred:
            taddr_ = gpr_[curSpec_.reg];
            gpr_[curSpec_.reg] += 4;
            break;
          case AddrMode::AutoDecr:
            gpr_[curSpec_.reg] -= curSize_;
            taddr_ = gpr_[curSpec_.reg];
            break;
          case AddrMode::DispByte:
          case AddrMode::DispWord:
          case AddrMode::DispLong:
          case AddrMode::DispByteDeferred:
          case AddrMode::DispWordDeferred:
          case AddrMode::DispLongDeferred:
            taddr_ = base + static_cast<uint32_t>(curSpec_.disp);
            break;
          case AddrMode::Absolute:
            taddr_ = static_cast<uint32_t>(curSpec_.immediate);
            break;
          default:
            panic("indexed base on non-memory mode");
        }
        return;
      }
      case Dp::SpecIndexAdd:
        taddr_ += gpr_[curSpec_.indexReg] * curSize_;
        idxTailPending_ = true;
        return;
      case Dp::MdrToTaddr:
        taddr_ = static_cast<uint32_t>(mdr_);
        return;
      case Dp::OperandFromReg: {
        Opnd &o = opnd_[curSpecIdx_];
        o.reg = curSpec_.reg;
        if (curAccess_ == Access::Field) {
            o.kind = Opnd::Kind::FieldReg;
        } else {
            o.kind = Opnd::Kind::RegVal;
            o.value = gpr_[curSpec_.reg];
            if (curSize_ == 8) {
                o.value |= static_cast<uint64_t>(
                    gpr_[(curSpec_.reg + 1) & 0xf]) << 32;
            }
        }
        return;
      }
      case Dp::OperandFromLit: {
        Opnd &o = opnd_[curSpecIdx_];
        o.kind = Opnd::Kind::RegVal;
        o.value = expandLiteral(curSpec_.literal);
        return;
      }
      case Dp::OperandFromImm: {
        Opnd &o = opnd_[curSpecIdx_];
        o.kind = Opnd::Kind::RegVal;
        o.value = curSpec_.immediate;
        return;
      }
      case Dp::OperandImmHigh:
        // The high longword was merged during I-stream consumption.
        return;
      case Dp::RegWriteSpec:
        if (curResultIdx_ >= results_.size())
            panic("register write specifier with no pending result");
        storeRegResult(curSpec_.reg, results_[curResultIdx_], curSize_);
        return;
      case Dp::OperandAddr: {
        Opnd &o = opnd_[curSpecIdx_];
        o.kind = Opnd::Kind::Addr;
        o.addr = taddr_;
        return;
      }
      case Dp::Exec:
        execMain();
        return;
      case Dp::ExecStep:
        // Non-memory execute step: apply/pad phase.
        (void)execStepPre(f.arg());
        return;
      case Dp::LoopDec:
        if (loopCount_ > 0)
            --loopCount_;
        flag_ = loopCount_ > 0;
        return;
      case Dp::BranchTarget:
        target_ = pc_ + static_cast<uint32_t>(branchDisp_);
        return;
      case Dp::TakeBranch:
        pc_ = target_;
        ibox_.redirect(pc_);
        return;
      case Dp::TbComputePte: {
        if (f.arg() == 0) {
            bool is_phys = false;
            auto a = mmu::pteAddress(map_, missVa_, is_phys);
            if (!a)
                sim_throw(GuestError, "translation of unmapped VA 0x%08x "
                      "(pc 0x%08x, opcode 0x%02x, p0lr %u)",
                      missVa_, pc_, curOp_, map_.p0lr);
            if (is_phys) {
                taddr_ = *a;
                flag_ = false;
            } else {
                pteVa_ = *a;
                arch::PAddr pa = 0;
                if (tb_.probe(pteVa_)) {
                    // Non-architectural probe: recompute via the
                    // system page table (the microcode reads the TB
                    // datapath directly).
                    uint32_t spte = static_cast<uint32_t>(
                        memsys_.memory().read(
                            map_.sbr + 4 * mmu::vpnOf(pteVa_), 4));
                    pa = (mmu::pte::pfn(spte) << mmu::PageShift) |
                         (pteVa_ & (mmu::PageBytes - 1));
                    taddr_ = pa;
                    flag_ = false;
                } else {
                    flag_ = true;
                }
            }
        } else if (f.arg() == 1) {
            taddr_ = map_.sbr + 4 * mmu::vpnOf(pteVa_);
        } else {
            uint32_t spte = static_cast<uint32_t>(
                memsys_.memory().read(
                    map_.sbr + 4 * mmu::vpnOf(pteVa_), 4));
            taddr_ = (mmu::pte::pfn(spte) << mmu::PageShift) |
                     (pteVa_ & (mmu::PageBytes - 1));
        }
        return;
      }
      case Dp::TbFill: {
        uint32_t entry = static_cast<uint32_t>(mdr_);
        if (!mmu::pte::valid(entry))
            sim_throw(GuestError, "invalid PTE for VA 0x%08x (page faults unsupported)",
                  f.arg() == 0 ? missVa_ : pteVa_);
        tb_.fill(f.arg() == 0 ? missVa_ : pteVa_, mmu::pte::pfn(entry));
        return;
      }
      case Dp::IntEnter: {
        pc_ = intHandler_;
        psl_ = insertBits(psl_, psl::IplShift, 5, intIpl_);
        psl_ = insertBits(psl_, psl::CurModeShift, 2,
                          static_cast<uint32_t>(Mode::Kernel));
        ibox_.redirect(pc_);
        return;
      }
      case Dp::OsAssist:
        if (osAssist_)
            osAssist_(*this);
        return;
      case Dp::Halt:
        halted_ = true;
        return;
      default:
        panic("unhandled datapath function %d in non-memory word",
              static_cast<int>(f.dp()));
    }
}

// --------------------------------------------------------------------------
// Processor registers and backdoor access
// --------------------------------------------------------------------------

void
Ebox::writePr(uint32_t idx, uint32_t val)
{
    if (idx >= mmu::pr::NumRegs)
        sim_throw(GuestError, "MTPR to undefined processor register %u", idx);
    using namespace mmu::pr;
    switch (idx) {
      case TBIA:
        tb_.flushAll();
        return;
      case TBIS:
        tb_.invalidateSingle(val);
        return;
      case SIRR:
        if (val >= 1 && val <= 15)
            prRegs_[SISR] |= 1u << val;
        return;
      case IPL:
        prRegs_[IPL] = val & 0x1f;
        psl_ = insertBits(psl_, psl::IplShift, 5, val & 0x1f);
        return;
      case MAPEN:
        prRegs_[MAPEN] = val & 1;
        mapEnabled_ = val & 1;
        ibox_.setMapEnable(mapEnabled_);
        return;
      default:
        break;
    }
    prRegs_[idx] = val;
    switch (idx) {
      case SBR:
        map_.sbr = val;
        break;
      case SLR:
        map_.slr = val;
        break;
      case P0BR:
        map_.p0br = val;
        break;
      case P0LR:
        map_.p0lr = val;
        break;
      case P1BR:
        map_.p1br = val;
        break;
      case P1LR:
        map_.p1lr = val;
        break;
      default:
        break;
    }
}

uint32_t
Ebox::readPr(uint32_t idx) const
{
    if (idx >= mmu::pr::NumRegs)
        sim_throw(GuestError, "MFPR from undefined processor register %u", idx);
    return prRegs_[idx];
}

uint64_t
Ebox::backdoorRead(VAddr va, uint32_t n) const
{
    if (!mapEnabled_)
        return memsys_.memory().read(va, n);
    uint64_t v = 0;
    // Translate once per page: every byte of a page shares its PTE, so
    // the first byte of a page run is also its first unmapped byte.
    for (uint32_t i = 0; i < n;) {
        const VAddr at = va + i;
        auto pa = mmu::walk(memsys_.memory(), map_, at);
        if (!pa)
            sim_throw(GuestError, "backdoor read of unmapped VA 0x%08x", at);
        const uint32_t end =
            std::min(n, i + mmu::PageBytes - (at & (mmu::PageBytes - 1)));
        for (uint32_t off = 0; i < end; ++i, ++off)
            v |= static_cast<uint64_t>(
                     memsys_.memory().readByte(*pa + off))
                 << (8 * i);
    }
    return v;
}

void
Ebox::backdoorWrite(VAddr va, uint32_t n, uint64_t v)
{
    if (!mapEnabled_) {
        memsys_.memory().write(va, n, v);
        return;
    }
    // Once per page, as in backdoorRead; a page run is stored before
    // the next page is translated, so a write that runs into an
    // unmapped page leaves the bytes before it written.
    for (uint32_t i = 0; i < n;) {
        const VAddr at = va + i;
        auto pa = mmu::walk(memsys_.memory(), map_, at);
        if (!pa)
            sim_throw(GuestError, "backdoor write of unmapped VA 0x%08x", at);
        const uint32_t end =
            std::min(n, i + mmu::PageBytes - (at & (mmu::PageBytes - 1)));
        for (uint32_t off = 0; i < end; ++i, ++off)
            memsys_.memory().writeByte(*pa + off,
                                       static_cast<uint8_t>(v >> (8 * i)));
    }
}

void
Ebox::bankSpFor(Mode new_mode, bool to_interrupt_stack)
{
    uint32_t cur_mode = (psl_ >> psl::CurModeShift) & 3;
    bool on_is = psl_ & psl::IS;
    // Save the current SP to its home register.
    if (on_is)
        prRegs_[mmu::pr::ISP] = gpr_[reg::SP];
    else
        prRegs_[cur_mode] = gpr_[reg::SP];
    // Load the new one.
    if (to_interrupt_stack) {
        gpr_[reg::SP] = prRegs_[mmu::pr::ISP];
        psl_ |= psl::IS;
    } else {
        gpr_[reg::SP] = prRegs_[static_cast<uint32_t>(new_mode)];
        psl_ &= ~psl::IS;
    }
    psl_ = insertBits(psl_, psl::CurModeShift, 2,
                      static_cast<uint32_t>(new_mode));
}

// --------------------------------------------------------------------------
// Checkpointing. walk() is the serialization contract: it follows the
// member declaration order in ebox.hh and must be edited whenever a
// stateful member is added. Wiring (references, hooks), config knobs
// (rmodeOpt_), the per-cycle scratch (now_, obsEv_) and curInfo_
// (re-derived from curOp_ and its presence flag) are intentionally
// absent. Every restored micro-address is bounded by the control
// store, and every restored index by the structure it indexes.
// --------------------------------------------------------------------------

template <class Self, class Ar>
void
Ebox::walk(Self &s, Ar &ar, bool &hasInfo)
{
    for (auto &g : s.gpr_)
        ar.u32(g);
    ar.u32(s.psl_);
    ar.u32(s.pc_);
    for (auto &p : s.prRegs_)
        ar.u32(p);
    ar.u32(s.map_.sbr);
    ar.u32(s.map_.slr);
    ar.u32(s.map_.p0br);
    ar.u32(s.map_.p0lr);
    ar.u32(s.map_.p1br);
    ar.u32(s.map_.p1lr);
    ar.b(s.mapEnabled_);

    ucode::walkUAddr(ar, s.upc_, "EBOX upc");
    ar.b(s.halted_);
    ar.vec32(s.ustack_, 1 << 16,
             [&](auto &a) { ucode::walkUAddr(ar, a, "EBOX ustack"); });
    ar.b(s.flag_);
    ar.u32(s.taddr_);
    ar.u64(s.mdr_);
    ar.u8(s.dpMemSize_);

    ar.b(s.memDone_);
    ar.b(s.memSuppressed_);
    ar.u64(s.stallRemaining_);
    ar.b(s.pendingComplete_);
    ar.b(s.pendDispatch_);
    ucode::walkUAddr(ar, s.pendStallAddr_, "EBOX stall address");

    ar.enum8(s.trapKind_, TrapKind::TbMissI, "EBOX trap kind");
    ucode::walkUAddr(ar, s.trappedUpc_, "EBOX trapped upc");
    ar.u32(s.missVa_);
    ar.u32(s.pteVa_);
    ar.b(s.trapEntryPending_);
    ucode::walkUAddr(ar, s.trapEntry_, "EBOX trap entry");
    ar.u32(s.trapSavedTaddr_);
    ar.u64(s.trapSavedMdr_);
    ar.b(s.trapSavedFlag_);

    ar.u32(s.intVector_);
    ar.u32(s.intIpl_);
    ar.u32(s.intHandler_);
    ar.b(s.intUseIstack_);

    ar.vec32(s.mcheckQueue_, 1 << 16, [&](auto &c) { ar.u32(c); });
    ar.u32(s.mcheckCode_);
    ar.u64(s.mchecksDelivered_);
    ar.b(s.csRetried_);

    ar.u8(s.curOp_);
    ar.b(hasInfo);
    ar.enum8(s.phase_, Phase::PostSpecs, "EBOX phase");
    ar.u32(s.scan_);
    ar.below(s.curSpecIdx_, std::size(s.opnd_), "EBOX specifier index");
    ar.enum8(s.curSpec_.mode, AddrMode::DispLongDeferred,
             "EBOX addressing mode");
    ar.below(s.curSpec_.reg, std::size(s.gpr_), "EBOX specifier register");
    ar.b(s.curSpec_.indexed);
    ar.below(s.curSpec_.indexReg, std::size(s.gpr_), "EBOX index register");
    ar.u8(s.curSpec_.literal);
    ar.i32(s.curSpec_.disp);
    ar.u64(s.curSpec_.immediate);
    ar.u8(s.curSpec_.length);
    ar.enum8(s.curAccess_, Access::BranchW, "EBOX access class");
    ar.enum8(s.curType_, DataType::DFloat, "EBOX data type");
    ar.u32(s.curSize_);
    ar.u32(s.curEncLen_);
    ar.b(s.idxTailPending_);
    ar.i32(s.branchDisp_);

    for (auto &o : s.opnd_) {
        ar.enum8(o.kind, Opnd::Kind::FieldReg, "EBOX operand kind");
        ar.u64(o.value);
        ar.u32(o.addr);
        ar.below(o.reg, std::size(s.gpr_), "EBOX operand register");
    }
    ar.vec32(s.results_, 1 << 16, [&](auto &v) { ar.u64(v); });
    ar.u32(s.curResultIdx_);
    ar.u32(s.nextResultIdx_);
    ar.b(s.haveModifyMem_);
    ar.u32(s.modifyAddr_);
    ar.u64(s.modifyResult_);
    ar.b(s.modifyPending_);

    ar.u32(s.loopCount_);
    ar.vec32(s.reads_, 1 << 24, [&](auto &t) {
        ar.u32(t.addr);
        ar.u8(t.size);
    });
    ar.below(s.readIdx_, s.reads_.size() + 1, "EBOX read index");
    ar.vec32(s.writes_, 1 << 24, [&](auto &t) {
        ar.u32(t.addr);
        ar.u8(t.size);
        ar.u64(t.value);
    });
    ar.below(s.writeIdx_, s.writes_.size() + 1, "EBOX write index");
    ar.b(s.hasNumarg_);
    ar.u32(s.numargWrite_.addr);
    ar.u8(s.numargWrite_.size);
    ar.u64(s.numargWrite_.value);
    ar.u32(s.target_);

    ar.u64(s.instructions_);
}

void
Ebox::serialize(ByteWriter &w) const
{
    bool hasInfo = curInfo_ != nullptr;
    walk(*this, w, hasInfo);
}

void
Ebox::deserialize(ByteReader &r)
{
    bool hasInfo = false;
    walk(*this, r, hasInfo);
    curInfo_ = hasInfo ? &opcodeInfo(curOp_) : nullptr;
    ibox_.setMapEnable(mapEnabled_);

    // Decoded rows and micro-trace links are derived state, never part
    // of the snapshot: re-derive them so a restore can never run on a
    // stale decode (e.g. a registry entry that lapsed between save and
    // restore, or a restore into a machine built around an image
    // override).
    rebindDecoded();
}

} // namespace upc780::cpu
