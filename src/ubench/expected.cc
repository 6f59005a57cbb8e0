/**
 * @file
 * The analytic model: an independent micro-walk of the shipped
 * microcode image under the documented timing constants, driven by a
 * kernel's IterationScript. Deliberately re-implements the EBOX cycle
 * discipline, IB fill engine, SBI occupancy, write buffer, cache, and
 * TB from their written contracts (DESIGN.md §4-§5) — sharing no
 * timing code with src/cpu or src/mem — so exact agreement with the
 * live machine is a genuine cross-check, and one perturbed constant on
 * either side is refutable (the negative-control tests).
 */

#include "ubench/ubench.hh"

#include <optional>

#include "arch/opcodes.hh"
#include "common/logging.hh"
#include "mmu/pagetable.hh"
#include "ucode/uop.hh"

namespace upc780::ubench
{

namespace
{

using arch::Access;
using arch::VAddr;
using ucode::Ib;
using ucode::Mem;
using ucode::MicrocodeImage;
using ucode::MicroOp;
using ucode::Seq;
using ucode::UAddr;
using Dp = ucode::Dp;
using obs::Ev;

constexpr uint64_t alignDown4(uint64_t a) { return a & ~uint64_t(3); }

/** Per-cycle event flags, mirroring obs::CycleEvents. */
struct CycleFlags
{
    bool halt = false;
    bool abort = false;
    bool ibStall = false;
    bool decode = false;
    bool memRead = false;
    bool memWrite = false;
    bool irq = false;
    bool tbMissD = false;
    bool tbMissI = false;
};

struct Accum
{
    uint64_t cycles = 0;
    std::array<uint64_t, obs::NumEvents> ev{};
    std::map<UAddr, std::pair<uint64_t, uint64_t>> hist;

    Accum
    operator-(const Accum &o) const
    {
        Accum d;
        d.cycles = cycles - o.cycles;
        for (size_t i = 0; i < obs::NumEvents; ++i)
            d.ev[i] = ev[i] - o.ev[i];
        for (const auto &[a, cs] : hist) {
            uint64_t c = cs.first, s = cs.second;
            auto it = o.hist.find(a);
            if (it != o.hist.end()) {
                c -= it->second.first;
                s -= it->second.second;
            }
            if (c || s)
                d.hist[a] = {c, s};
        }
        return d;
    }

    bool operator==(const Accum &o) const = default;
};

class Walker
{
  public:
    Walker(const Kernel &k, const MicrocodeImage &img,
           const TimingParams &tp)
        : k_(k), img_(img), tp_(tp)
    {
        if (k_.script.empty())
            panic("ubench %s: empty script", k_.name.c_str());
        cacheTags_.assign(size_t(tp_.cacheSets) * tp_.cacheWays, 0);
        cacheValid_.assign(size_t(tp_.cacheSets) * tp_.cacheWays, false);
        tbTags_.assign(size_t(2) * tp_.tbEntriesPerHalf, 0);
        tbValid_.assign(size_t(2) * tp_.tbEntriesPerHalf, false);
        wbSlots_.assign(tp_.wbDepth, 0);
        // Mirror Ebox::reset + the first IBox::redirect.
        upc_ = img_.marks.decode;
        ibRedirect(k_.entryPc);
        pos_ = k_.script.size() - 1;  // first DecodeOp advances to 0
    }

    PerIteration run();

  private:
    // ----- bookkeeping -------------------------------------------------
    void bump(Ev e, uint64_t n = 1) { acc_.ev[size_t(e)] += n; }

    // ----- component models (independent of src/mem, src/mmu) ---------
    bool cacheReadAccess(uint64_t pa, bool istream);
    void cacheWriteAccess(uint64_t pa);
    uint64_t sbiStart(uint64_t at, uint32_t latency);
    uint64_t wbIssue(uint64_t at);
    uint64_t readRef(uint64_t pa, uint64_t at, bool istream);
    uint64_t memRead(uint64_t pa, uint32_t size);
    uint64_t memWrite(uint64_t pa, uint32_t size);
    bool tbLookup(VAddr va, bool istream);
    void tbFill(VAddr va);
    void tbFlushAll();

    // ----- IB model -----------------------------------------------------
    void ibRedirect(VAddr pc);
    void ibDeliver();
    void ibStartFill();

    // ----- EBOX walk ----------------------------------------------------
    struct Out
    {
        UAddr upc;
        bool stalled;
    };
    Out eboxCycle(CycleFlags &fl);
    Out runCycle(CycleFlags &fl);
    bool ibSatisfied(const MicroOp &op, uint32_t &need) const;
    UAddr ibStallAddrFor(const MicroOp &op) const;
    void startTrap(bool istream, VAddr va, CycleFlags &fl);
    UAddr trySpecDispatch(CycleFlags &fl);
    UAddr dispatchSpecifier(unsigned i);
    UAddr endInstruction(CycleFlags &fl);
    void consumeIb(const MicroOp &op, CycleFlags &fl);
    void dpEffects(const MicroOp &op);
    void sequence(const MicroOp &op, CycleFlags &fl);
    void completeUop(const MicroOp &op, CycleFlags &fl);
    void machineCycle();
    void advanceInstruction();

    const KInstr &cur() const { return k_.script[pos_]; }

    [[noreturn]] void
    fail(const char *what) const
    {
        panic("ubench %s: %s (upc 0x%04x, script entry %zu, iter %u)",
              k_.name.c_str(), what, upc_, pos_, iter_);
    }

    const Kernel &k_;
    const MicrocodeImage &img_;
    const TimingParams tp_;

    // Accounting.
    Accum acc_;
    std::vector<Accum> snaps_;   //!< accumulator at each iteration start
    uint64_t now_ = 0;

    // EBOX state.
    UAddr upc_ = 0;
    bool halted_ = false;
    bool flag_ = false;
    uint32_t stallRemaining_ = 0;
    bool pendingComplete_ = false;
    bool memDone_ = false;
    bool pendDispatch_ = false;
    UAddr pendStallAddr_ = 0;
    std::vector<UAddr> ustack_;
    // Dispatch state.
    bool postSpecs_ = false;
    unsigned scan_ = 0;
    unsigned curSpecIdx_ = 0;
    uint8_t curEncLen_ = 0;
    // Microtrap state.
    enum class Trap { None, TbMissD, TbMissI };
    Trap trapKind_ = Trap::None;
    VAddr missVa_ = 0;
    UAddr trappedUpc_ = 0;
    UAddr trapEntry_ = 0;
    bool trapEntryPending_ = false;
    bool savedFlag_ = false;

    // Script position.
    size_t pos_ = 0;
    uint32_t iter_ = 0;
    size_t memRefIdx_ = 0;

    // IB state.
    uint32_t ibCount_ = 0;
    VAddr fetchVa_ = 0;
    bool fillPending_ = false;
    uint64_t fillReadyAt_ = 0;
    VAddr fillVa_ = 0;
    bool ibTbMiss_ = false;
    VAddr ibTbMissVa_ = 0;
    bool justRedirected_ = false;

    // SBI / write buffer / cache / TB state.
    uint64_t sbiBusyUntil_ = 0;
    std::vector<uint64_t> wbSlots_;
    std::vector<uint64_t> cacheTags_;
    std::vector<bool> cacheValid_;
    std::vector<uint64_t> tbTags_;
    std::vector<bool> tbValid_;
};

// --------------------------------------------------------------------------
// Cache / SBI / write buffer / memory timing
// --------------------------------------------------------------------------

bool
Walker::cacheReadAccess(uint64_t pa, bool istream)
{
    bump(istream ? Ev::CacheIReads : Ev::CacheDReads);
    Ev missEv = istream ? Ev::CacheIReadMisses : Ev::CacheDReadMisses;
    if (!tp_.cacheEnabled) {
        bump(missEv);
        return false;
    }
    uint64_t block = pa / tp_.cacheBlockBytes;
    uint64_t set = block % tp_.cacheSets;
    uint64_t tag = block / tp_.cacheSets;
    size_t base = size_t(set) * tp_.cacheWays;
    for (uint32_t w = 0; w < tp_.cacheWays; ++w)
        if (cacheValid_[base + w] && cacheTags_[base + w] == tag)
            return true;
    bump(missEv);
    // Fill invalid-way-first. A full set would need the hardware's
    // random replacement — kernels are constructed never to reach it,
    // and the model enforces that construction.
    for (uint32_t w = 0; w < tp_.cacheWays; ++w) {
        if (!cacheValid_[base + w]) {
            cacheValid_[base + w] = true;
            cacheTags_[base + w] = tag;
            return false;
        }
    }
    fail("cache set full: kernel would hit random replacement");
}

void
Walker::cacheWriteAccess(uint64_t pa)
{
    bump(Ev::CacheWrites);
    if (!tp_.cacheEnabled)
        return;
    uint64_t block = pa / tp_.cacheBlockBytes;
    uint64_t set = block % tp_.cacheSets;
    uint64_t tag = block / tp_.cacheSets;
    size_t base = size_t(set) * tp_.cacheWays;
    for (uint32_t w = 0; w < tp_.cacheWays; ++w)
        if (cacheValid_[base + w] && cacheTags_[base + w] == tag)
            bump(Ev::CacheWriteHits);
    // Write-through, no allocate.
}

uint64_t
Walker::sbiStart(uint64_t at, uint32_t latency)
{
    uint64_t begin = at > sbiBusyUntil_ ? at : sbiBusyUntil_;
    sbiBusyUntil_ = begin + latency;
    return sbiBusyUntil_;
}

uint64_t
Walker::wbIssue(uint64_t at)
{
    bump(Ev::WbWrites);
    size_t best = 0;
    for (size_t i = 1; i < wbSlots_.size(); ++i)
        if (wbSlots_[i] < wbSlots_[best])
            best = i;
    uint64_t stall = wbSlots_[best] > at ? wbSlots_[best] - at : 0;
    bump(Ev::WbStallCycles, stall);
    wbSlots_[best] = sbiStart(at + stall, tp_.sbiWriteLatency);
    return stall;
}

uint64_t
Walker::readRef(uint64_t pa, uint64_t at, bool istream)
{
    if (cacheReadAccess(pa, istream))
        return 0;
    return sbiStart(at, tp_.sbiReadLatency) - at;
}

uint64_t
Walker::memRead(uint64_t pa, uint32_t size)
{
    uint64_t first = alignDown4(pa);
    uint64_t last = alignDown4(pa + size - 1);
    uint64_t stall = readRef(first, now_, false);
    bool unaligned = false;
    if (last != first) {
        if (size <= 4 || (pa & 3) != 0)
            unaligned = (pa & 3) != 0 && first + 4 < pa + size;
        stall += readRef(last, now_ + stall, false);
        if (size == 8 && last - first > 4)
            stall += readRef(first + 4, now_ + stall, false);
    }
    if (unaligned)
        bump(Ev::MemUnalignedRefs);
    return stall;
}

uint64_t
Walker::memWrite(uint64_t pa, uint32_t size)
{
    uint64_t first = alignDown4(pa);
    uint64_t last = alignDown4(pa + size - 1);
    uint32_t refs = 1 + (last != first ? 1 : 0) +
                    (size == 8 && last - first > 4 ? 1 : 0);
    bool unaligned = (pa & 3) != 0 && last != first && size <= 4;
    uint64_t at = now_;
    uint64_t total = 0;
    for (uint32_t i = 0; i < refs; ++i) {
        uint64_t stall = wbIssue(at);
        total += stall;
        at += stall + 1;
        cacheWriteAccess(first + 4 * i);
    }
    if (unaligned)
        bump(Ev::MemUnalignedRefs);
    return total;
}

// --------------------------------------------------------------------------
// Translation buffer
// --------------------------------------------------------------------------

bool
Walker::tbLookup(VAddr va, bool istream)
{
    size_t half = (va >> 30) == 2 ? 1 : 0;  // S0 in the system half
    uint64_t page = uint64_t(va) >> mmu::PageShift;
    uint64_t set = page % tp_.tbEntriesPerHalf;
    uint64_t tag = page / tp_.tbEntriesPerHalf;
    size_t i = half * tp_.tbEntriesPerHalf + set;
    bool hit = tbValid_[i] && tbTags_[i] == tag;
    if (hit)
        bump(istream ? Ev::TbIHits : Ev::TbDHits);
    else
        bump(istream ? Ev::TbIMisses : Ev::TbDMisses);
    return hit;
}

void
Walker::tbFill(VAddr va)
{
    size_t half = (va >> 30) == 2 ? 1 : 0;
    uint64_t page = uint64_t(va) >> mmu::PageShift;
    size_t i = half * tp_.tbEntriesPerHalf + page % tp_.tbEntriesPerHalf;
    tbValid_[i] = true;
    tbTags_[i] = page / tp_.tbEntriesPerHalf;
    bump(Ev::TbFills);
}

void
Walker::tbFlushAll()
{
    tbValid_.assign(tbValid_.size(), false);
    bump(Ev::TbFlushes);
}

// --------------------------------------------------------------------------
// Instruction buffer
// --------------------------------------------------------------------------

void
Walker::ibRedirect(VAddr pc)
{
    ibCount_ = 0;
    fetchVa_ = pc;
    fillPending_ = false;
    ibTbMiss_ = false;
    justRedirected_ = true;
    bump(Ev::IbRedirects);
}

void
Walker::ibDeliver()
{
    if (!fillPending_ || now_ < fillReadyAt_)
        return;
    fillPending_ = false;
    uint32_t lw_off = fillVa_ & 3;
    uint32_t avail_in_lw = 4 - lw_off;
    uint32_t room = tp_.ibCapacity - ibCount_;
    uint32_t take = avail_in_lw < room ? avail_in_lw : room;
    ibCount_ += take;
    fetchVa_ = fillVa_ + take;
}

void
Walker::ibStartFill()
{
    if (justRedirected_) {
        justRedirected_ = false;
        return;
    }
    if (fillPending_ || ibTbMiss_ || ibCount_ >= tp_.ibCapacity)
        return;
    uint64_t pa = fetchVa_;
    if (tp_.mapped) {
        if (!tbLookup(fetchVa_, true)) {
            ibTbMiss_ = true;
            ibTbMissVa_ = fetchVa_;
            return;
        }
        pa = fetchVa_ & 0x3FFFFFFF;  // kernels build identity S0 maps
    }
    uint64_t delay = readRef(alignDown4(pa), now_, true);
    uint64_t ready = now_ + delay;
    fillVa_ = fetchVa_;
    uint64_t min_ready = now_ + tp_.ibFillCycles;
    fillReadyAt_ = ready > min_ready ? ready : min_ready;
    fillPending_ = true;
    bump(Ev::IbFills);
}

// --------------------------------------------------------------------------
// EBOX walk
// --------------------------------------------------------------------------

bool
Walker::ibSatisfied(const MicroOp &op, uint32_t &need) const
{
    switch (op.ib) {
      case Ib::DecodeOp:
        need = 1;
        break;
      case Ib::DecodeSpec:
        need = curEncLen_;
        break;
      case Ib::GetImmHigh:
        need = 4;
        break;
      case Ib::GetBranchDisp: {
        need = 1;
        for (const arch::OperandSpec &s :
             arch::opcodeInfo(cur().opcode).specs())
            if (s.access == Access::BranchW)
                need = 2;
        break;
      }
      default:
        need = 0;
        return true;
    }
    return ibCount_ >= need;
}

UAddr
Walker::ibStallAddrFor(const MicroOp &op) const
{
    switch (op.ib) {
      case Ib::DecodeOp:
        return img_.marks.ibStallDecode;
      case Ib::GetBranchDisp:
        return img_.marks.ibStallBdisp;
      default:
        return curSpecIdx_ == 0 ? img_.marks.ibStallSpec1
                                : img_.marks.ibStallSpec26;
    }
}

void
Walker::startTrap(bool istream, VAddr va, CycleFlags &fl)
{
    if (istream)
        fl.tbMissI = true;
    else
        fl.tbMissD = true;
    trapKind_ = istream ? Trap::TbMissI : Trap::TbMissD;
    missVa_ = va;
    trappedUpc_ = upc_;
    trapEntry_ = istream ? img_.marks.tbMissI : img_.marks.tbMissD;
    trapEntryPending_ = true;
    savedFlag_ = flag_;
}

UAddr
Walker::dispatchSpecifier(unsigned i)
{
    if (ibCount_ < 1)
        return 0;
    const KInstr::Spec &s = cur().specs[i];
    if (s.entry == 0)
        fail("operand dispatch with no script spec entry");
    if (ibCount_ < s.encLen)
        return 0;
    curEncLen_ = s.encLen;
    curSpecIdx_ = i;
    return s.entry;
}

UAddr
Walker::endInstruction(CycleFlags &fl)
{
    size_t nxt = (pos_ + 1) % k_.script.size();
    if (k_.script[nxt].intDispatch) {
        advanceInstruction();
        fl.irq = true;
        return img_.marks.intDispatch;
    }
    return img_.marks.decode;
}

UAddr
Walker::trySpecDispatch(CycleFlags &fl)
{
    const arch::OpcodeInfo &info = arch::opcodeInfo(cur().opcode);
    const unsigned n = info.numOperands;
    if (!postSpecs_) {
        while (scan_ < n) {
            Access a = info.operands[scan_].access;
            if (arch::isBranchDisp(a) || a == Access::Write) {
                ++scan_;
                continue;
            }
            UAddr t = dispatchSpecifier(scan_);
            if (t == 0)
                return 0;
            ++scan_;
            return t;
        }
        postSpecs_ = true;
        scan_ = 0;
        if (cur().execEntry == 0)
            fail("script entry without an execute entry");
        return cur().execEntry;
    }
    while (scan_ < n) {
        if (info.operands[scan_].access != Access::Write) {
            ++scan_;
            continue;
        }
        UAddr t = dispatchSpecifier(scan_);
        if (t == 0)
            return 0;
        ++scan_;
        return t;
    }
    return endInstruction(fl);
}

void
Walker::advanceInstruction()
{
    pos_ = (pos_ + 1) % k_.script.size();
    memRefIdx_ = 0;
    if (pos_ == 0) {
        snaps_.push_back(acc_);
        if (!snaps_.empty() && snaps_.size() > 1)
            ++iter_;
    }
}

void
Walker::consumeIb(const MicroOp &op, CycleFlags &fl)
{
    switch (op.ib) {
      case Ib::None:
        return;
      case Ib::DecodeOp:
        advanceInstruction();
        if (cur().intDispatch)
            fail("decoded into an interrupt-dispatch pseudo entry");
        ibCount_ -= 1;
        postSpecs_ = false;
        scan_ = 0;
        curSpecIdx_ = 0;
        fl.decode = true;
        return;
      case Ib::DecodeSpec:
        ibCount_ -= curEncLen_;
        return;
      case Ib::GetImmHigh:
        ibCount_ -= 4;
        return;
      case Ib::GetBranchDisp: {
        uint32_t n = 1;
        for (const arch::OperandSpec &s :
             arch::opcodeInfo(cur().opcode).specs())
            if (s.access == Access::BranchW)
                n = 2;
        ibCount_ -= n;
        return;
      }
    }
}

void
Walker::dpEffects(const MicroOp &op)
{
    switch (op.dp) {
      case Dp::Exec:
        flag_ = cur().taken;
        if (cur().tbFlushAll)
            tbFlushAll();
        return;
      case Dp::LoopDec:
        flag_ = cur().taken;
        return;
      case Dp::TakeBranch:
      case Dp::IntEnter:
        ibRedirect(cur().redirectTo);
        return;
      case Dp::TbComputePte:
        // Kernels map only S0, whose PTEs live at physical addresses:
        // the microcode's nested-miss path is never taken.
        if (op.arg == 0) {
            if ((missVa_ >> 30) != 2)
                fail("TB miss outside S0 space");
            flag_ = false;
        }
        return;
      case Dp::TbFill:
        tbFill(missVa_);
        return;
      case Dp::Halt:
        halted_ = true;
        return;
      case Dp::ModifyWriteback:
        fail("memory modify-writeback path not scriptable");
      default:
        return;  // datapath-only effect, timing-irrelevant
    }
}

void
Walker::sequence(const MicroOp &op, CycleFlags &fl)
{
    switch (op.seq) {
      case Seq::Next:
        ++upc_;
        return;
      case Seq::Jump:
        upc_ = op.target;
        return;
      case Seq::Call:
        ustack_.push_back(static_cast<UAddr>(upc_ + 1));
        upc_ = op.target;
        return;
      case Seq::Return:
        if (ustack_.empty())
            fail("micro return with empty stack");
        upc_ = ustack_.back();
        ustack_.pop_back();
        return;
      case Seq::JumpIfFlag:
        upc_ = flag_ ? op.target : static_cast<UAddr>(upc_ + 1);
        return;
      case Seq::JumpIfNotFlag:
        upc_ = !flag_ ? op.target : static_cast<UAddr>(upc_ + 1);
        return;
      case Seq::SpecDispatch: {
        UAddr t = trySpecDispatch(fl);
        if (t == 0) {
            pendDispatch_ = true;
            pendStallAddr_ = scan_ == 0 ? img_.marks.ibStallSpec1
                                        : img_.marks.ibStallSpec26;
        } else {
            upc_ = t;
        }
        return;
      }
      case Seq::DecodeNext:
        upc_ = endInstruction(fl);
        return;
      case Seq::DecodeNextIfNotFlag:
        upc_ = flag_ ? static_cast<UAddr>(upc_ + 1) : endInstruction(fl);
        return;
      case Seq::TrapReturn:
        if (trapKind_ == Trap::TbMissI)
            ibTbMiss_ = false;
        trapKind_ = Trap::None;
        flag_ = savedFlag_;
        upc_ = trappedUpc_;
        return;
    }
}

void
Walker::completeUop(const MicroOp &op, CycleFlags &fl)
{
    consumeIb(op, fl);
    if (op.mem == Mem::None)
        dpEffects(op);
    memDone_ = false;
    sequence(op, fl);
}

Walker::Out
Walker::runCycle(CycleFlags &fl)
{
    const MicroOp &op = img_.ops[upc_];

    if (op.ib != Ib::None && !pendingComplete_) {
        uint32_t need = 0;
        if (!ibSatisfied(op, need)) {
            if (ibTbMiss_ && ibCount_ < need) {
                startTrap(true, ibTbMissVa_, fl);
                fl.abort = true;
                return {img_.marks.abort, false};
            }
            fl.ibStall = true;
            return {ibStallAddrFor(op), false};
        }
    }

    if (op.mem != Mem::None && !memDone_ && !pendingComplete_) {
        uint64_t va;
        uint32_t size;
        bool is_write = op.mem == Mem::WriteV;
        bool consume_script_ref = trapKind_ == Trap::None;
        if (consume_script_ref) {
            if (memRefIdx_ >= cur().memRefs.size())
                fail("micro word needs a memory ref the script lacks");
            const MemRef &r = cur().memRefs[memRefIdx_];
            va = r.at(iter_);
            size = r.size;
        } else {
            // TB-miss service: the PTE read at SBR + 4*VPN(missVA).
            if (op.mem != Mem::ReadP)
                fail("non-ReadP memory word inside TB-miss service");
            va = tp_.sbr + 4 * mmu::vpnOf(missVa_);
            size = 4;
        }
        uint64_t pa = va;
        if (op.mem != Mem::ReadP && tp_.mapped) {
            if (!tbLookup(va, false)) {
                startTrap(false, va, fl);
                fl.abort = true;
                return {img_.marks.abort, false};
            }
            pa = va & 0x3FFFFFFF;  // identity S0 map
        }
        uint64_t stall = is_write ? memWrite(pa, size) : memRead(pa, size);
        memDone_ = true;
        if (consume_script_ref)
            ++memRefIdx_;
        if (stall > 0) {
            stallRemaining_ = static_cast<uint32_t>(stall - 1);
            pendingComplete_ = true;
            return {upc_, true};
        }
    }
    pendingComplete_ = false;

    if (op.mem == Mem::ReadV || op.mem == Mem::ReadP)
        fl.memRead = true;
    else if (op.mem == Mem::WriteV)
        fl.memWrite = true;
    UAddr attributed = upc_;
    completeUop(op, fl);
    return {attributed, false};
}

Walker::Out
Walker::eboxCycle(CycleFlags &fl)
{
    if (halted_) {
        fl.halt = true;
        return {img_.marks.halted, false};
    }
    if (stallRemaining_ > 0) {
        --stallRemaining_;
        return {upc_, true};
    }
    if (trapEntryPending_) {
        upc_ = trapEntry_;
        trapEntryPending_ = false;
    }
    if (pendDispatch_ && trapKind_ == Trap::None) {
        UAddr t = trySpecDispatch(fl);
        if (t == 0) {
            if (ibTbMiss_) {
                startTrap(true, ibTbMissVa_, fl);
                fl.abort = true;
                return {img_.marks.abort, false};
            }
            fl.ibStall = true;
            return {pendStallAddr_, false};
        }
        pendDispatch_ = false;
        upc_ = t;
    }
    return runCycle(fl);
}

void
Walker::machineCycle()
{
    // Mirror Vax780::tick(): deliver, EBOX cycle, probes, start fill.
    ibDeliver();
    CycleFlags fl{};
    Out out = eboxCycle(fl);

    // CounterRegistry::emitCycle's classification, exactly.
    if (out.stalled) {
        bump(Ev::EboxStallCycles);
    } else if (fl.halt) {
        bump(Ev::EboxHaltCycles);
    } else if (fl.abort) {
        bump(Ev::EboxAborts);
        if (fl.tbMissD)
            bump(Ev::TbMissServicesD);
        if (fl.tbMissI)
            bump(Ev::TbMissServicesI);
    } else if (fl.ibStall) {
        bump(Ev::EboxIbStallCycles);
    } else {
        bump(Ev::EboxUops);
        if (fl.decode)
            bump(Ev::IboxDecodes);
        if (fl.memRead)
            bump(Ev::EboxMemReadCycles);
        if (fl.memWrite)
            bump(Ev::EboxMemWriteCycles);
        if (fl.irq)
            bump(Ev::IrqDispatches);
    }

    // The UPC monitor board's probe.
    bump(Ev::UpcCycles);
    auto &bucket = acc_.hist[out.upc];
    if (out.stalled) {
        ++bucket.second;
        bump(Ev::UpcStallCycles);
    } else {
        ++bucket.first;
    }

    ibStartFill();
    ++now_;
    ++acc_.cycles;
}

PerIteration
Walker::run()
{
    constexpr size_t MaxIters = 96;
    constexpr uint64_t MaxCycles = 400000;
    while (snaps_.size() < MaxIters + 1) {
        if (halted_)
            fail("machine halted inside the measured loop");
        if (now_ > MaxCycles)
            fail("model did not reach the iteration budget (runaway)");
        machineCycle();
    }

    std::vector<Accum> deltas;
    for (size_t i = 1; i < snaps_.size(); ++i)
        deltas.push_back(snaps_[i] - snaps_[i - 1]);

    // Find the smallest exact period over the tail of the run, and how
    // long convergence took from the front.
    for (uint32_t p : {1u, 2u, 4u}) {
        size_t converged = deltas.size();
        for (size_t i = deltas.size(); i-- > p;) {
            if (deltas[i] == deltas[i - p])
                converged = i - p;
            else
                break;
        }
        // Demand a long stable tail: at least half the run periodic.
        if (converged + deltas.size() / 2 <= deltas.size()) {
            PerIteration out;
            out.period = p;
            out.itersToConverge = static_cast<uint32_t>(converged);
            for (size_t i = deltas.size() - p; i < deltas.size(); ++i) {
                const Accum &d = deltas[i];
                out.cycles += d.cycles;
                for (size_t e = 0; e < obs::NumEvents; ++e)
                    out.ev[e] += d.ev[e];
                for (const auto &[a, cs] : d.hist) {
                    auto &b = out.hist[a];
                    b.first += cs.first;
                    b.second += cs.second;
                }
            }
            return out;
        }
    }
    fail("per-iteration behaviour never became periodic");
}

} // namespace

PerIteration
expectedPerIteration(const Kernel &k, const ucode::MicrocodeImage &img,
                     const TimingParams &tp)
{
    return Walker(k, img, tp).run();
}

PerIteration
expectedPerIteration(const Kernel &k)
{
    TimingParams tp = TimingParams::design();
    tp.cacheEnabled = k.cacheEnabled;
    tp.mapped = k.mapped;
    tp.sbr = k.sbr;
    tp.wbDepth = k.wbDepth;
    const ucode::MicrocodeImage &img =
        k.fpa ? ucode::microcodeImage() : ucode::microcodeImageNoFpa();
    return expectedPerIteration(k, img, tp);
}

} // namespace upc780::ubench
