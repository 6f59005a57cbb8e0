#include "os/kernel.hh"

#include <cmath>

#include "arch/assembler.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "mmu/pagetable.hh"
#include "mmu/prreg.hh"
#include "obs/trace.hh"

namespace upc780::os
{

using namespace upc780::arch;
using namespace upc780::mmu;

VmsLite::VmsLite(cpu::Vax780 &machine, const OsConfig &config)
    : machine_(machine), cfg_(config), rng_(config.seed)
{
    timer_ = std::make_unique<IntervalTimer>(cfg_.timerPeriodCycles);
    terminal_ = std::make_unique<RteTerminal>();
    Process &idle = procs_.emplace_back();
    idle.isIdle = true;
    idle.materialized = true;  // the Null process runs kernel code
}

int
VmsLite::addProcess(const ProcessShape &shape, Materializer materialize)
{
    if (booted_)
        sim_throw(ConfigError, "addProcess after boot");
    Process &p = procs_.emplace_back();
    p.thinkMean = shape.thinkMeanCycles;
    p.shape = shape;
    p.materialize = std::move(materialize);
    return static_cast<int>(procs_.size()) - 1;
}

int
VmsLite::addProcess(ProcessImage image)
{
    const ProcessShape shape = image;
    return addProcess(shape, [image = std::move(image)] { return image; });
}

void
VmsLite::physWrite(PAddr pa, uint32_t n, uint64_t v)
{
    machine_.memsys().memory().write(pa, n, v);
}

void
VmsLite::buildSystemMap()
{
    // Identity-map the low SysMappedBytes of physical memory into S0.
    PageTableBuilder builder(machine_.memsys().memory(),
                             pmap::SysPageTable);
    uint32_t npte = pmap::SysMappedBytes / PageBytes;
    // The builder's cursor is used for process tables; the system
    // table lives at a fixed address.
    machine_.memsys().memory().clear(pmap::SysPageTable, 4 * npte);
    for (uint32_t vpn = 0; vpn < npte; ++vpn) {
        machine_.memsys().memory().write(pmap::SysPageTable + 4 * vpn, 4,
                                         pte::make(vpn));
    }
}

void
VmsLite::buildKernelCode()
{
    Assembler a(vmap::KernelCode);

    const auto tickcnt = Operand::abs(kdata::TickCount);
    const auto flag = Operand::abs(kdata::ReschedFlag);
    const auto syscnt = Operand::abs(kdata::SyscallCount);
    const uint8_t sirr = static_cast<uint8_t>(mmu::pr::SIRR);

    // ----- boot ---------------------------------------------------------
    bootVa_ = a.pc();
    a.emit(Op::MOVL, {Operand::lit(assist::PickFirst), Operand::reg(0)});
    a.emit(Op::XFC, {});
    a.emit(Op::LDPCTX, {});
    // Fresh and switched-out processes resume here (their PCB.PC is
    // pointed at this REI by the scheduler assist).
    schedResumeVa_ = a.pc();
    a.emit(Op::REI, {});

    // ----- interval-clock ISR (interrupt stack, IPL 24) -------------------
    const auto forkflag = Operand::abs(kdata::ForkFlag);
    a.align(4);
    timerIsrVa_ = a.pc();
    {
        a.emit(Op::PUSHR, {Operand::lit(0x3F)});
        a.emit(Op::INCL, {tickcnt});
        a.emit(Op::MOVL, {Operand::lit(assist::TimerTick),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::POPR, {Operand::lit(0x3F)});
        Label no_fork = a.newLabel();
        a.emit(Op::TSTL, {forkflag});
        a.emitBr(Op::BEQL, no_fork);
        a.emit(Op::CLRL, {forkflag});
        a.emit(Op::MTPR, {Operand::lit(vec::Fork), Operand::lit(sirr)});
        a.bind(no_fork);
        a.emit(Op::TSTL, {flag});
        Label done = a.newLabel();
        a.emitBr(Op::BEQL, done);
        a.emit(Op::CLRL, {flag});
        a.emit(Op::MTPR, {Operand::lit(vec::Resched),
                          Operand::lit(sirr)});
        a.bind(done);
        a.emit(Op::REI, {});
    }

    // ----- fork-level software ISR (kernel stack, IPL 6) -------------------
    // Models VMS's fork queue: deferred I/O completion processing.
    a.align(4);
    forkIsrVa_ = a.pc();
    {
        a.emit(Op::PUSHR, {Operand::lit(0x3F)});
        a.emit(Op::INCL, {Operand::abs(kdata::ForkCount)});
        a.emit(Op::MOVL, {Operand::lit(assist::ForkWork),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::POPR, {Operand::lit(0x3F)});
        a.emit(Op::REI, {});
    }

    // ----- terminal-mux ISR (interrupt stack, IPL 20) -----------------------
    a.align(4);
    termIsrVa_ = a.pc();
    {
        a.emit(Op::PUSHR, {Operand::lit(0x3F)});
        a.emit(Op::MOVL, {Operand::lit(assist::TermEvent),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::POPR, {Operand::lit(0x3F)});
        a.emit(Op::TSTL, {flag});
        Label done = a.newLabel();
        a.emitBr(Op::BEQL, done);
        a.emit(Op::CLRL, {flag});
        a.emit(Op::MTPR, {Operand::lit(vec::Resched),
                          Operand::lit(sirr)});
        a.bind(done);
        a.emit(Op::REI, {});
    }

    // ----- rescheduling software interrupt (kernel stack, IPL 3) ------------
    a.align(4);
    schedIsrVa_ = a.pc();
    {
        a.emit(Op::SVPCTX, {});
        a.emit(Op::MOVL, {Operand::lit(assist::PickNext),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::LDPCTX, {});
        // LDPCTX transfers to the loaded PCB.PC (schedResumeVa_).
    }

    // ----- CHMK system-service gate (kernel stack) ----------------------------
    a.align(4);
    chmkIsrVa_ = a.pc();
    {
        a.emit(Op::PUSHR, {Operand::lit(0x3F)});
        a.emit(Op::INCL, {syscnt});
        // The change-mode code sits above the six saved registers.
        a.emit(Op::MOVL, {Operand::disp(24, reg::SP), Operand::reg(1)});
        a.emit(Op::MOVL, {Operand::lit(assist::Syscall),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::POPR, {Operand::lit(0x3F)});
        a.emit(Op::ADDL2, {Operand::lit(4), Operand::reg(reg::SP)});
        a.emit(Op::TSTL, {flag});
        Label done = a.newLabel();
        a.emitBr(Op::BEQL, done);
        a.emit(Op::CLRL, {flag});
        a.emit(Op::MTPR, {Operand::lit(vec::Resched),
                          Operand::lit(sirr)});
        a.bind(done);
        a.emit(Op::REI, {});
    }

    // ----- machine-check handler (interrupt stack, IPL 31) --------------------
    // The microcode pushed [code][PC][PSL]; the handler logs the event
    // and applies the recovery policy through the assist (correctable:
    // resume; uncorrectable: terminate the afflicted process), then
    // pops the code and REIs — the paper's machines rode through
    // these errors the same way.
    a.align(4);
    mcheckIsrVa_ = a.pc();
    {
        a.emit(Op::PUSHR, {Operand::lit(0x3F)});
        a.emit(Op::INCL, {Operand::abs(kdata::McheckCount)});
        // The machine-check code sits above the six saved registers.
        a.emit(Op::MOVL, {Operand::disp(24, reg::SP), Operand::reg(1)});
        a.emit(Op::MOVL, {Operand::lit(assist::MachineCheck),
                          Operand::reg(0)});
        a.emit(Op::XFC, {});
        a.emit(Op::POPR, {Operand::lit(0x3F)});
        a.emit(Op::ADDL2, {Operand::lit(4), Operand::reg(reg::SP)});
        a.emit(Op::TSTL, {flag});
        Label done = a.newLabel();
        a.emitBr(Op::BEQL, done);
        a.emit(Op::CLRL, {flag});
        a.emit(Op::MTPR, {Operand::lit(vec::Resched),
                          Operand::lit(sirr)});
        a.bind(done);
        a.emit(Op::REI, {});
    }

    // ----- the Null process --------------------------------------------------
    // "Branch to self, awaiting an interrupt" (paper §2.2).
    a.align(4);
    idleVa_ = a.pc();
    {
        Label self = a.here();
        a.emitBr(Op::BRB, self);
    }

    const auto &bytes = a.finish();
    machine_.memsys().memory().load(
        pmap::KernelBase, bytes.data(),
        static_cast<uint32_t>(bytes.size()));
}

void
VmsLite::buildScb()
{
    auto set_vec = [&](uint32_t v, VAddr handler, bool istack) {
        physWrite(pmap::Scb + 4 * v, 4, handler | (istack ? 1u : 0u));
    };
    set_vec(vec::MachineCheck, mcheckIsrVa_, true);
    set_vec(vec::Resched, schedIsrVa_, false);
    set_vec(vec::Fork, forkIsrVa_, false);
    set_vec(vec::Terminal, termIsrVa_, true);
    set_vec(vec::Timer, timerIsrVa_, true);
    for (uint32_t i = 0; i < 4; ++i)
        set_vec(vec::Chmk + i, chmkIsrVa_, false);
}

void
VmsLite::installProcess(int pid)
{
    Process &p = procs_[static_cast<size_t>(pid)];
    const ProcessShape *shape = p.isIdle ? nullptr : &p.shape;
    VAddr kbase = vmap::ProcKernelBase +
                  static_cast<uint32_t>(pid) * vmap::ProcKernelStride;
    p.pcbVa = kbase;
    p.kstackTop = kbase + vmap::ProcKernelStride;
    p.quantumLeft = cfg_.quantumTicks;

    PAddr kbase_pa = kbase - vmap::S0Base;

    VAddr entry;
    uint32_t user_psl;
    PAddr p0tbl_pa = 0;
    uint32_t p0lr = 0;
    VAddr p1br = 0;
    uint32_t p1lr = 0;
    VAddr usp = 0;

    if (shape) {
        // Allocate and map P0 pages; the image is loaded into them at
        // the first pick (materialize()).
        uint32_t pages = shape->p0Pages;
        p0tbl_pa = tableAlloc_;
        tableAlloc_ += 4 * pages;
        tableAlloc_ = (tableAlloc_ + 63u) & ~63u;
        if (tableAlloc_ > pmap::ProcRegion)
            sim_throw(ConfigError, "process page-table region exhausted");
        for (uint32_t vpn = 0; vpn < pages; ++vpn) {
            uint32_t pfn = (procAlloc_ >> PageShift) + vpn;
            physWrite(p0tbl_pa + 4 * vpn, 4, pte::make(pfn));
        }
        p.frames = {procAlloc_, pages};
        procAlloc_ += pages * PageBytes;

        // The user stack lives at the top of the P1 (control) region,
        // as under VMS. The P1 page table is indexed so that P1BR
        // points at the (virtual) PTE for VPN 0; only the top
        // stack_pages entries exist.
        const uint32_t stack_pages = shape->p1StackPages;
        const uint32_t first_vpn = (1u << 21) - stack_pages;
        PAddr p1tbl_pa = tableAlloc_;
        tableAlloc_ += 4 * stack_pages;
        tableAlloc_ = (tableAlloc_ + 63u) & ~63u;
        for (uint32_t i = 0; i < stack_pages; ++i) {
            uint32_t pfn = (procAlloc_ >> PageShift) + i;
            physWrite(p1tbl_pa + 4 * i, 4, pte::make(pfn));
        }
        procAlloc_ += stack_pages * PageBytes;
        if (procAlloc_ >= machine_.memsys().memory().size())
            sim_throw(ConfigError, "physical memory exhausted by process images");
        p1br = vmap::sysVa(p1tbl_pa) - 4 * first_vpn;
        p1lr = first_vpn;

        p0lr = pages;
        entry = 0;  // patched by materialize()
        usp = 0x80000000u;  // top of P1; first push at 0x7FFFFFFC
        user_psl = 3u << psl::CurModeShift;  // user mode, IPL 0
    } else {
        entry = idleVa_;
        user_psl = 0;  // kernel mode, IPL 0 (interruptible idle loop)
        usp = 0;
    }

    // Seed the kernel stack with the frame the first REI pops.
    VAddr ksp = p.kstackTop - 8;
    physWrite(ksp - vmap::S0Base, 4, entry);
    physWrite(ksp - vmap::S0Base + 4, 4, user_psl);

    // Initialize the PCB.
    PAddr pcb_pa = kbase_pa;
    for (uint32_t i = 0; i < pcb::NumWords; ++i)
        physWrite(pcb_pa + 4 * i, 4, 0);
    physWrite(pcb_pa + 4 * pcb::Sp, 4, ksp);
    physWrite(pcb_pa + 4 * pcb::Pc, 4, schedResumeVa_);
    physWrite(pcb_pa + 4 * pcb::Psl, 4, 3u << psl::IplShift);
    physWrite(pcb_pa + 4 * pcb::P0br, 4,
              shape ? vmap::sysVa(p0tbl_pa) : 0);
    physWrite(pcb_pa + 4 * pcb::P0lr, 4, p0lr);
    physWrite(pcb_pa + 4 * pcb::P1br, 4, p1br);
    physWrite(pcb_pa + 4 * pcb::P1lr, 4, p1lr);
    physWrite(pcb_pa + 4 * pcb::Usp, 4, usp);
}

void
VmsLite::materialize(int pid)
{
    Process &p = procs_[static_cast<size_t>(pid)];
    const ProcessShape &want = p.shape;
    const ProcessImage image = p.materialize();
    if (image.p0Pages != want.p0Pages ||
        image.p1StackPages != want.p1StackPages ||
        image.thinkMeanCycles != want.thinkMeanCycles) {
        sim_throw(ConfigError,
                  "pid %d: image shape (%u P0 pages, %u P1 pages, think "
                  "%g) differs from its registered shape (%u, %u, %g)",
                  pid, image.p0Pages, image.p1StackPages,
                  image.thinkMeanCycles, want.p0Pages, want.p1StackPages,
                  want.thinkMeanCycles);
    }
    if (image.p0Image.size() > uint64_t{want.p0Pages} * PageBytes)
        sim_throw(ConfigError, "process image larger than its P0 region");

    // The cache holds tags only (memory is always current) and nothing
    // has referenced these frames yet, so a direct load here changes
    // no timing state. The kernel-stack frame seeded at boot is first
    // popped after this pick.
    machine_.memsys().memory().load(
        p.frames.base, image.p0Image.data(),
        static_cast<uint32_t>(image.p0Image.size()));
    physWrite(p.kstackTop - 8 - vmap::S0Base, 4, image.entry);
    p.materialized = true;
}

void
VmsLite::boot()
{
    if (booted_)
        sim_throw(ConfigError, "double boot");
    if (procs_.size() < 2)
        sim_throw(ConfigError, "boot with no processes");
    booted_ = true;

    buildSystemMap();
    buildKernelCode();
    buildScb();

    for (size_t pid = 0; pid < procs_.size(); ++pid)
        installProcess(static_cast<int>(pid));

    machine_.addDevice(timer_.get());
    machine_.addDevice(terminal_.get());

    cpu::Ebox &e = machine_.ebox();
    e.setOsAssist([this](cpu::Ebox &ebox) { assist(ebox); });
    e.writePr(mmu::pr::SBR, pmap::SysPageTable);
    e.writePr(mmu::pr::SLR, pmap::SysMappedBytes / PageBytes);
    e.writePr(mmu::pr::SCBB, pmap::Scb);
    e.writePr(mmu::pr::ISP, vmap::IStackTop);
    e.setPsl(31u << psl::IplShift);  // kernel, interrupts blocked
    e.gpr(reg::SP) = vmap::BootStackTop;
    e.writePr(mmu::pr::MAPEN, 1);
    e.reset(bootVa_, true);
    e.setPsl(31u << psl::IplShift);
}

bool
VmsLite::anyRunnableProcess() const
{
    for (size_t i = 1; i < procs_.size(); ++i)
        if (procs_[i].state == Process::State::Runnable)
            return true;
    return false;
}

OsStats
VmsLite::stats() const
{
    const obs::CounterRegistry &c = machine_.counters();
    OsStats s = stats_;
    s.contextSwitches = c.total(obs::Ev::OsContextSwitches);
    s.reschedRequests = c.total(obs::Ev::OsReschedRequests);
    s.syscalls = c.total(obs::Ev::OsSyscalls);
    return s;
}

void
VmsLite::requestResched(cpu::Ebox &ebox)
{
    ebox.backdoorWrite(kdata::ReschedFlag, 4, 1);
    machine_.counters().bump(obs::Ev::OsReschedRequests);
}

void
VmsLite::assist(cpu::Ebox &ebox)
{
    switch (ebox.gpr(0)) {
      case assist::PickFirst:
        pickNext(ebox, true);
        return;
      case assist::PickNext:
        pickNext(ebox, false);
        return;
      case assist::TimerTick:
        onTimerTick(ebox);
        return;
      case assist::TermEvent:
        onTermEvent(ebox);
        return;
      case assist::Syscall:
        onSyscall(ebox, ebox.gpr(1));
        return;
      case assist::MachineCheck:
        onMachineCheck(ebox, ebox.gpr(1));
        return;
      case assist::ForkWork:
        // Fork processing is bookkeeping only in this model.
        return;
      default:
        sim_throw(GuestError, "XFC with unknown assist function %u", ebox.gpr(0));
    }
}

void
VmsLite::pickNext(cpu::Ebox &ebox, bool first)
{
    if (!first) {
        // Point the outgoing context at the common resume code.
        ebox.backdoorWrite(procs_[current_].pcbVa + 4 * pcb::Pc, 4,
                           schedResumeVa_);
        machine_.counters().bump(obs::Ev::OsContextSwitches);
    }

    // Round-robin over runnable processes; the Null process runs when
    // nothing else can.
    int next = 0;
    size_t n = procs_.size();
    for (size_t k = 0; k < n - 1; ++k) {
        unsigned cand = 1 + static_cast<unsigned>(
            (rr_ - 1 + k) % (n - 1));
        if (procs_[cand].state == Process::State::Runnable) {
            next = static_cast<int>(cand);
            rr_ = cand + 1;
            if (rr_ >= n)
                rr_ = 1;
            break;
        }
    }

    if (!procs_[next].materialized)
        materialize(next);

    current_ = next;
    procs_[next].quantumLeft = cfg_.quantumTicks;
    if (obs::EventTracer *t = machine_.tracer(); t && !first) {
        t->emit(obs::Cat::Os, obs::Code::CtxSwitch, machine_.cycles(),
                static_cast<uint64_t>(next), procs_[next].isIdle ? 1 : 0);
    }
    ebox.writePr(mmu::pr::PCBB, procs_[next].pcbVa);
    if (switchHook_)
        switchHook_(next, procs_[next].isIdle);
}

void
VmsLite::onTimerTick(cpu::Ebox &ebox)
{
    // Post fork-level work (I/O completion processing) on a fraction
    // of ticks, as a live VMS system does continuously.
    if (++tickCount_ % 4 == 0) {
        ebox.backdoorWrite(kdata::ForkFlag, 4, 1);
        ++stats_.forkRequests;
    }

    Process &cur = procs_[current_];
    if (cur.isIdle) {
        if (anyRunnableProcess())
            requestResched(ebox);
        return;
    }
    if (cur.quantumLeft > 0)
        --cur.quantumLeft;
    if (cur.quantumLeft == 0 && anyRunnableProcess())
        requestResched(ebox);
}

void
VmsLite::onTermEvent(cpu::Ebox &ebox)
{
    machine_.syncDevices();
    auto pids = terminal_->drainDue();
    bool woke = false;
    for (int pid : pids) {
        // A process killed by an uncorrectable machine check stays
        // dead: terminal input due to it is discarded.
        if (procs_[pid].state != Process::State::Blocked)
            continue;
        procs_[pid].state = Process::State::Runnable;
        woke = true;
    }
    if (woke && (procs_[current_].isIdle ||
                 procs_[current_].quantumLeft == 0)) {
        requestResched(ebox);
    }
}

void
VmsLite::onSyscall(cpu::Ebox &ebox, uint32_t code)
{
    machine_.counters().bump(obs::Ev::OsSyscalls);
    if (obs::EventTracer *t = machine_.tracer()) {
        t->emit(obs::Cat::Os, obs::Code::Syscall, machine_.cycles(), code,
                static_cast<uint32_t>(current_));
    }
    Process &cur = procs_[current_];
    switch (code) {
      case sys::TermWait: {
        cur.state = Process::State::Blocked;
        // Sample an exponential think time.
        double u = rng_.uniform();
        double think = -cur.thinkMean * std::log1p(-u);
        if (think < 1000.0)
            think = 1000.0;
        terminal_->scheduleInput(
            machine_.cycles() + static_cast<uint64_t>(think), current_);
        requestResched(ebox);
        return;
      }
      case sys::TermWrite:
        ++stats_.termWrites;
        return;
      case sys::GetTime:
        // The service gate saved R0-R5 with PUSHR before the assist
        // runs and restores them with POPR afterwards, so the return
        // value must be planted in the *saved* R1 slot (SP+4: PUSHR
        // pushes descending, leaving R0 at the top of the stack).
        ebox.backdoorWrite(ebox.gpr(arch::reg::SP) + 4, 4,
                           static_cast<uint32_t>(machine_.cycles()));
        return;
      case sys::Yield:
        requestResched(ebox);
        return;
      default:
        sim_throw(GuestError, "unknown system service %u", code);
    }
}

void
VmsLite::onMachineCheck(cpu::Ebox &ebox, uint32_t code)
{
    if (!fault::isMcheckCode(code))
        sim_throw(GuestError, "machine check with bad code 0x%08x", code);
    fault::FaultKind kind = fault::mcheckKind(code);
    bool corrected = fault::faultCorrectable(kind);
    ++stats_.machineChecks;
    if (errorLog_.size() < MaxErrorLogEntries)
        errorLog_.push_back({machine_.cycles(), current_, kind, corrected});

    if (corrected) {
        // The hardware corrected (ECC) or retried (SBI, parity) the
        // operation; the REI resumes the interrupted process with no
        // architectural damage.
        ++stats_.faultsCorrected;
        return;
    }

    // Uncorrectable: VMS policy is to terminate the afflicted process,
    // never the system. A fault caught in system/idle context is
    // logged only — the Null process has no state worth preserving.
    Process &cur = procs_[current_];
    if (!cur.isIdle && cur.state != Process::State::Terminated) {
        cur.state = Process::State::Terminated;
        ++stats_.processesTerminated;
        requestResched(ebox);
    }
}

size_t
VmsLite::liveUserProcesses() const
{
    size_t n = 0;
    for (size_t i = 1; i < procs_.size(); ++i)
        if (procs_[i].state != Process::State::Terminated)
            ++n;
    return n;
}

std::vector<int>
VmsLite::materializedPids() const
{
    std::vector<int> pids;
    for (size_t i = 1; i < procs_.size(); ++i)
        if (procs_[i].materialized)
            pids.push_back(static_cast<int>(i));
    return pids;
}

VmsLite::Frames
VmsLite::p0Frames(int pid) const
{
    if (pid < 1 || static_cast<size_t>(pid) >= procs_.size())
        sim_throw(ConfigError, "no user process %d", pid);
    return procs_[static_cast<size_t>(pid)].frames;
}

// --------------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------------

template <class Self, class Ar>
void
IntervalTimer::walk(Self &s, Ar &ar)
{
    ar.u64(s.nextAt_);
    ar.b(s.pending_);
    ar.counter(s.interrupts_);
}

namespace
{

/**
 * Access the protected container of a priority_queue. The terminal
 * queue's comparator orders only by time, so same-cycle events for
 * different pids pop in heap-array order; a drain-and-reinsert round
 * trip could legally reorder them. Serializing the heap array verbatim
 * keeps the restored queue *identical*, not merely equivalent.
 */
template <class PQ>
struct PqAccess : PQ
{
    /** @p q's heap array, const when @p q is. */
    template <class Q>
    static auto &
    container(Q &q)
    {
        return q.*&PqAccess::c;
    }
};

} // namespace

template <class Self, class Ar>
void
RteTerminal::walk(Self &s, Ar &ar, size_t processes)
{
    auto &events = PqAccess<decltype(queue_)>::container(s.queue_);
    ar.vec32(events, 1 << 20, [&](auto &e) {
        ar.u64(e.at);
        ar.below(e.pid, processes, "terminal event pid");
    });
    ar.u64(s.now_);
    ar.b(s.inService_);
    ar.counter(s.interrupts_);
}

template <class Self, class Ar>
void
VmsLite::walk(Self &s, Ar &ar)
{
    ar.rng(s.rng_);
    ar.sameCount32(s.procs_.size(), "kernel process count");
    for (auto &p : s.procs_) {
        ar.enum8(p.state, Process::State::Terminated,
                 "kernel process state");
        ar.b(p.isIdle);
        ar.b(p.materialized);
        ar.u32(p.pcbVa);
        ar.u32(p.kstackTop);
        ar.u32(p.quantumLeft);
        ar.f64(p.thinkMean);
    }
    ar.below(s.current_, s.procs_.size(), "kernel current pid");
    ar.u32(s.rr_);
    ar.u64(s.tickCount_);
    // The kernel's own counts: the registry's section holds the rest.
    ar.u64(s.stats_.forkRequests);
    ar.u64(s.stats_.termWrites);
    ar.u64(s.stats_.machineChecks);
    ar.u64(s.stats_.faultsCorrected);
    ar.u64(s.stats_.processesTerminated);
    ar.vec32(s.errorLog_, MaxErrorLogEntries,
             [&](auto &e) { ErrorLogEntry::walk(e, ar); });
    IntervalTimer::walk(*s.timer_, ar);
    RteTerminal::walk(*s.terminal_, ar, s.procs_.size());
}

void
VmsLite::serialize(ByteWriter &w) const
{
    if (!booted_)
        sim_throw(SnapshotError, "cannot checkpoint an unbooted kernel");
    walk(*this, w);
}

void
VmsLite::deserialize(ByteReader &r)
{
    if (!booted_)
        sim_throw(SnapshotError, "cannot restore into an unbooted kernel");
    walk(*this, r);
    machine_.devicesChanged();
}

} // namespace upc780::os
