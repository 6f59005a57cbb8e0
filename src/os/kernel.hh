/**
 * @file
 * VMS-lite: the multiprogramming substrate the measurement runs on.
 *
 * The kernel is real VAX code (assembled at build time into system
 * space) for everything on the instruction-execution path — interrupt
 * service routines, the rescheduling software interrupt, the CHMK
 * system-service gate, SVPCTX/LDPCTX context switching, and the Null
 * (idle) process — so that operating-system execution contributes to
 * the measurements exactly as the paper insists it must (§1).
 * Policy decisions (run-queue choice, think-time sampling, terminal
 * event generation) live behind the XFC escape, playing the role of
 * the machine-specific RTE scripts and VMS data structures.
 */

#ifndef UPC780_OS_KERNEL_HH
#define UPC780_OS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "cpu/vax780.hh"
#include "fault/fault.hh"
#include "os/devices.hh"
#include "os/layout.hh"

namespace upc780::os
{

/** Kernel configuration. */
struct OsConfig
{
    /** Interval-clock period in cycles (real 780: 10 ms; scaled). */
    uint64_t timerPeriodCycles = 7000;
    /** Scheduler quantum in clock ticks. */
    uint32_t quantumTicks = 10;
    uint64_t seed = 0x05;
};

/**
 * What boot() needs of a process before its image exists: the frames
 * to map and the think time its terminal user takes.
 */
struct ProcessShape
{
    uint32_t p0Pages = 64;         //!< total mapped P0 pages
    uint32_t p1StackPages = 8;     //!< user stack pages at top of P1
    double thinkMeanCycles = 150000;  //!< terminal think time
};

/** A process to load: its shape plus the P0 image and entry point. */
struct ProcessImage : ProcessShape
{
    std::vector<uint8_t> p0Image;  //!< loaded at P0 VA 0
    arch::VAddr entry = 0;
};

/**
 * Produces a process's image. VmsLite calls it at the process's first
 * dispatch, the way VMS activates an image when it first runs.
 */
using Materializer = std::function<ProcessImage()>;

/** Kernel statistics (cross-checks for Table 7). */
struct OsStats
{
    uint64_t contextSwitches = 0;
    uint64_t reschedRequests = 0;  //!< resched software interrupts
    uint64_t forkRequests = 0;     //!< fork-level software interrupts
    uint64_t syscalls = 0;
    uint64_t termWrites = 0;

    // Machine-check recovery (paper's machines rode through these).
    uint64_t machineChecks = 0;        //!< SCB vector 1 deliveries handled
    uint64_t faultsCorrected = 0;      //!< correctable: logged and resumed
    uint64_t processesTerminated = 0;  //!< uncorrectable: process killed

    uint64_t
    softIntRequests() const
    {
        return reschedRequests + forkRequests;
    }

    /**
     * Field-wise sum (composite construction). Associative and
     * commutative like Histogram::merge, so the parallel engine's
     * merge order cannot affect the composite.
     */
    void
    accumulate(const OsStats &o)
    {
        contextSwitches += o.contextSwitches;
        reschedRequests += o.reschedRequests;
        forkRequests += o.forkRequests;
        syscalls += o.syscalls;
        termWrites += o.termWrites;
        machineChecks += o.machineChecks;
        faultsCorrected += o.faultsCorrected;
        processesTerminated += o.processesTerminated;
    }

    /** Checkpoint field list (common/serial.hh): results. */
    template <class Self, class Ar>
    static void
    walk(Self &s, Ar &ar)
    {
        ar.u64(s.contextSwitches);
        ar.u64(s.reschedRequests);
        ar.u64(s.forkRequests);
        ar.u64(s.syscalls);
        ar.u64(s.termWrites);
        ar.u64(s.machineChecks);
        ar.u64(s.faultsCorrected);
        ar.u64(s.processesTerminated);
    }
};

/** One VMS-style error-log entry written by the machine-check handler. */
struct ErrorLogEntry
{
    uint64_t cycle = 0;            //!< machine cycle of the handler run
    int pid = 0;                   //!< process scheduled at the time
    fault::FaultKind kind = fault::FaultKind::MemEccSingle;
    bool corrected = true;

    /** Checkpoint field list (common/serial.hh): kernel and results. */
    template <class Self, class Ar>
    static void
    walk(Self &e, Ar &ar)
    {
        ar.u64(e.cycle);
        ar.i32(e.pid);
        ar.enum8(e.kind,
                 static_cast<fault::FaultKind>(fault::NumFaultKinds - 1),
                 "error-log fault kind");
        ar.b(e.corrected);
    }
};

/** The VMS-lite kernel. */
class VmsLite
{
  public:
    VmsLite(cpu::Vax780 &machine, const OsConfig &config = OsConfig{});

    /**
     * Register a process before boot(); returns its pid (>= 1).
     * boot() maps frames for @p shape; @p materialize runs when the
     * pid is first picked, and its image is loaded into those frames.
     * An image whose shape differs from @p shape is a ConfigError.
     */
    int addProcess(const ProcessShape &shape, Materializer materialize);

    /** Register a ready-made image (it is still loaded at first pick). */
    int addProcess(ProcessImage image);

    /**
     * Lay out memory, assemble the kernel, install devices, enable
     * mapping and start the machine in the first process.
     */
    void boot();

    /** Currently scheduled pid (0 = the Null process). */
    int currentPid() const { return current_; }

    bool idleScheduled() const { return current_ == 0; }

    /** Hook invoked on every context switch: (pid, is_idle). */
    void
    setSwitchHook(std::function<void(int, bool)> fn)
    {
        switchHook_ = std::move(fn);
    }

    /** Own counts, plus the registry's os.* totals for the other three. */
    OsStats stats() const;
    IntervalTimer &timer() { return *timer_; }
    RteTerminal &terminal() { return *terminal_; }
    const RteTerminal &terminal() const { return *terminal_; }
    size_t numProcesses() const { return procs_.size(); }

    /** Error-log entries recorded by the machine-check handler. */
    const std::vector<ErrorLogEntry> &errorLog() const { return errorLog_; }

    /** User processes not yet killed by an uncorrectable fault. */
    size_t liveUserProcesses() const;

    /** User pids whose image has been loaded, ascending. */
    std::vector<int> materializedPids() const;

    /** The physical frames boot() reserved for a pid's P0 image. */
    struct Frames
    {
        arch::PAddr base = 0;
        uint32_t pages = 0;
    };
    Frames p0Frames(int pid) const;

    /**
     * Checkpoint the kernel's mutable state: scheduler, process
     * states and which of them are materialized, statistics, error
     * log, RNG and both devices. The kernel code, SCB, label addresses
     * and the frame and page-table layout are rebuilt identically by
     * boot() from the process shapes and are not serialized; both
     * sides of a save/restore must therefore be booted with the same
     * processes, which the config hash guarantees. A materialized
     * process's image lives in the machine's memory section (and may
     * have been written since); it is never generated again after a
     * restore. The others materialize at their first pick.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    struct Process
    {
        enum class State : uint8_t { Runnable, Blocked, Terminated };
        State state = State::Runnable;
        bool isIdle = false;
        bool materialized = false;  //!< image loaded (idle: always)
        arch::VAddr pcbVa = 0;
        arch::VAddr kstackTop = 0;
        uint32_t quantumLeft = 0;
        double thinkMean = 0;

        // Registration; boot() derives the layout from it, so none of
        // it is checkpointed.
        ProcessShape shape;
        Materializer materialize;
        Frames frames;  //!< set by installProcess
    };

    void buildSystemMap();
    void buildKernelCode();
    void buildScb();
    /** Map frames, page tables, PCB and kernel stack for @p pid. */
    void installProcess(int pid);
    /** Generate, check and load @p pid's image; patch its entry PC. */
    void materialize(int pid);

    /** Direct physical write helper for pre-boot setup. */
    void physWrite(arch::PAddr pa, uint32_t n, uint64_t v);

    void assist(cpu::Ebox &ebox);
    void pickNext(cpu::Ebox &ebox, bool first);
    void onTimerTick(cpu::Ebox &ebox);
    void onTermEvent(cpu::Ebox &ebox);
    void onSyscall(cpu::Ebox &ebox, uint32_t code);
    void onMachineCheck(cpu::Ebox &ebox, uint32_t code);
    void requestResched(cpu::Ebox &ebox);

    bool anyRunnableProcess() const;

    cpu::Vax780 &machine_;
    OsConfig cfg_;
    upc780::Rng rng_;

    std::vector<Process> procs_;  //!< index 0 is the Null process
    int current_ = 0;
    unsigned rr_ = 1;  //!< round-robin pointer

    std::unique_ptr<IntervalTimer> timer_;
    std::unique_ptr<RteTerminal> terminal_;

    // Kernel label addresses (resolved during assembly).
    arch::VAddr bootVa_ = 0;
    arch::VAddr schedResumeVa_ = 0;
    arch::VAddr timerIsrVa_ = 0;
    arch::VAddr termIsrVa_ = 0;
    arch::VAddr schedIsrVa_ = 0;
    arch::VAddr forkIsrVa_ = 0;
    arch::VAddr chmkIsrVa_ = 0;
    arch::VAddr mcheckIsrVa_ = 0;
    arch::VAddr idleVa_ = 0;

    arch::PAddr procAlloc_ = pmap::ProcRegion;
    arch::PAddr tableAlloc_ = pmap::TableRegion;
    uint64_t tickCount_ = 0;

    /** Own counts; the three registry-held fields stay 0 (stats()). */
    OsStats stats_;
    std::vector<ErrorLogEntry> errorLog_;
    /** Error-log cap, matching VMS's bounded ERRLOG buffers. */
    static constexpr size_t MaxErrorLogEntries = 4096;
    std::function<void(int, bool)> switchHook_;
    bool booted_ = false;
};

} // namespace upc780::os

#endif // UPC780_OS_KERNEL_HH
