/**
 * @file
 * Experiment harness: builds a machine + VMS-lite + a workload's user
 * population, attaches the UPC monitor (and reads the cache-study
 * hardware counters from the obs registry), runs a measurement
 * interval, and collects the results. The composite runner reproduces
 * the paper's methodology: five one-interval experiments whose
 * histograms are summed (§2.2), with the Null process excluded from
 * measurement by gating the monitor across context switches.
 */

#ifndef UPC780_SIM_EXPERIMENT_HH
#define UPC780_SIM_EXPERIMENT_HH

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "cpu/vax780.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"
#include "obs/hostprof.hh"
#include "obs/trace.hh"
#include "os/kernel.hh"
#include "snap/snapshot.hh"
#include "upc/monitor.hh"
#include "workload/profile.hh"

namespace upc780::sim
{

/**
 * Hardware-counter deltas over the measurement interval: a view of the
 * obs registry's running totals (see HwFields), so the window includes
 * the Null process even when the monitor is gated off in it.
 */
struct HwCounters
{
    uint64_t dReads = 0;
    uint64_t dReadMisses = 0;
    uint64_t iReads = 0;
    uint64_t iReadMisses = 0;
    uint64_t writes = 0;
    uint64_t writeStallCycles = 0;
    uint64_t unalignedRefs = 0;
    uint64_t tbDMisses = 0;
    uint64_t tbIMisses = 0;
    uint64_t ibFills = 0;

    void accumulate(const HwCounters &o);
};

/**
 * One HwCounters field: its member, its name on the daemon wire, and
 * the registry event it is a delta of.
 */
struct HwField
{
    uint64_t HwCounters::*member;
    const char *name;
    obs::Ev ev;
};

/**
 * The one HwCounters field list, in checkpoint and wire order. Sums,
 * deltas, the registry reads, the checkpoint and result layouts and
 * the daemon's JSON all iterate it.
 */
inline constexpr std::array<HwField, 10> HwFields = {{
    {&HwCounters::dReads, "d_reads", obs::Ev::CacheDReads},
    {&HwCounters::dReadMisses, "d_read_misses", obs::Ev::CacheDReadMisses},
    {&HwCounters::iReads, "i_reads", obs::Ev::CacheIReads},
    {&HwCounters::iReadMisses, "i_read_misses", obs::Ev::CacheIReadMisses},
    {&HwCounters::writes, "writes", obs::Ev::CacheWrites},
    {&HwCounters::writeStallCycles, "write_stall_cycles",
     obs::Ev::WbStallCycles},
    {&HwCounters::unalignedRefs, "unaligned_refs", obs::Ev::MemUnalignedRefs},
    {&HwCounters::tbDMisses, "tb_d_misses", obs::Ev::TbDMisses},
    {&HwCounters::tbIMisses, "tb_i_misses", obs::Ev::TbIMisses},
    {&HwCounters::ibFills, "ib_fills", obs::Ev::IbFills},
}};
static_assert(sizeof(HwCounters) == HwFields.size() * sizeof(uint64_t),
              "every HwCounters field needs an HwFields entry");

/** Result of one workload measurement. */
struct WorkloadResult
{
    std::string name;
    upc::Histogram histogram;
    uint64_t cycles = 0;        //!< cycles while the monitor ran
    HwCounters hw;
    os::OsStats osStats;
    uint64_t timerInterrupts = 0;
    uint64_t terminalInterrupts = 0;

    /** Injected-fault counters for the whole run (warm-up included). */
    fault::FaultStats faultStats;

    /**
     * Observability: event counters over the measurement interval (the
     * live, second bookkeeping the differential tests check against
     * the histogram), host wall-clock per phase (non-deterministic —
     * never part of an equality check), and the structured event
     * trace for the whole run when tracing was requested.
     */
    obs::Snapshot obs;
    obs::HostProfile host;
    std::vector<obs::TraceEvent> trace;
    /** Error-log entries the machine-check handler recorded. */
    std::vector<os::ErrorLogEntry> errorLog;

    /** False if the run was aborted; @ref error says why. */
    bool ok = true;
    std::string error;

    /** Attempts it took (1 = first try; >1 means watchdog retries). */
    uint32_t attempts = 1;
    /** Checkpoint cycle the final attempt resumed from (0: fresh). */
    uint64_t resumedFromCycle = 0;

    /** Persistable to a `.result` snapshot file (see sim/run.hh). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);
};

/** The five-workload composite. */
struct CompositeResult
{
    upc::Histogram histogram;   //!< bucket-wise sum
    std::vector<WorkloadResult> workloads;
    HwCounters hw;
    os::OsStats osStats;
    fault::FaultStats faultStats;
    obs::Snapshot obs;
    obs::HostProfile host;
    uint64_t timerInterrupts = 0;
    uint64_t terminalInterrupts = 0;

    /**
     * Fold one workload result into the composite: append it to
     * @ref workloads and, when it is ok, merge its histogram and
     * accumulate its counters. This is the single merge path shared by
     * the serial runner and the parallel engine; every accumulation it
     * performs is an order-independent sum, so folding results in
     * workload order yields the same bytes regardless of which thread
     * produced each result, or when.
     */
    void add(WorkloadResult r);

    /** Instructions measured (decode-bucket count). */
    uint64_t instructions() const;

    /** True when every workload completed its measurement. */
    bool allOk() const;
};

/** Experiment configuration. */
struct ExperimentConfig
{
    cpu::MachineConfig machine;
    os::OsConfig os;
    /** Measured instructions per workload. */
    uint64_t instructionsPerWorkload = 400000;
    /** Instructions executed before measurement begins. */
    uint64_t warmupInstructions = 40000;
    /** Exclude the Null process, as the paper does (§2.2). */
    bool excludeIdle = true;

    /**
     * Observability level: the window of obs counters is reported by
     * default (clear `obs.counters` for an all-zero WorkloadResult::obs;
     * the hardware counters are unaffected), tracing defaults off. See
     * obs/counters.hh.
     */
    obs::Config obs;

    /**
     * Fault-injection configuration. With all rates zero and an empty
     * schedule (the default) no injector is attached and the run is
     * bit-identical to one without the fault subsystem.
     */
    fault::FaultConfig fault;

    /**
     * Checkpoint/retry/resume policy (see snap/snapshot.hh). Disabled
     * by default (empty directory); when enabled, runs write periodic
     * machine-state checkpoints, watchdog trips retry from the newest
     * one (runWorkloadRecoverable), and completed workloads persist
     * `.result` files an interrupted composite can resume from.
     * Excluded from the snapshot config hash: the policy changes what
     * the harness does around the machine, never the machine itself.
     */
    snap::CheckpointPolicy checkpoint;

    /**
     * Cooperative cancellation, polled alongside the watchdog (O(1),
     * every tick). The parallel engine points each worker's runs at a
     * per-worker flag so its supervisor can enforce a wall-clock
     * deadline per task instead of one global timeout: a stuck worker
     * aborts its own run with a WatchdogError while the others finish
     * normally. Null (the default) disables the check; it never fires
     * on the success path, so it cannot perturb a measurement.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** Runs workloads under a fixed configuration. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const ExperimentConfig &config)
        : cfg_(config)
    {}

    /**
     * Run one workload and return its measurement. Throws a SimError
     * subclass when the run cannot complete: GuestError (machine
     * halted or every user process was killed), WatchdogError (no
     * forward progress; carries the diagnostic dump), or AuditError
     * (cycle-accounting mismatch).
     */
    WorkloadResult runWorkload(const wkl::WorkloadProfile &profile);

    /**
     * Run several workloads and sum their histograms. A workload that
     * fails with a SimError is recorded as a not-ok stub result (name
     * + error text) and the remaining workloads still run, so a fault
     * campaign always yields partial results.
     */
    CompositeResult
    runComposite(const std::vector<wkl::WorkloadProfile> &profiles);

    const ExperimentConfig &config() const { return cfg_; }

  private:
    ExperimentConfig cfg_;
};

} // namespace upc780::sim

#endif // UPC780_SIM_EXPERIMENT_HH
