/**
 * @file
 * One workload run as an object: the machine, kernel, instruments and
 * harness loop state that ExperimentRunner::runWorkload used to hold
 * in local variables, lifted into a class so the whole ensemble can be
 * checkpointed mid-run and resumed bit-exactly.
 *
 * The determinism contract: constructing a WorkloadRun from a given
 * (config, profile) pair always builds and boots the identical
 * machine — construction is deterministic and consumes no wall-clock
 * randomness — so a checkpoint only needs to carry the *mutable* state
 * (see the per-component serialize() methods). restore() overwrites
 * that state from a snapshot and run() continues from wherever the
 * snapshot was taken; both loops' continuation conditions (instructions
 * retired, decode-bucket count) are themselves restored state, so a
 * resumed run retraces the uninterrupted run cycle for cycle. The
 * snap-labeled tests pin this down to the byte: report text, counter
 * snapshots and trace streams from run-to-end and from
 * save/restore/run-to-end must be identical.
 *
 * The run loop's per-iteration preamble (loopTop) is also where the
 * robustness features hang:
 *  - checkpoint triggers (periodic and explicit cycles),
 *  - the simulated-crash chaos knob (a deterministic WatchdogError for
 *    the retry tests),
 *  - cycle-scheduled machine-check delivery (FaultConfig::
 *    cycleInjections), which makes replay-from-snapshot fault studies
 *    possible: checkpoint once, then re-inject at N, N+1, ... without
 *    re-running the prefix.
 */

#ifndef UPC780_SIM_RUN_HH
#define UPC780_SIM_RUN_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "sim/experiment.hh"
#include "sim/watchdog.hh"
#include "snap/snapshot.hh"

namespace upc780::sim
{

/** Fingerprint of everything that shapes a run's trajectory. Excludes
 *  fault cycleInjections and the checkpoint policy (crash knob
 *  included), so one baseline checkpoint serves a replay sweep and a
 *  retry can resume the run that crashed. */
uint64_t configHash(const ExperimentConfig &cfg,
                    const wkl::WorkloadProfile &profile);

/**
 * The static↔dynamic attribution cross-check: hold one run's histogram
 * and counter totals to the attribution matrix derived from @p image
 * alone (ulint::EffectMap). Throws AuditError naming @p workload when
 * any histogram bucket or counter total lands outside its
 * statically-allowed set. Counter equalities are only checked when
 * @p countersEnabled (the run reported its obs window); the
 * histogram membership checks always run. Exposed as a free function
 * so tests can refute deliberately perturbed measurements without
 * driving a whole run.
 */
void auditAttribution(const ucode::MicrocodeImage &image,
                      const upc::Histogram &histogram,
                      const obs::Snapshot &counters, bool countersEnabled,
                      const std::string &workload);

/**
 * The fixed probe set of a workload run: the UPC board and the
 * watchdog, fused into Vax780::runBatch so that both are inline calls
 * every cycle rather than attached virtual probes. Both observe the
 * same (upc, stalled) pair and a stall window as n cycles at once.
 * WorkloadRun::run drives its machine with
 * `machine.runBatch(probes, budget, max_instructions)`.
 */
struct RunProbes
{
    upc::UpcMonitor &monitor;
    Watchdog &watchdog;

    void
    cycle(ucode::UAddr upc, bool stalled)
    {
        monitor.cycle(upc, stalled);
        watchdog.cycle(upc, stalled);
    }

    void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n)
    {
        monitor.cycles(upc, stalled, n);
        watchdog.cycles(upc, stalled, n);
    }
};

/** A single workload measurement, checkpointable and resumable. */
class WorkloadRun
{
  public:
    /**
     * Build and boot the machine for @p profile (identically to the
     * historical runWorkload preamble). @p attempt is the 0-based
     * retry attempt, used by the simulated-crash knob and recorded in
     * checkpoints. Throws LintError, before booting, when ulint flags
     * the machine's microprogram.
     */
    WorkloadRun(const ExperimentConfig &cfg,
                const wkl::WorkloadProfile &profile, uint32_t attempt = 0);

    /**
     * Overwrite the mutable machine/kernel/instrument/harness state
     * from the checkpoint at @p path. Refuses (SnapshotError) a
     * snapshot of the wrong kind, workload, or config hash, or one
     * whose section layout does not match this run's instruments.
     */
    void restore(const std::string &path);

    /**
     * Run (or resume) to completion and return the measurement.
     * Throws like the historical runWorkload; additionally writes
     * checkpoints per the config's CheckpointPolicy. Every run ends
     * with two audits, each an AuditError when it fails: the
     * histogram must sum to the observed cycles, and the measurement
     * must fit the image's static attribution matrix
     * (auditAttribution).
     */
    WorkloadResult run();

    uint64_t configHash() const { return configHash_; }
    const std::string &taskId() const { return taskId_; }

    /** The run's kernel, for inspection. */
    const os::VmsLite &kernel() const { return *vms_; }

    /** Cycle of the newest checkpoint written or restored;
     *  Watchdog::NoCheckpoint if none. */
    uint64_t lastCheckpointCycle() const { return lastCheckpoint_; }

  private:
    enum class Phase : uint8_t
    {
        Warmup = 0,
        Measure = 1,
    };

    /** Per-iteration preamble: checkpoint, chaos crash, injections. */
    void loopTop(const char *where);
    /**
     * Cycle budget for one runBatch call: the distance to the nearest
     * cycle-scheduled trigger (checkpoint, chaos crash, fault
     * injection, liveness probe, the first cycle past the cycle
     * limit), and at most to the next multiple of 4096 cycles, so
     * watchdog/cancel latency stays bounded. Every trigger cycle lands
     * exactly on a loopTop, which keeps batched runs bit-identical to
     * tick()-stepped ones.
     */
    uint64_t batchBudget() const;
    /**
     * Instructions the next runBatch call may retire, given that
     * @p remaining more end the current loop: the batch stops at the
     * retire where the loop condition is next worth re-evaluating.
     */
    uint64_t retireBudget(uint64_t remaining) const;
    void saveCheckpoint();
    void beginMeasurement();
    void checkStuck(const char *where);
    /** The "runner" section field list, both directions. */
    template <class Self, class Ar>
    static void walkRunner(Self &s, Ar &ar);

    const ExperimentConfig &cfg_;
    wkl::WorkloadProfile profile_;
    uint32_t attempt_;
    uint64_t configHash_;
    std::string taskId_;

    // Instruments and machine, in the historical construction order.
    // The counters are the machine's (machine_->counters()).
    std::unique_ptr<obs::EventTracer> tracer_;
    obs::HostProfile host_;
    std::unique_ptr<cpu::Vax780> machine_;
    std::unique_ptr<os::VmsLite> vms_;
    std::unique_ptr<cpu::InstrTracer> instrEvents_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<upc::UpcMonitor> monitor_;
    std::unique_ptr<Watchdog> watchdog_;

    ucode::UAddr decodeAddr_ = 0;
    uint64_t cycleCap_ = 0;

    // Harness loop state (the "runner" checkpoint section).
    Phase phase_ = Phase::Warmup;
    bool measuring_ = false;
    bool inIdle_ = false;
    HwCounters before_;
    uint64_t cyclesAtStart_ = 0;
    uint64_t livenessCheckAt_ = 0;

    // Checkpoint / injection schedules. Derived from config and the
    // machine clock, never serialized: restore() recomputes them, so a
    // baseline checkpoint works under a different injection list (the
    // replay sweep) or checkpoint cadence.
    std::vector<uint64_t> atCycles_;
    size_t atIdx_ = 0;
    uint64_t periodicNext_ = 0;
    std::vector<fault::CycleInjection> injections_;
    size_t injectIdx_ = 0;

    uint64_t lastCheckpoint_ = Watchdog::NoCheckpoint;
    uint64_t resumedFrom_ = 0; //!< cycle restored from; 0 = fresh run
};

/**
 * Run one workload with the config's retry/resume policy:
 *
 *  - resume mode: a completed `<taskId>.result` in the checkpoint
 *    directory is loaded and returned without running anything;
 *    otherwise the newest `<taskId>-c<cycle>.ckpt` (if any) seeds the
 *    first attempt. A file that fails to load (SnapshotError: damage,
 *    another format version) is reported on stderr and in the
 *    manifest and then ignored: an unreadable result is run again,
 *    an unreadable checkpoint means starting from cycle 0.
 *  - a WatchdogError (wall-clock cancellation, livelock, or the
 *    simulated-crash knob) triggers a retry from the newest
 *    checkpoint, up to maxRetries, without waiting; the budget
 *    exhausted, the error propagates so the caller records the usual
 *    not-ok partial result.
 *  - any other SimError propagates immediately (deterministic
 *    failures do not improve with retries).
 *
 * On success with checkpointing enabled, the result is persisted as
 * `<taskId>.result` so an interrupted composite can be resumed without
 * re-running completed workloads. With checkpointing disabled this is
 * exactly one plain attempt.
 */
WorkloadResult runWorkloadRecoverable(const ExperimentConfig &cfg,
                                      const wkl::WorkloadProfile &profile);

/** Persist a completed result (snapshot kind Result). */
void saveResultFile(const std::string &path, const WorkloadResult &r,
                    uint64_t configHash);

/** Load a persisted result, refusing a config-hash mismatch. */
WorkloadResult loadResultFile(const std::string &path,
                              uint64_t expectHash);

} // namespace upc780::sim

#endif // UPC780_SIM_RUN_HH
