/**
 * @file
 * Simulation watchdog: a passive cycle probe that detects a wedged
 * machine — no forward progress (no instruction decodes) over a long
 * interval, or an implausibly long read/write stall — and produces a
 * structured diagnostic dump (current UPC and row, stall state, and
 * the last N control-store addresses) so a livelock is a bounded,
 * explained failure instead of a silent infinite loop.
 *
 * The watchdog observes exactly what the UPC board observes, so it
 * can never perturb a measurement.
 */

#ifndef UPC780_SIM_WATCHDOG_HH
#define UPC780_SIM_WATCHDOG_HH

#include <array>
#include <cstdint>
#include <string>

#include "cpu/vax780.hh"
#include "ucode/controlstore.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::sim
{

/**
 * Forward-progress monitor for simulation runs. Final, with the probe
 * calls inline, so WorkloadRun fuses it into Vax780::runBatch as a
 * fixed probe and calls them directly.
 */
class Watchdog final : public cpu::CycleProbe
{
  public:
    /** Ring-buffer depth of the diagnostic UPC trace. */
    static constexpr uint32_t TraceDepth = 32;

    /**
     * @param image the microprogram (for the decode landmark and row
     *              names in diagnostics)
     * @param interval_cycles cycles without a decode before the run is
     *        declared stuck; must comfortably exceed the longest idle
     *        period a healthy run can have (terminal think times)
     * @param max_stall_run consecutive stalled cycles before the
     *        memory path is declared wedged
     */
    explicit Watchdog(const ucode::MicrocodeImage &image,
                      uint64_t interval_cycles = 2000000,
                      uint64_t max_stall_run = 100000);

    // ----- passive probe ---------------------------------------------------
    void
    cycle(ucode::UAddr upc, bool stalled) override
    {
        cycles(upc, stalled, 1);
    }

    /**
     * n cycles at @p upc: the counts grow by n, and the trace ring
     * ends as n samples would leave it (its last min(n, TraceDepth)
     * slots hold the sample).
     */
    void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n) override
    {
        cycles_ += n;
        const uint64_t k = n < TraceDepth ? n : TraceDepth;
        for (uint64_t i = n - k; i < n; ++i)
            trace_[(traceHead_ + i) % TraceDepth] = {upc, stalled};
        traceHead_ = static_cast<uint32_t>((traceHead_ + n) % TraceDepth);
        if (stalled) {
            stallStreak_ += n;
            return;
        }
        stallStreak_ = 0;
        lastCommittedUpc_ = upc;
        if (upc == img_.marks.decode) {
            decodes_ += n;
            cyclesAtLastDecode_ = cycles_;
        }
    }

    /**
     * Poll for a stuck condition. Call periodically (each tick is
     * fine; the check is O(1)).
     * @retval true if the machine has made no forward progress for a
     *         full interval or has been stalled implausibly long.
     */
    bool expired() const;

    /** Cycles observed so far. */
    uint64_t cycles() const { return cycles_; }

    /** Instruction decodes observed so far. */
    uint64_t decodes() const { return decodes_; }

    /** Last non-stalled control-store address committed. */
    ucode::UAddr lastCommittedUpc() const { return lastCommittedUpc_; }

    /**
     * Record that a checkpoint exists at machine cycle @p cycle, so a
     * trip's diagnostic can tell the operator where a retry would
     * resume from.
     */
    void noteCheckpoint(uint64_t cycle) { checkpointCycle_ = cycle; }

    /** Nearest (latest) known checkpoint cycle; NoCheckpoint if none. */
    static constexpr uint64_t NoCheckpoint = ~uint64_t{0};
    uint64_t nearestCheckpointCycle() const { return checkpointCycle_; }

    /**
     * Multi-line diagnostic dump of the wedged machine: progress
     * counters, stall state, and the trailing control-store trace with
     * activity-row labels.
     */
    std::string diagnostic() const;

    /** Checkpoint progress counters and the diagnostic trace ring. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    struct Sample
    {
        ucode::UAddr upc = 0;
        bool stalled = false;
    };

    const ucode::MicrocodeImage &img_;
    uint64_t interval_;
    uint64_t maxStallRun_;

    uint64_t cycles_ = 0;
    uint64_t decodes_ = 0;
    uint64_t cyclesAtLastDecode_ = 0;
    uint64_t stallStreak_ = 0;
    ucode::UAddr lastCommittedUpc_ = 0;

    std::array<Sample, TraceDepth> trace_{};
    uint32_t traceHead_ = 0;

    /** Runtime bookkeeping from the harness, not serialized. */
    uint64_t checkpointCycle_ = NoCheckpoint;
};

} // namespace upc780::sim

#endif // UPC780_SIM_WATCHDOG_HH
