/**
 * @file
 * The micro-PC histogram monitor (the paper's measurement instrument).
 *
 * The board attaches passively to the CPU's microsequencer: each
 * machine cycle it observes the current control-store address and
 * whether the EBOX is read/write-stalled, and increments the matching
 * bucket counter. It is commanded over a Unibus-style register
 * interface (start/stop/clear/read), and — as on the real machine —
 * monitoring has no effect whatsoever on program execution
 * (passivity is asserted by tests).
 */

#ifndef UPC780_UPC_MONITOR_HH
#define UPC780_UPC_MONITOR_HH

#include <cstdint>

#include "cpu/vax780.hh"
#include "obs/counters.hh"
#include "upc/histogram.hh"

namespace upc780::upc
{

/**
 * The histogram count board plus its processor-specific interface.
 * Final, with the probe calls inline, so a harness that fuses the
 * board into Vax780::runBatch as a fixed probe calls them directly.
 */
class UpcMonitor final : public cpu::CycleProbe
{
  public:
    UpcMonitor() = default;

    // ----- Unibus command interface ------------------------------------
    /** Begin counting. */
    void start() { running_ = true; }
    /** Stop counting (data retained). */
    void stop() { running_ = false; }
    /** Clear all buckets. */
    void clear() { histogram_.clear(); }

    bool running() const { return running_; }

    /** Read out the histogram memory. */
    const Histogram &histogram() const { return histogram_; }

    /** Cycles observed while running. */
    uint64_t observedCycles() const { return observed_; }

    // ----- passive probe -------------------------------------------------
    void
    cycle(ucode::UAddr upc, bool stalled) override
    {
        cycles(upc, stalled, 1);
    }

    /** n cycles at @p upc: n added to one bucket, as the board does. */
    void
    cycles(ucode::UAddr upc, bool stalled, uint64_t n) override
    {
        if (!running_)
            return;
        observed_ += n;
        // The board's own view of the measurement window, counted into
        // the obs fabric: upc.cycles must equal the histogram's bucket
        // sum (the cycle-accounting audit) and upc.stall_cycles its
        // stall total.
        obs::count(obs::Ev::UpcCycles, n);
        if (stalled) {
            histogram_.bumpStall(upc, n);
            obs::count(obs::Ev::UpcStallCycles, n);
        } else {
            histogram_.bumpCount(upc, n);
        }
    }

    // ----- Unibus register-level facade -----------------------------------
    // The board was programmed with a CSR and a data port; this mirrors
    // that interface for completeness (used by the quickstart example
    // and the monitor unit tests).
    enum class Csr : uint16_t
    {
        Go = 1 << 0,     //!< set: counting enabled
        Clear = 1 << 1,  //!< write 1: clear buckets (self-resetting)
    };

    void writeCsr(uint16_t v);
    uint16_t readCsr() const;

    /** Select the bucket addressed by the data port. */
    void writeAddressPort(uint16_t bucket) { addrPort_ = bucket; }

    /** Read the selected bucket (lo longword = count, hi = stalls). */
    uint64_t readDataPort(bool stall_bank) const;

    /** Checkpoint histogram memory + board registers. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    Histogram histogram_;
    bool running_ = false;
    uint64_t observed_ = 0;
    uint16_t addrPort_ = 0;
};

} // namespace upc780::upc

#endif // UPC780_UPC_MONITOR_HH
