/**
 * @file
 * The raw micro-PC histogram: one bucket per control-store location,
 * each with two counters — executions and read/write-stalled cycles —
 * exactly the data the paper's hardware board collected (§2.2, §4.3).
 */

#ifndef UPC780_UPC_HISTOGRAM_HH
#define UPC780_UPC_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <string>

#include "ucode/uop.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::upc
{

using ucode::UAddr;

/** The histogram memory of the UPC board. */
class Histogram
{
  public:
    static constexpr uint32_t NumBuckets = ucode::ControlStoreSize;

    void
    clear()
    {
        counts_.fill(0);
        stalls_.fill(0);
    }

    void bumpCount(UAddr a, uint64_t n = 1) { counts_[a] += n; }
    void bumpStall(UAddr a, uint64_t n = 1) { stalls_[a] += n; }

    uint64_t count(UAddr a) const { return counts_[a]; }
    uint64_t stall(UAddr a) const { return stalls_[a]; }

    /** Sum of all execution counts. */
    uint64_t totalCounts() const;

    /** Sum of all stalled-cycle counts. */
    uint64_t totalStalls() const;

    /** Total cycles observed (executions + stalls). */
    uint64_t totalCycles() const { return totalCounts() + totalStalls(); }

    /**
     * Merge another board's memory into this one, bucket-wise — the
     * paper's composite construction (§2.2: five experiments' UPC
     * histograms summed). Because every bucket is an independent
     * unsigned add, merge is associative and commutative: the parallel
     * experiment engine relies on this to guarantee that a composite
     * assembled from worker threads in any completion order is
     * bit-identical to the serial run.
     */
    void merge(const Histogram &other);

    /** Historical name for @ref merge. */
    void accumulate(const Histogram &other) { merge(other); }

    /** Exact bucket-wise equality (determinism tests). */
    bool operator==(const Histogram &other) const = default;

    /**
     * Save to / load from a simple text format ("addr count stalls"
     * per nonzero bucket) — the offline data-reduction workflow of the
     * paper, where the board was read out and analyzed later.
     * @retval false on I/O or format errors.
     */
    bool saveTo(const std::string &path) const;
    bool loadFrom(const std::string &path);

    /**
     * Checkpoint the histogram memory, sparsely: only nonzero buckets
     * are written (addr, count, stalls), since most of the 16 K
     * control store is never executed by a given workload.
     */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    std::array<uint64_t, NumBuckets> counts_{};
    std::array<uint64_t, NumBuckets> stalls_{};
};

} // namespace upc780::upc

#endif // UPC780_UPC_HISTOGRAM_HH
