/**
 * @file
 * The VAX-11/780 translation buffer: 128 entries in two 64-entry
 * direct-mapped halves, one dedicated to system space and one to
 * process space. The process half is flushed on context switch
 * (LDPCTX); this is why the paper's context-switch headway matters to
 * TB simulations (paper §3.4, and Clark & Emer's TB study [3]).
 *
 * The TB is *hardware* for lookups but is filled by a *microcode*
 * miss routine, which is exactly why the paper can measure TB misses
 * with the UPC technique (paper §4.2).
 */

#ifndef UPC780_MMU_TB_HH
#define UPC780_MMU_TB_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "mmu/pagetable.hh"
#include "obs/counters.hh"

namespace upc780::fault
{
class FaultInjector;
}

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::mmu
{

/** TB geometry; defaults model the 780. */
struct TbConfig
{
    uint32_t entriesPerHalf = 64;
    bool enabled = true;  //!< ablation: force every lookup to miss

    bool operator==(const TbConfig &) const = default;
};

/** The translation buffer proper. */
class TranslationBuffer
{
  public:
    explicit TranslationBuffer(obs::CounterRegistry &counters,
                               const TbConfig &config = TbConfig{});

    /**
     * Look up @p va. On a hit, produce the physical address.
     *
     * @param istream true for I-Fetch references (separate counters)
     * @retval true on hit
     */
    bool lookup(VAddr va, bool istream, PAddr &pa);

    /** Probe without counting (tests, walker cross-checks). */
    bool probe(VAddr va) const;

    /** The page frames the valid entries translate to (inspection). */
    std::vector<uint32_t> validFrames() const;

    /** Insert a translation (called by the miss microroutine). */
    void fill(VAddr va, uint32_t pfn);

    /** Invalidate process-space entries (context switch / TBIA-proc). */
    void flushProcess();

    /** Invalidate everything (MTPR TBIA). */
    void flushAll();

    /** Invalidate a single page (MTPR TBIS). */
    void invalidateSingle(VAddr va);

    /**
     * Attach a fault injector: valid entries may then suffer parity
     * errors on lookup, which invalidate the entry and force the miss
     * microroutine to refill it (the 780's TB-parity recovery path).
     * Null disables injection.
     */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    const TbConfig &config() const { return config_; }

    /** Checkpoint entries. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    struct Entry
    {
        bool valid = false;
        uint32_t tag = 0;  //!< VPN bits above the index
        uint32_t pfn = 0;
    };

    /** Map a VA to (half, set, tag). */
    void locate(VAddr va, uint32_t &half, uint32_t &set,
                uint32_t &tag) const;

    obs::CounterRegistry &counters_;
    TbConfig config_;
    std::vector<Entry> entries_;  //!< [half * entriesPerHalf + set]
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace upc780::mmu

#endif // UPC780_MMU_TB_HH
