/**
 * @file
 * The VAX-11/780 data/instruction cache: 8 KB, two-way set associative,
 * 8-byte blocks, write-through with no write-allocate, random
 * replacement. Because the cache is write-through, physical memory is
 * always current and the model needs only a tag store.
 *
 * The cache is a *hardware* component invisible to microcode; its
 * obs events (cache.*) model the separate cache-study monitor of
 * Clark [2], which the paper cites for the numbers the UPC technique
 * cannot see.
 */

#ifndef UPC780_MEM_CACHE_HH
#define UPC780_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "common/random.hh"
#include "obs/counters.hh"

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::mem
{

using arch::PAddr;

/** Cache geometry; defaults are the 11/780's. */
struct CacheConfig
{
    uint32_t sizeBytes = 8 * 1024;
    uint32_t ways = 2;
    uint32_t blockBytes = 8;
    bool enabled = true;   //!< ablation: force every access to miss

    bool operator==(const CacheConfig &) const = default;
};

/** Tag-store model of the 780 cache. */
class Cache
{
  public:
    explicit Cache(obs::CounterRegistry &counters,
                   const CacheConfig &config = CacheConfig{},
                   uint64_t seed = 0xCAC4E);

    /**
     * Probe for a read. On a miss the block is allocated (read
     * allocate).
     *
     * @param pa physical address of the access
     * @param istream true for IB refill references
     * @retval true on hit
     */
    bool readAccess(PAddr pa, bool istream);

    /**
     * Probe for a write. Write-through: the block is updated only on
     * hit and never allocated (the data itself lives in memory).
     *
     * @retval true on hit
     */
    bool writeAccess(PAddr pa);

    /** Probe without side effects (for tests). */
    bool probe(PAddr pa) const;

    /** Invalidate the whole cache. */
    void invalidateAll();

    const CacheConfig &config() const { return config_; }

    uint32_t numSets() const { return numSets_; }

    /** Checkpoint tag store + replacement RNG. */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
    };

    uint32_t setIndex(PAddr pa) const;
    uint32_t tagOf(PAddr pa) const;
    /** Find way of a matching valid line, or -1. */
    int lookup(uint32_t set, uint32_t tag) const;
    void fill(uint32_t set, uint32_t tag);

    obs::CounterRegistry &counters_;
    CacheConfig config_;
    uint32_t numSets_;
    uint32_t blockShift_;
    std::vector<Line> lines_;  //!< [set * ways + way]
    upc780::Rng rng_;
};

} // namespace upc780::mem

#endif // UPC780_MEM_CACHE_HH
