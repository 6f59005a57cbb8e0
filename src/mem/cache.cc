#include "mem/cache.hh"

#include "common/bitfield.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "obs/counters.hh"

namespace upc780::mem
{

Cache::Cache(obs::CounterRegistry &counters, const CacheConfig &config,
             uint64_t seed)
    : counters_(counters), config_(config), rng_(seed)
{
    if (!isPow2(config_.sizeBytes) || !isPow2(config_.blockBytes) ||
        config_.ways == 0) {
        sim_throw(ConfigError, "cache geometry must be power-of-two sized");
    }
    if (config_.sizeBytes % (config_.blockBytes * config_.ways) != 0)
        sim_throw(ConfigError, "cache size not divisible by way size");
    numSets_ = config_.sizeBytes / (config_.blockBytes * config_.ways);
    blockShift_ = static_cast<uint32_t>(log2i(config_.blockBytes));
    lines_.resize(static_cast<size_t>(numSets_) * config_.ways);
}

uint32_t
Cache::setIndex(PAddr pa) const
{
    return (pa >> blockShift_) & (numSets_ - 1);
}

uint32_t
Cache::tagOf(PAddr pa) const
{
    return pa >> (blockShift_ + log2i(numSets_));
}

int
Cache::lookup(uint32_t set, uint32_t tag) const
{
    for (uint32_t w = 0; w < config_.ways; ++w) {
        const Line &l = lines_[set * config_.ways + w];
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

void
Cache::fill(uint32_t set, uint32_t tag)
{
    // Prefer an invalid way; otherwise random replacement, as in the
    // 780 hardware.
    uint32_t victim = config_.ways;
    for (uint32_t w = 0; w < config_.ways; ++w) {
        if (!lines_[set * config_.ways + w].valid) {
            victim = w;
            break;
        }
    }
    if (victim == config_.ways)
        victim = static_cast<uint32_t>(rng_.below(config_.ways));
    Line &l = lines_[set * config_.ways + victim];
    l.valid = true;
    l.tag = tag;
}

bool
Cache::readAccess(PAddr pa, bool istream)
{
    counters_.bump(istream ? obs::Ev::CacheIReads : obs::Ev::CacheDReads);

    if (!config_.enabled) {
        counters_.bump(istream ? obs::Ev::CacheIReadMisses
                               : obs::Ev::CacheDReadMisses);
        return false;
    }

    uint32_t set = setIndex(pa);
    uint32_t tag = tagOf(pa);
    if (lookup(set, tag) >= 0)
        return true;

    counters_.bump(istream ? obs::Ev::CacheIReadMisses
                           : obs::Ev::CacheDReadMisses);
    fill(set, tag);
    return false;
}

bool
Cache::writeAccess(PAddr pa)
{
    counters_.bump(obs::Ev::CacheWrites);
    if (!config_.enabled)
        return false;
    uint32_t set = setIndex(pa);
    uint32_t tag = tagOf(pa);
    // No write-allocate: a write miss leaves the cache unchanged.
    if (lookup(set, tag) >= 0) {
        counters_.bump(obs::Ev::CacheWriteHits);
        return true;
    }
    return false;
}

bool
Cache::probe(PAddr pa) const
{
    if (!config_.enabled)
        return false;
    return lookup(setIndex(pa), tagOf(pa)) >= 0;
}

void
Cache::invalidateAll()
{
    for (Line &l : lines_)
        l.valid = false;
}

template <class Self, class Ar>
void
Cache::walk(Self &s, Ar &ar)
{
    ar.sameCount32(s.lines_.size(), "cache line count");
    for (auto &l : s.lines_) {
        ar.b(l.valid);
        ar.u32(l.tag);
    }
    ar.rng(s.rng_);
}

void
Cache::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
Cache::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::mem
