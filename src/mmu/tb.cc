#include "mmu/tb.hh"

#include "common/bitfield.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"

namespace upc780::mmu
{

TranslationBuffer::TranslationBuffer(obs::CounterRegistry &counters,
                                     const TbConfig &config)
    : counters_(counters), config_(config)
{
    if (!isPow2(config_.entriesPerHalf))
        sim_throw(ConfigError, "TB half size must be a power of two");
    entries_.resize(2u * config_.entriesPerHalf);
}

void
TranslationBuffer::locate(VAddr va, uint32_t &half, uint32_t &set,
                          uint32_t &tag) const
{
    // Half 0 holds process space (P0/P1), half 1 holds system space.
    half = (spaceOf(va) == Space::S0) ? 1 : 0;
    // Index by low VPN bits; the tag is the remaining VA page bits
    // including the region bits so P0 and P1 pages do not alias.
    uint32_t page = va >> PageShift;
    set = page & (config_.entriesPerHalf - 1);
    tag = page >> log2i(config_.entriesPerHalf);
}

bool
TranslationBuffer::lookup(VAddr va, bool istream, PAddr &pa)
{
    uint32_t half, set, tag;
    locate(va, half, set, tag);
    Entry &e = entries_[half * config_.entriesPerHalf + set];
    if (config_.enabled && e.valid && e.tag == tag) {
        if (fault_ && fault_->onTbLookup()) {
            // Parity error on the matching entry: discard it and take
            // the miss path, so the microcode refill provides the
            // realistic recovery timing.
            e.valid = false;
        } else {
            pa = (e.pfn << PageShift) | (va & (PageBytes - 1));
            counters_.bump(istream ? obs::Ev::TbIHits : obs::Ev::TbDHits);
            return true;
        }
    }

    counters_.bump(istream ? obs::Ev::TbIMisses : obs::Ev::TbDMisses);
    return false;
}

bool
TranslationBuffer::probe(VAddr va) const
{
    if (!config_.enabled)
        return false;
    uint32_t half, set, tag;
    locate(va, half, set, tag);
    const Entry &e = entries_[half * config_.entriesPerHalf + set];
    return e.valid && e.tag == tag;
}

std::vector<uint32_t>
TranslationBuffer::validFrames() const
{
    std::vector<uint32_t> pfns;
    for (const Entry &e : entries_)
        if (e.valid)
            pfns.push_back(e.pfn);
    return pfns;
}

void
TranslationBuffer::fill(VAddr va, uint32_t pfn)
{
    uint32_t half, set, tag;
    locate(va, half, set, tag);
    Entry &e = entries_[half * config_.entriesPerHalf + set];
    e.valid = true;
    e.tag = tag;
    e.pfn = pfn;
    counters_.bump(obs::Ev::TbFills);
}

void
TranslationBuffer::flushProcess()
{
    for (uint32_t s = 0; s < config_.entriesPerHalf; ++s)
        entries_[s].valid = false;
    counters_.bump(obs::Ev::TbFlushes);
}

void
TranslationBuffer::flushAll()
{
    for (Entry &e : entries_)
        e.valid = false;
    counters_.bump(obs::Ev::TbFlushes);
}

void
TranslationBuffer::invalidateSingle(VAddr va)
{
    uint32_t half, set, tag;
    locate(va, half, set, tag);
    Entry &e = entries_[half * config_.entriesPerHalf + set];
    if (e.valid && e.tag == tag)
        e.valid = false;
}

template <class Self, class Ar>
void
TranslationBuffer::walk(Self &s, Ar &ar)
{
    ar.sameCount32(s.entries_.size(), "TB entry count");
    for (auto &e : s.entries_) {
        ar.b(e.valid);
        ar.u32(e.tag);
        ar.u32(e.pfn);
    }
}

void
TranslationBuffer::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
TranslationBuffer::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::mmu
