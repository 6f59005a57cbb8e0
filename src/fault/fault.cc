#include "fault/fault.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/serial.hh"

namespace upc780::fault
{

std::string_view
faultName(FaultKind k)
{
    switch (k) {
      case FaultKind::MemEccSingle:
        return "mem-ecc-single";
      case FaultKind::MemEccDouble:
        return "mem-ecc-double";
      case FaultKind::SbiTimeout:
        return "sbi-timeout";
      case FaultKind::TbParity:
        return "tb-parity";
      case FaultKind::CsParity:
        return "cs-parity";
      default:
        return "?";
    }
}

bool
FaultConfig::any() const
{
    return memEccSingleRate > 0 || memEccDoubleRate > 0 ||
           sbiTimeoutRate > 0 || tbParityRate > 0 || csParityRate > 0 ||
           !schedule.empty();
}

uint64_t
FaultStats::total() const
{
    uint64_t t = 0;
    for (uint64_t v : injected)
        t += v;
    return t;
}

uint64_t
FaultStats::correctable() const
{
    uint64_t t = 0;
    for (size_t k = 0; k < NumFaultKinds; ++k)
        if (faultCorrectable(static_cast<FaultKind>(k)))
            t += injected[k];
    return t;
}

uint64_t
FaultStats::uncorrectable() const
{
    return total() - correctable();
}

void
FaultStats::accumulate(const FaultStats &o)
{
    for (size_t k = 0; k < NumFaultKinds; ++k)
        injected[k] += o.injected[k];
}

FaultInjector::FaultInjector(const FaultConfig &config)
    : cfg_(config), rng_(config.seed)
{
    auto bad_rate = [](double r) { return r < 0.0 || r > 1.0; };
    if (bad_rate(cfg_.memEccSingleRate) ||
        bad_rate(cfg_.memEccDoubleRate) ||
        bad_rate(cfg_.sbiTimeoutRate) || bad_rate(cfg_.tbParityRate) ||
        bad_rate(cfg_.csParityRate)) {
        sim_throw(ConfigError, "fault rates must lie in [0, 1]");
    }
    for (const FaultSchedule &s : cfg_.schedule) {
        if (s.access == 0)
            sim_throw(ConfigError,
                      "fault schedule accesses are 1-based; got 0");
    }
}

bool
FaultInjector::fires(FaultKind k, uint64_t n, double rate)
{
    for (const FaultSchedule &s : cfg_.schedule)
        if (s.kind == k && s.access == n)
            return true;
    // No Bernoulli draw at rate 0, so schedule-only configurations
    // consume no randomness and stay reproducible under edits.
    return rate > 0 && rng_.chance(rate);
}

void
FaultInjector::inject(FaultKind k)
{
    ++stats_.injected[static_cast<size_t>(k)];
    pending_.push_back(mcheckCode(k));
}

bool
FaultInjector::onMemoryFill(uint32_t pa)
{
    (void)pa;
    ++fills_;
    // Double-bit (uncorrectable) takes precedence when both fire.
    if (fires(FaultKind::MemEccDouble, fills_, cfg_.memEccDoubleRate)) {
        inject(FaultKind::MemEccDouble);
        return true;
    }
    if (fires(FaultKind::MemEccSingle, fills_, cfg_.memEccSingleRate)) {
        inject(FaultKind::MemEccSingle);
        return true;
    }
    return false;
}

uint32_t
FaultInjector::onSbiTransaction()
{
    ++sbiTransactions_;
    if (fires(FaultKind::SbiTimeout, sbiTransactions_,
              cfg_.sbiTimeoutRate)) {
        inject(FaultKind::SbiTimeout);
        return cfg_.sbiTimeoutPenaltyCycles;
    }
    return 0;
}

bool
FaultInjector::onTbLookup()
{
    ++tbLookups_;
    if (fires(FaultKind::TbParity, tbLookups_, cfg_.tbParityRate)) {
        inject(FaultKind::TbParity);
        return true;
    }
    return false;
}

bool
FaultInjector::onCsFetch()
{
    ++csFetches_;
    if (fires(FaultKind::CsParity, csFetches_, cfg_.csParityRate)) {
        inject(FaultKind::CsParity);
        return true;
    }
    return false;
}

uint32_t
FaultInjector::takeMcheck()
{
    uint32_t code = pending_.front();
    pending_.pop_front();
    return code;
}

template <class Self, class Ar>
void
FaultInjector::walk(Self &s, Ar &ar)
{
    ar.rng(s.rng_);
    for (auto &v : s.stats_.injected)
        ar.u64(v);
    ar.u64(s.now_);
    ar.u64(s.fills_);
    ar.u64(s.sbiTransactions_);
    ar.u64(s.tbLookups_);
    ar.u64(s.csFetches_);
    ar.vec32(s.pending_, 1 << 16, [&](auto &c) { ar.u32(c); });
}

void
FaultInjector::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
FaultInjector::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::fault
