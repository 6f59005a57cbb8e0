#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace upc780
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
deriveSeed(uint64_t base, uint64_t stream)
{
    if (stream == 0)
        return base;
    // Two splitmix64 rounds over (base, stream) mixed with distinct
    // odd constants: cheap, stateless, and empirically free of the
    // low-bit correlations naive seed+id arithmetic has.
    uint64_t x = base ^ (stream * 0xd1342543de82ef95ULL);
    uint64_t a = splitmix64(x);
    x ^= 0x9e3779b97f4a7c15ULL;
    return a ^ splitmix64(x);
}

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

void
Rng::zeroBound()
{
    panic("Rng::below called with zero bound");
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("Rng::range with lo > hi");
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::weightTotal(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights)
        total += std::max(w, 0.0);
    return total;
}

size_t
Rng::weighted(std::span<const double> weights, double total)
{
    if (total <= 0.0)
        panic("Rng::weighted: all weights non-positive");
    double x = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        double w = std::max(weights[i], 0.0);
        if (x < w)
            return i;
        x -= w;
    }
    return weights.size() - 1;
}

uint32_t
Rng::runLength(double mean)
{
    if (mean <= 1.0)
        return 1;
    // Geometric with success probability 1/mean, shifted to minimum 1.
    double p = 1.0 / mean;
    double u = uniform();
    double len = 1.0 + std::floor(std::log1p(-u) / std::log1p(-p));
    if (len < 1.0)
        len = 1.0;
    if (len > 1e6)
        len = 1e6;
    return static_cast<uint32_t>(len);
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights)
{
    double total = 0.0;
    cdf_.reserve(weights.size());
    for (double w : weights) {
        total += std::max(w, 0.0);
        cdf_.push_back(total);
    }
    if (total <= 0.0) {
        cdf_.clear();
    } else {
        for (double &c : cdf_)
            c /= total;
    }
}

size_t
DiscreteSampler::sample(Rng &rng) const
{
    if (cdf_.empty())
        panic("DiscreteSampler::sample on empty sampler");
    double x = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    if (it == cdf_.end())
        --it;
    return static_cast<size_t>(it - cdf_.begin());
}

} // namespace upc780
