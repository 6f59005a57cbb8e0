/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A self-contained xoshiro256** implementation is used instead of
 * std::mt19937 so that workload generation is bit-reproducible across
 * standard library implementations; every experiment in the paper
 * reproduction is seeded and therefore exactly repeatable (addressing
 * the paper's complaint that live timesharing workloads are not).
 */

#ifndef UPC780_COMMON_RANDOM_HH
#define UPC780_COMMON_RANDOM_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace upc780
{

/**
 * Derive a decorrelated child seed for an independent stream.
 *
 * The parallel experiment engine gives every (workload, replication)
 * task — and thus every worker thread — its own RNG stream derived
 * from the experiment's base seed and a stable stream id, so results
 * depend only on the task identity, never on which thread ran it or
 * in what order. Stream 0 is the identity (returns @p base unchanged)
 * so a single-replication run is bit-identical to the historical
 * serial path.
 */
uint64_t deriveSeed(uint64_t base, uint64_t stream);

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x780780780780ULL);

    /** A child RNG on the independent stream @p stream (see deriveSeed). */
    static Rng forStream(uint64_t base_seed, uint64_t stream)
    {
        return Rng(deriveSeed(base_seed, stream));
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * Uniform integer in [0, bound). bound must be nonzero. Rejection
     * sampling avoids modulo bias: a draw below the threshold
     * 2^64 mod bound is redrawn. The threshold is always less than
     * bound, so it is computed (one more division) only for the rare
     * draw below bound.
     */
    uint64_t
    below(uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            zeroBound();
        uint64_t r = next();
        if (r < bound) [[unlikely]] {
            const uint64_t threshold = -bound % bound;
            while (r < threshold)
                r = next();
        }
        return r % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample an index from a discrete distribution given by
     * non-negative weights (need not be normalized).
     */
    size_t
    weighted(std::span<const double> weights)
    {
        return weighted(weights, weightTotal(weights));
    }

    /**
     * The same draw with the weights' total precomputed by
     * weightTotal(), for a caller that samples one fixed distribution
     * many times.
     */
    size_t weighted(std::span<const double> weights, double total);

    /** Sum of the non-negative weights, in order (see weighted). */
    static double weightTotal(std::span<const double> weights);

    /** Geometric-ish run length with the given mean, minimum 1. */
    uint32_t runLength(double mean);

    /**
     * The raw xoshiro256** state, for checkpoint serialization: a
     * restored stream continues bit-exactly where the saved one
     * stopped, which is what makes snapshot/restore of the workload
     * think-time and fault streams deterministic.
     */
    std::array<uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    void
    setState(const std::array<uint64_t, 4> &s)
    {
        s_[0] = s[0];
        s_[1] = s[1];
        s_[2] = s[2];
        s_[3] = s[3];
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    [[noreturn]] static void zeroBound();

    uint64_t s_[4];
};

/**
 * Cumulative-table sampler for repeatedly drawing from one fixed
 * discrete distribution.
 */
class DiscreteSampler
{
  public:
    DiscreteSampler() = default;
    explicit DiscreteSampler(std::span<const double> weights);

    /** True if the sampler has at least one nonzero weight. */
    bool valid() const { return !cdf_.empty(); }

    /** Draw an index using the supplied RNG. */
    size_t sample(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

} // namespace upc780

#endif // UPC780_COMMON_RANDOM_HH
