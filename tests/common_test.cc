/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, bitfield helpers, statistics accumulators,
 * the table formatter and the snapshot CRC-32.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/bitfield.hh"
#include "common/random.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace upc780;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, WeightedRespectsZeros)
{
    Rng r(13);
    double w[] = {0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(r.weighted(w), 1u);
}

TEST(Rng, WeightedProportions)
{
    Rng r(17);
    double w[] = {1.0, 3.0};
    int counts[2] = {0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[r.weighted(w)];
    EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(Rng, RunLengthMean)
{
    Rng r(19);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.runLength(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(DiscreteSampler, MatchesWeights)
{
    Rng r(23);
    double w[] = {2.0, 0.0, 2.0, 4.0};
    DiscreteSampler s{std::span<const double>(w)};
    int counts[4] = {};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(r)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.5, 0.02);
}

TEST(Bitfield, BitsAndSext)
{
    EXPECT_EQ(bits(0xDEADBEEF, 15, 8), 0xBEu);
    EXPECT_EQ(bits(0xFFFFFFFF, 31, 0), 0xFFFFFFFFu);
    EXPECT_TRUE(bit(0x80000000u, 31));
    EXPECT_FALSE(bit(0x7FFFFFFFu, 31));
    EXPECT_EQ(sext(0xFF, 8), -1);
    EXPECT_EQ(sext(0x7F, 8), 127);
    EXPECT_EQ(sext(0x8000, 16), -32768);
}

TEST(Bitfield, AlignHelpers)
{
    EXPECT_EQ(alignDown(0x1237, 4), 0x1234u);
    EXPECT_EQ(alignUp(0x1235, 4), 0x1238u);
    EXPECT_EQ(alignUp(0x1234, 4), 0x1234u);
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(1000));
    EXPECT_FALSE(isPow2(0));
    EXPECT_EQ(log2i(4096), 12);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 8, 4, 0xF), 0xF00u);
    EXPECT_EQ(insertBits(0xFFFFFFFF, 8, 4, 0), 0xFFFFF0FFu);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, RunningStat)
{
    RunningStat s;
    s.sample(1);
    s.sample(2);
    s.sample(3);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, HeadwayTracker)
{
    HeadwayTracker h;
    h.occur(100);
    h.occur(200);
    h.occur(300);
    EXPECT_EQ(h.occurrences(), 3u);
    EXPECT_DOUBLE_EQ(h.headway(300), 100.0);
}

TEST(Table, RendersAllCells)
{
    TextTable t("Demo");
    t.header({"a", "b"});
    t.row({"x", "1.5"});
    t.rule();
    t.row({"longer-label", "2"});
    std::string s = t.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("longer-label"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::pct(50.0, 1), "50.0%");
}

// ---------------------------------------------------------------------------
// Logging: stderr discipline and UPC780_LOG_LEVEL filtering
// ---------------------------------------------------------------------------

#include <cstdlib>

#include "common/error.hh"
#include "common/logging.hh"

TEST(Logging, DiagnosticsNeverTouchStdout)
{
    // stdout carries tables and histograms; every diagnostic must go
    // to stderr so piped output stays machine-parseable.
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    warn("this is a test warning %d", 42);
    inform("this is test status %s", "ok");
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(out.empty()) << "stdout polluted with: " << out;
    EXPECT_NE(err.find("test warning 42"), std::string::npos);
    EXPECT_NE(err.find("test status ok"), std::string::npos);
}

TEST(Logging, LogLevelEnvFilters)
{
    setenv("UPC780_LOG_LEVEL", "quiet", 1);
    upc780::detail::reloadLogLevel();
    testing::internal::CaptureStderr();
    warn("suppressed");
    inform("suppressed");
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());

    setenv("UPC780_LOG_LEVEL", "warn", 1);
    upc780::detail::reloadLogLevel();
    testing::internal::CaptureStderr();
    warn("kept");
    inform("dropped");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("kept"), std::string::npos);
    EXPECT_EQ(err.find("dropped"), std::string::npos);

    unsetenv("UPC780_LOG_LEVEL");
    upc780::detail::reloadLogLevel();
}

TEST(Logging, SimErrorHierarchy)
{
    // Every SimError subclass is catchable as SimError and carries
    // its formatted message.
    try {
        sim_throw(upc780::ConfigError, "bad knob %d", 7);
        FAIL() << "sim_throw did not throw";
    } catch (const upc780::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("bad knob 7"),
                  std::string::npos);
    }
    EXPECT_THROW(sim_throw(upc780::GuestError, "g"), upc780::SimError);
    EXPECT_THROW(sim_throw(upc780::WatchdogError, "w"), upc780::SimError);
    EXPECT_THROW(sim_throw(upc780::AuditError, "a"), upc780::SimError);
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace
{

/** Bitwise CRC-32/IEEE: the definition the table-driven code must meet. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (uint8_t &b : v)
        b = static_cast<uint8_t>(rng.next());
    return v;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926u);
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(""), 0), 0u);
}

TEST(Crc32, ChainsAcrossEverySplit)
{
    const std::vector<uint8_t> buf = randomBytes(1024, 7);
    const uint32_t whole = crc32(buf.data(), buf.size());
    for (size_t split = 0; split <= buf.size(); ++split)
        EXPECT_EQ(crc32(buf.data() + split, buf.size() - split,
                        crc32(buf.data(), split)),
                  whole)
            << "split at " << split;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryAlignment)
{
    const std::vector<uint8_t> buf = randomBytes(256 + 8, 11);
    for (size_t off = 0; off < 8; ++off)
        for (size_t len = 0; len <= 256; ++len)
            EXPECT_EQ(crc32(buf.data() + off, len),
                      crc32Bitwise(buf.data() + off, len))
                << "offset " << off << " length " << len;
}
