/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, bitfield helpers, statistics accumulators,
 * the table formatter and the snapshot CRC-32.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

namespace
{

/**
 * The generator's draws as they were first written, out of line, kept
 * verbatim as the reference the inline versions must reproduce draw
 * for draw.
 */
class ReferenceRng
{
  public:
    explicit ReferenceRng(const Rng &from)
    {
        const auto s = from.state();
        std::copy(s.begin(), s.end(), s_);
    }

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

    uint64_t
    below(uint64_t bound)
    {
        const uint64_t threshold = -bound % bound;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    size_t
    weighted(std::span<const double> weights)
    {
        double total = 0.0;
        for (double w : weights)
            total += std::max(w, 0.0);
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
    runLength(double mean)
    {
        if (mean <= 1.0)
            return 1;
        double p = 1.0 / mean;
        double u = uniform();
        double len = 1.0 + std::floor(std::log1p(-u) / std::log1p(-p));
        if (len < 1.0)
            len = 1.0;
        if (len > 1e6)
            len = 1e6;
        return static_cast<uint32_t>(len);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

} // namespace

TEST(Rng, MatchesReferenceDrawForDraw)
{
    // Bound 2^63+1 rejects about half of all draws, so the redraw path
    // runs thousands of times; the small bounds take it rarely.
    const uint64_t bounds[] = {1, 2, 3, 26, 256, 100000,
                               (1ull << 32) + 1, (1ull << 63) + 1,
                               UINT64_MAX};
    const double probs[] = {-0.5, 0.0, 0.03, 0.5, 0.999, 1.0, 2.0};
    const double weights[] = {1.0, 0.0, -2.0, 0.3, 0.05, 2.5};
    const double means[] = {0.5, 1.0, 1.5, 10.0, 1e9};
    for (uint64_t seed : {1ull, 42ull, 0x780780780780ull}) {
        Rng rng(seed);
        ReferenceRng ref(rng);
        for (int i = 0; i < 4000; ++i) {
            for (uint64_t b : bounds)
                ASSERT_EQ(rng.below(b), ref.below(b))
                    << "bound " << b << ", draw " << i;
            ASSERT_EQ(rng.uniform(), ref.uniform());
            for (double p : probs)
                ASSERT_EQ(rng.chance(p), ref.chance(p)) << "p " << p;
            ASSERT_EQ(rng.weighted(weights), ref.weighted(weights));
            ASSERT_EQ(rng.weighted(weights, Rng::weightTotal(weights)),
                      ref.weighted(weights));
            for (double m : means)
                ASSERT_EQ(rng.runLength(m), ref.runLength(m))
                    << "mean " << m;
        }
        EXPECT_EQ(rng.next(), ref.next());
    }
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

TEST(Fnv1a, KnownAnswersAndChaining)
{
    auto bytes = [](const char *s) {
        return std::vector<uint8_t>(s, s + std::strlen(s));
    };
    // Pinned to the repository's offset basis, not the published one
    // (see common/serial.hh): every committed hash depends on it.
    EXPECT_EQ(fnv1a(bytes("")), Fnv1aOffset);
    EXPECT_EQ(fnv1a(bytes("a")), 0x44bd8ad473cd9906ull);
    EXPECT_EQ(fnv1a(bytes("foobar")), 0x88fad7c0a8ff07f2ull);
    EXPECT_EQ(fnv1a(bytes("bar"), fnv1a(bytes("foo"))),
              fnv1a(bytes("foobar")));
}

// ----- JSON codec ------------------------------------------------------

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/json.hh"

#ifndef UPC780_GOLDEN_DIR
#error "UPC780_GOLDEN_DIR must point at tests/golden"
#endif

namespace
{

/** Every kind of value and every string hazard the writer escapes. */
json::Value
codecCorpus()
{
    return json::Members{
        {"quote", "say \"hi\""},
        {"backslash", "C:\\dir\\"},
        {"whitespace", "line1\nline2\r\t\b\f"},
        {"control", std::string("\x01\x1f\x00", 3)},
        {"utf8", "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80"},
        {"empty_object", json::object()},
        {"empty_array", json::array()},
        {"nested",
         json::Members{
             {"list", json::Array{1, json::Array{},
                                  json::Members{{"none", nullptr}}}},
             {"yes", true},
             {"no", false}}},
        {"int64_min", INT64_MIN},
        {"int64_max", INT64_MAX},
        {"uint64_max", UINT64_MAX},
        {"third", 1.0 / 3.0},
        {"tiny", -2.5e-300},
        {"avogadro", 6.02214076e23},
    };
}

std::string
nested(size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

} // namespace

TEST(Json, BothFormsRoundTripTheCorpus)
{
    const json::Value v = codecCorpus();
    const std::string canonical = v.dump();
    EXPECT_EQ(json::parse(canonical).dump(), canonical);
    EXPECT_EQ(json::parse(v.dumpPretty()).dump(), canonical);
    EXPECT_EQ(json::parse(v.dumpPretty()).dumpPretty(), v.dumpPretty());

    const json::Value back = json::parse(canonical);
    ASSERT_TRUE(back.find("control"));
    EXPECT_EQ(back.find("control")->asString(),
              std::string("\x01\x1f\x00", 3));
    ASSERT_TRUE(back.find("int64_min"));
    EXPECT_EQ(back.find("int64_min")->asInt(), INT64_MIN);
    ASSERT_TRUE(back.find("third"));
    EXPECT_EQ(back.find("third")->asDouble(), 1.0 / 3.0);
}

TEST(Json, PrettyFormLayout)
{
    const json::Value v = json::Members{{"a", json::Array{1, 2}},
                                        {"e", json::array()},
                                        {"o", json::object()},
                                        {"s", "x"}};
    EXPECT_EQ(v.dumpPretty(), "{\n"
                              "  \"a\": [\n"
                              "    1,\n"
                              "    2\n"
                              "  ],\n"
                              "  \"e\": [],\n"
                              "  \"o\": {},\n"
                              "  \"s\": \"x\"\n"
                              "}\n");
    EXPECT_EQ(v.dump(), "{\"a\":[1,2],\"e\":[],\"o\":{},\"s\":\"x\"}");
}

TEST(Json, PrettyFormReproducesACommittedGolden)
{
    std::ifstream in(std::string(UPC780_GOLDEN_DIR) + "/table8.json",
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(json::parse(text.str()).dumpPretty(), text.str());
}

TEST(Json, MalformedInputIsAConfigError)
{
    // A raw control character inside a string.
    EXPECT_THROW(json::parse(std::string("\"a\x01z\"")), ConfigError);
    EXPECT_THROW(json::parse("\"a\nz\""), ConfigError);
    // Truncated escapes.
    EXPECT_THROW(json::parse("\"ab\\"), ConfigError);
    EXPECT_THROW(json::parse("\"\\u12\""), ConfigError);
    EXPECT_THROW(json::parse("\"\\ud800\""), ConfigError);
    // Truncated and trailing documents.
    for (const char *bad : {"", "{", "{\"a\":", "[1,", "tru", "{} x"})
        EXPECT_THROW(json::parse(bad), ConfigError) << bad;
    // Past the depth cap, by default and when given.
    EXPECT_NO_THROW(json::parse(nested(64)));
    EXPECT_THROW(json::parse(nested(200)), ConfigError);
    EXPECT_THROW(json::parse(nested(3), 1), ConfigError);
    // Past the size cap.
    EXPECT_NO_THROW(json::parse("[1]", 64, 3));
    EXPECT_THROW(json::parse("[1] ", 64, 3), ConfigError);
}
