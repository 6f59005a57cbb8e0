/**
 * @file
 * Pins the derived per-instruction latency/stall table
 * (tools/upctable) as a golden: the table is *measured*, not asserted
 * against closed forms, so this test is the regression tripwire that
 * makes any timing drift in the opcode set a deliberate, reviewed
 * change.
 *
 * Regenerate with:
 *     ubench_table_test --update-golden    (or UPC780_UPDATE_GOLDEN=1)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "ubench/table.hh"

namespace
{

using namespace upc780;

bool g_update = false;

#ifndef UPC780_GOLDEN_DIR
#error "UPC780_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath()
{
    return std::string(UPC780_GOLDEN_DIR) + "/upctable.json";
}

TEST(UbenchTable, MatchesPinnedGolden)
{
    const ubench::LatencyTable t = ubench::sweepLatencyTable();
    const std::string rendered = ubench::tableToJson(t);

    if (g_update) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << rendered;
        std::fprintf(stderr, "[golden] updated %s (%zu rows)\n",
                     goldenPath().c_str(), t.rows.size());
        return;
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good()) << goldenPath()
                           << " is missing; run ubench_table_test "
                              "--update-golden and commit the result";
    std::ostringstream pinned;
    pinned << in.rdbuf();
    EXPECT_EQ(rendered, pinned.str())
        << "per-instruction latency table drifted from the pinned "
           "golden; if intentional, regenerate with --update-golden";
}

/** A skip reason with a quote and a newline parses back intact. */
TEST(UbenchTable, JsonEscapesSkipReasons)
{
    ubench::LatencyTable t;
    t.baselineCycles = 7;
    const std::string reason = "operand \"x\" faulted\nat 0x200";
    t.skipped.push_back({0x5A, "bogus", reason});

    const json::Value doc = json::parse(ubench::tableToJson(t));
    ASSERT_TRUE(doc.find("skipped"));
    const json::Array &skipped = doc.find("skipped")->asArray();
    ASSERT_EQ(skipped.size(), 1u);
    ASSERT_TRUE(skipped[0].find("reason"));
    EXPECT_EQ(skipped[0].find("reason")->asString(), reason);
    ASSERT_TRUE(skipped[0].find("opcode"));
    EXPECT_EQ(skipped[0].find("opcode")->asUint(), 0x5Au);
    ASSERT_TRUE(doc.find("rows"));
    EXPECT_TRUE(doc.find("rows")->asArray().empty());
}

/** Structural sanity independent of the pinned values. */
TEST(UbenchTable, SweepIsSubstantialAndOrdered)
{
    const ubench::LatencyTable t = ubench::sweepLatencyTable();
    EXPECT_GE(t.rows.size(), 60u) << "opcode sweep shrank unexpectedly";
    EXPECT_GT(t.baselineCycles, 0u);
    for (size_t i = 1; i < t.rows.size(); ++i)
        EXPECT_LT(t.rows[i - 1].opcode, t.rows[i].opcode);
    for (const ubench::TableRow &r : t.rows) {
        EXPECT_GE(r.latency, 0) << r.mnemonic;
        EXPECT_EQ(r.cycles, r.uops + r.stalls)
            << r.mnemonic << ": stall-free conservation per iteration";
        if (r.cyclesNoFpa >= 0) {
            EXPECT_GE(r.cyclesNoFpa, int64_t(r.cycles))
                << r.mnemonic << ": losing the FPA can only cost cycles";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--update-golden"))
            g_update = true;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    if (const char *e = std::getenv("UPC780_UPDATE_GOLDEN"))
        if (*e && std::strcmp(e, "0"))
            g_update = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
