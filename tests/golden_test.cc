/**
 * @file
 * Golden-table regression suite: every cell of the paper-style Tables
 * 1-9 (plus the CPI headline) from a fixed-seed composite run is
 * pinned against checked-in golden files under tests/golden/. A
 * regression that shifts cycles between attribution rows — the kind a
 * green unit-test run can hide — fails here loudly, naming the exact
 * table cell that drifted.
 *
 * Regenerating goldens is an intentional act:
 *
 *     golden_test --update-golden        (or UPC780_UPDATE_GOLDEN=1)
 *
 * rewrites the files from the current build; review the diff like any
 * other code change.
 *
 * The measurement runs on the parallel engine, whose composite is
 * bit-identical to the serial runner's for any worker count — so this
 * suite simultaneously guards the engine's determinism contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "sim/engine.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

bool g_update = false;

#ifndef UPC780_GOLDEN_DIR
#error "UPC780_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(UPC780_GOLDEN_DIR) + "/" + file;
}

/** A table as an ordered map of cell name -> formatted value. */
using Table = std::map<std::string, std::string>;

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
fmt(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Compare @p current against the golden file (or rewrite it under
 * --update-golden), reporting every drifted cell by name.
 */
void
checkGolden(const std::string &file, const Table &current)
{
    const std::string path = goldenPath(file);
    if (g_update) {
        // A flat object, keys in sorted order, one cell per line.
        json::Value doc = json::object();
        for (const auto &[k, v] : current)
            doc.set(k, v);
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << doc.dumpPretty();
        std::fprintf(stderr, "[golden] updated %s (%zu cells)\n",
                     path.c_str(), current.size());
        return;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << path << " is missing; run golden_test --update-golden "
        << "and commit the result";
    std::stringstream buf;
    buf << is.rdbuf();
    Table golden;
    try {
        const json::Value doc = json::parse(buf.str());
        for (const auto &[k, v] : doc.asObject())
            golden[k] = v.asString();
    } catch (const ConfigError &e) {
        FAIL() << "unparsable " << path << ": " << e.what();
    }

    for (const auto &[k, v] : golden) {
        auto it = current.find(k);
        if (it == current.end()) {
            ADD_FAILURE() << file << ": cell '" << k
                          << "' no longer produced";
            continue;
        }
        EXPECT_EQ(it->second, v)
            << file << ": cell '" << k << "' drifted (golden " << v
            << ", measured " << it->second << ")";
    }
    for (const auto &[k, v] : current) {
        EXPECT_TRUE(golden.count(k))
            << file << ": new cell '" << k << "' = " << v
            << " not in golden (run --update-golden)";
    }
}

/**
 * The fixed-seed composite every golden table derives from: the five
 * paper workloads at their default seeds, sized to keep the suite
 * fast while exercising every attribution row.
 */
struct GoldenRun
{
    sim::CompositeResult composite;
    const ucode::MicrocodeImage *image;

    upc::HistogramAnalyzer
    analyzer() const
    {
        return {composite.histogram, *image};
    }
};

const GoldenRun &
goldenRun()
{
    static const GoldenRun run = [] {
        sim::ExperimentConfig cfg;
        cfg.instructionsPerWorkload = 12000;
        cfg.warmupInstructions = 2000;
        sim::ParallelEngine engine(cfg);
        GoldenRun r;
        r.composite = engine.runComposite(wkl::paperWorkloads());
        r.image = &ucode::microcodeImage();
        return r;
    }();
    return run;
}

} // namespace

TEST(Golden, Headline)
{
    const auto &run = goldenRun();
    auto an = run.analyzer();
    Table t;
    t["instructions"] = fmt(an.instructions());
    t["cycles"] = fmt(an.cycles());
    t["cpi"] = fmt(an.cpi());
    t["workloads.ok"] = fmt(uint64_t(run.composite.allOk() ? 1 : 0));
    for (const auto &w : run.composite.workloads)
        t["workload." + w.name + ".cycles"] = fmt(w.cycles);
    checkGolden("headline.json", t);
}

TEST(Golden, Table1OpcodeGroupFrequency)
{
    auto an = goldenRun().analyzer();
    auto freq = an.opcodeGroupFrequency();
    auto counts = an.groupCounts();
    Table t;
    for (size_t g = 0; g < size_t(arch::Group::NumGroups); ++g) {
        std::string name(arch::groupName(static_cast<arch::Group>(g)));
        t["freq." + name] = fmt(freq[g]);
        t["count." + name] = fmt(counts[g]);
    }
    checkGolden("table1.json", t);
}

TEST(Golden, Table2PcChanging)
{
    auto an = goldenRun().analyzer();
    auto pc = an.pcChanging();
    Table t;
    for (size_t c = 1; c < size_t(arch::PcClass::NumClasses); ++c) {
        std::string name(
            arch::pcClassName(static_cast<arch::PcClass>(c)));
        t[name + ".executed"] = fmt(pc[c].executed);
        t[name + ".taken"] = fmt(pc[c].taken);
    }
    checkGolden("table2.json", t);
}

TEST(Golden, Table3SpecifiersPerInstruction)
{
    auto an = goldenRun().analyzer();
    Table t;
    t["firstSpecsPerInstr"] = fmt(an.firstSpecsPerInstr());
    t["otherSpecsPerInstr"] = fmt(an.otherSpecsPerInstr());
    t["branchDispsPerInstr"] = fmt(an.branchDispsPerInstr());
    checkGolden("table3.json", t);
}

TEST(Golden, Table4SpecifierModes)
{
    auto an = goldenRun().analyzer();
    auto d = an.specifierDist();
    Table t;
    for (size_t c = 0; c < size_t(arch::SpecClass::NumClasses); ++c) {
        std::string name(
            arch::specClassName(static_cast<arch::SpecClass>(c)));
        t["first." + name] = fmt(d.byClass[1][c]);
        t["later." + name] = fmt(d.byClass[0][c]);
    }
    t["indexed.first"] = fmt(d.indexed[1]);
    t["indexed.later"] = fmt(d.indexed[0]);
    t["total.first"] = fmt(d.total[1]);
    t["total.later"] = fmt(d.total[0]);
    checkGolden("table4.json", t);
}

TEST(Golden, Table5ReadsWrites)
{
    auto an = goldenRun().analyzer();
    static const ucode::Row rows[] = {
        ucode::Row::Spec1,       ucode::Row::Spec26,
        ucode::Row::ExSimple,    ucode::Row::ExField,
        ucode::Row::ExFloat,     ucode::Row::ExCallRet,
        ucode::Row::ExSystem,    ucode::Row::ExCharacter,
        ucode::Row::ExDecimal,   ucode::Row::MemMgmt,
        ucode::Row::IntExcept,
    };
    Table t;
    for (ucode::Row r : rows) {
        std::string name(ucode::rowName(r));
        auto rr = an.refsFor(r);
        t[name + ".reads"] = fmt(rr.reads);
        t[name + ".writes"] = fmt(rr.writes);
    }
    auto tot = an.refsTotal();
    t["TOTAL.reads"] = fmt(tot.reads);
    t["TOTAL.writes"] = fmt(tot.writes);
    checkGolden("table5.json", t);
}

TEST(Golden, Table6InstructionSize)
{
    auto an = goldenRun().analyzer();
    Table t;
    t["estimatedInstrBytes"] = fmt(an.estimatedInstrBytes());
    t["estimatedSpecifierBytes"] = fmt(an.estimatedSpecifierBytes());
    checkGolden("table6.json", t);
}

TEST(Golden, Table7Headways)
{
    auto an = goldenRun().analyzer();
    Table t;
    t["interruptHeadway"] = fmt(an.interruptHeadway());
    t["contextSwitchHeadway"] = fmt(an.contextSwitchHeadway());
    checkGolden("table7.json", t);
}

TEST(Golden, Table8TimingMatrix)
{
    auto an = goldenRun().analyzer();
    auto m = an.timingMatrix();
    Table t;
    for (size_t r = 1; r < size_t(ucode::Row::NumRows); ++r) {
        std::string row(ucode::rowName(static_cast<ucode::Row>(r)));
        for (size_t c = 0; c < size_t(upc::Col::NumCols); ++c) {
            std::string col(upc::colName(static_cast<upc::Col>(c)));
            t[row + "." + col] = fmt(m.cell[r][c]);
        }
        t[row + ".TOTAL"] = fmt(m.rowTotal(static_cast<ucode::Row>(r)));
    }
    for (size_t c = 0; c < size_t(upc::Col::NumCols); ++c) {
        std::string col(upc::colName(static_cast<upc::Col>(c)));
        t["TOTAL." + col] = fmt(m.colTotal(static_cast<upc::Col>(c)));
    }
    t["TOTAL.TOTAL"] = fmt(m.total());
    checkGolden("table8.json", t);
}

TEST(Golden, Table9PerGroupCycles)
{
    auto an = goldenRun().analyzer();
    Table t;
    for (size_t g = 0; g < size_t(arch::Group::NumGroups); ++g) {
        std::string group(
            arch::groupName(static_cast<arch::Group>(g)));
        auto cols = an.groupCycles(static_cast<arch::Group>(g));
        for (size_t c = 0; c < size_t(upc::Col::NumCols); ++c) {
            std::string col(upc::colName(static_cast<upc::Col>(c)));
            t[group + "." + col] = fmt(cols[c]);
        }
    }
    checkGolden("table9.json", t);
}

TEST(Golden, RteBurstyProfile)
{
    // The bursty interactive + network-daemon RTE profile (4.2BSD
    // class) is not part of the paper composite — Tables 1-9 above
    // stay untouched — but its own attribution is pinned so drift in
    // the generator or the profile weights is caught the same way.
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 12000;
    cfg.warmupInstructions = 2000;
    sim::ParallelEngine engine(cfg);
    sim::CompositeResult comp =
        engine.runComposite({wkl::burstyNetworkProfile()});
    ASSERT_TRUE(comp.allOk());

    upc::HistogramAnalyzer an(comp.histogram, ucode::microcodeImage());
    Table t;
    t["instructions"] = fmt(an.instructions());
    t["cycles"] = fmt(an.cycles());
    t["cpi"] = fmt(an.cpi());
    t["timerInterrupts"] = fmt(comp.timerInterrupts);
    t["terminalInterrupts"] = fmt(comp.terminalInterrupts);
    auto freq = an.opcodeGroupFrequency();
    for (size_t g = 0; g < size_t(arch::Group::NumGroups); ++g) {
        std::string name(arch::groupName(static_cast<arch::Group>(g)));
        t["freq." + name] = fmt(freq[g]);
    }
    auto m = an.timingMatrix();
    for (size_t c = 0; c < size_t(upc::Col::NumCols); ++c) {
        std::string col(upc::colName(static_cast<upc::Col>(c)));
        t["cycles." + col] = fmt(m.colTotal(static_cast<upc::Col>(c)));
    }
    checkGolden("rte_bursty.json", t);
}

TEST(Golden, ObservabilityDoesNotPerturbTables)
{
    // The observability layer must be a pure observer: running the
    // same fixed-seed composite with counters and a deep tracer
    // attached, and again with every runtime obs feature off, must
    // produce byte-identical attribution data — hence byte-identical
    // Tables 1-9.
    sim::ExperimentConfig on;
    on.instructionsPerWorkload = 4000;
    on.warmupInstructions = 800;
    on.obs.counters = true;
    on.obs.traceDepth = 1u << 14;

    sim::ExperimentConfig off = on;
    off.obs.counters = false;
    off.obs.traceDepth = 0;

    auto profiles = wkl::paperWorkloads();
    sim::CompositeResult a =
        sim::ParallelEngine(on).runComposite(profiles);
    sim::CompositeResult b =
        sim::ParallelEngine(off).runComposite(profiles);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    EXPECT_TRUE(a.histogram == b.histogram)
        << "obs instrumentation perturbed the UPC histogram";
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    for (size_t i = 0; i < a.workloads.size(); ++i) {
        EXPECT_EQ(a.workloads[i].cycles, b.workloads[i].cycles)
            << a.workloads[i].name;
        EXPECT_TRUE(a.workloads[i].histogram ==
                    b.workloads[i].histogram)
            << a.workloads[i].name;
    }

    const auto &img = ucode::microcodeImage();
    upc::HistogramAnalyzer an_a(a.histogram, img);
    upc::HistogramAnalyzer an_b(b.histogram, img);
    EXPECT_EQ(an_a.instructions(), an_b.instructions());
    EXPECT_EQ(fmt(an_a.cpi()), fmt(an_b.cpi()));
}

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
