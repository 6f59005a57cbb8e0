/**
 * @file
 * Tests for the control-store linter: the shipped microprogram must be
 * clean, and each rule must fire on a seeded defect. Every defect is
 * planted in a *copy* of the shipped image — the same way a real
 * regression would arrive: one bad edit to an otherwise good map.
 */

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "arch/opcodes.hh"
#include "common/json.hh"
#include "ucode/controlstore.hh"
#include "ulint/cfg.hh"
#include "ulint/effects.hh"
#include "ulint/ulint.hh"

using namespace upc780;
using ucode::MicrocodeImage;
using ucode::Row;
using ucode::UAddr;
using ulint::lint;
using ulint::MicroCfg;
using ulint::Report;

namespace
{

MicrocodeImage
copyShipped()
{
    return ucode::microcodeImage();
}

/** Index of the MOVL primary execute entry (a plain one-word routine). */
constexpr unsigned MovlOpcode = 0xD0;

/** Object member @p key; throws (failing the test) when it is absent. */
const json::Value &
member(const json::Value &o, const char *key)
{
    const json::Value *v = o.find(key);
    if (!v)
        throw std::runtime_error(std::string("no member ") + key);
    return *v;
}

} // namespace

TEST(UlintClean, ShippedImageHasNoFindings)
{
    Report r = lint(ucode::microcodeImage());
    EXPECT_TRUE(r.clean()) << r.toText();
    EXPECT_EQ(r.findings.size(), 0u) << r.toText();
    EXPECT_GT(r.wordsChecked, 0u);
    // Address 0 is reserved invalid; every other word is reachable.
    EXPECT_EQ(r.reachableWords, r.wordsChecked - 1);
}

TEST(UlintClean, NoFpaImageHasNoFindings)
{
    Report r = lint(ucode::microcodeImageNoFpa());
    EXPECT_TRUE(r.clean()) << r.toText();
    EXPECT_EQ(r.findings.size(), 0u) << r.toText();
}

TEST(UlintCfg, DecodeSuccessorsIncludeStallAndAbort)
{
    const MicrocodeImage &img = ucode::microcodeImage();
    MicroCfg cfg(img);
    const auto &succ = cfg.successors(img.marks.decode);
    // uDECODE consumes the opcode byte: it can stall on an empty IB
    // and can microtrap if the IB fill misses the TB.
    EXPECT_NE(std::find(succ.begin(), succ.end(), img.marks.ibStallDecode),
              succ.end());
    EXPECT_NE(std::find(succ.begin(), succ.end(), img.marks.abort),
              succ.end());
    // The decode dispatch fan-out reaches every execute entry.
    const auto &fan = cfg.dispatchFanout();
    EXPECT_TRUE(std::binary_search(fan.begin(), fan.end(),
                                   img.execEntry[MovlOpcode]));
}

TEST(UlintCfg, AbortReachesBothTbMissEntries)
{
    const MicrocodeImage &img = ucode::microcodeImage();
    MicroCfg cfg(img);
    const auto &succ = cfg.successors(img.marks.abort);
    ASSERT_EQ(succ.size(), 2u);
    EXPECT_TRUE(cfg.reachable(img.marks.tbMissD));
    EXPECT_TRUE(cfg.reachable(img.marks.tbMissI));
}

TEST(UlintSeeded, DeadWordFiresUL002)
{
    MicrocodeImage img = copyShipped();
    // A rowed word the sequencer can never reach: classic dead
    // microcode left behind by a routine rewrite.
    UAddr dead = static_cast<UAddr>(img.allocated);
    img.ops[dead] = ucode::MicroOp{ucode::Dp::Nop, ucode::Mem::None,
                                   ucode::Ib::None, ucode::Seq::DecodeNext,
                                   0, 0};
    img.info[dead].row = Row::ExSimple;
    ++img.allocated;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.countRule("UL002"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(dead));
}

TEST(UlintSeeded, RowedUnallocatedAddressFiresUL002)
{
    MicrocodeImage img = copyShipped();
    img.info[img.allocated + 17].row = Row::ExFloat;

    Report r = lint(img);
    EXPECT_EQ(r.countRule("UL002"), 1u) << r.toText();
}

TEST(UlintSeeded, ReachableUnrowedWordFiresUL001)
{
    MicrocodeImage img = copyShipped();
    // Un-row an interior word of the interrupt dispatch flow (not a
    // landmark, not an annotated entry — only UL001 should fire).
    UAddr a = static_cast<UAddr>(img.marks.intDispatch + 1);
    img.info[a].row = Row::None;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.countRule("UL001"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, MisRowedSpecEntryFiresUL009)
{
    MicrocodeImage img = copyShipped();
    // A first-specifier register routine claiming the SPEC2-6 row
    // would silently move cycles between Table 8 rows.
    UAddr a = img.specRoutine[1][size_t(ucode::SpecMode::Reg)]
                             [size_t(ucode::AccessBucket::Read)];
    ASSERT_NE(a, 0u);
    img.info[a].row = Row::Spec26;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL009"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, DanglingJumpTargetFiresUL003)
{
    MicrocodeImage img = copyShipped();
    // Point the HALT resting word's self-jump off the end of the
    // allocated store.
    img.ops[img.marks.halted].target =
        static_cast<UAddr>(img.allocated + 100);

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL003"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(img.marks.halted));
}

TEST(UlintSeeded, DanglingDispatchTableEntryFiresUL003)
{
    MicrocodeImage img = copyShipped();
    img.execEntry[MovlOpcode] = static_cast<UAddr>(img.allocated + 5);

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL003"), 1u) << r.toText();
}

TEST(UlintSeeded, MissingExecEntryFiresUL004)
{
    MicrocodeImage img = copyShipped();
    img.execEntry[MovlOpcode] = 0;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL004"), 1u) << r.toText();
}

TEST(UlintSeeded, MemFunctionInComputeOnlyRowFiresUL005)
{
    MicrocodeImage img = copyShipped();
    // The ABORT word is a fabricated one-cycle charge; giving it a
    // memory function would double-count the trapped reference.
    img.ops[img.marks.abort].mem = ucode::Mem::WriteV;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.countRule("UL005"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(img.marks.abort));
}

TEST(UlintSeeded, AliasedIbStallWordsFireUL006)
{
    MicrocodeImage img = copyShipped();
    // Fold the two specifier stall contexts onto one address: SPEC1
    // and SPEC2-6 IB-stall cycles become indistinguishable.
    img.marks.ibStallSpec1 = img.marks.ibStallSpec26;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL006"), 1u) << r.toText();
}

TEST(UlintSeeded, DriftedSpecAnnotationFiresUL007)
{
    MicrocodeImage img = copyShipped();
    UAddr a = img.specRoutine[1][size_t(ucode::SpecMode::Reg)]
                             [size_t(ucode::AccessBucket::Read)];
    ASSERT_NE(a, 0u);
    // Claim the first-position routine serves later specifiers: the
    // analyzer's SPEC1/SPEC2-6 split would drift from the hardware's.
    img.specEntries[a].first = false;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL007"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, WrongGroupAnnotationFiresUL007)
{
    MicrocodeImage img = copyShipped();
    UAddr a = img.execEntry[MovlOpcode];
    ASSERT_NE(a, 0u);
    img.execEntries[a].group = arch::Group::Decimal;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL007"), 1u) << r.toText();
}

TEST(UlintSeeded, DuplicatedEntryAnnotationFiresUL008)
{
    MicrocodeImage img = copyShipped();
    // The same address annotated as both an execute entry and a
    // specifier entry would be counted in Table 1 *and* Table 4.
    UAddr a = img.execEntry[MovlOpcode];
    ASSERT_NE(a, 0u);
    img.specEntries[a] = ucode::SpecEntryNote{
        true, arch::SpecClass::Register, false};

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL008"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, AnnotatedLandmarkFiresUL008)
{
    MicrocodeImage img = copyShipped();
    img.takenEntries[img.marks.decode] = arch::PcClass::Uncond;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL008"), 1u) << r.toText();
}

// ----- dataflow rules (UL010-UL015) ------------------------------------

TEST(UlintSeeded, DeadMicroRegisterWriteFiresUL010)
{
    MicrocodeImage img = copyShipped();
    // Splice a branch-target computation into the HALT resting loop:
    // its TADDR write feeds the Nop'ing halted word and nothing else —
    // a dead write on every path.
    UAddr x = static_cast<UAddr>(img.allocated);
    img.ops[x] = ucode::MicroOp{ucode::Dp::BranchTarget, ucode::Mem::None,
                                ucode::Ib::None, ucode::Seq::Jump,
                                img.marks.halted, 0};
    img.info[x].row = Row::ExSimple;
    ++img.allocated;
    img.ops[img.marks.halted].target = x;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL010"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(x));
}

TEST(UlintSeeded, UnfedCertainReadFiresUL011)
{
    MicrocodeImage img = copyShipped();
    // A dispatch-only entry that consumes TADDR nobody computed: the
    // word before it ends with DecodeNext (no fall-through), and
    // dispatch edges carry no sequential facts.
    UAddr x0 = static_cast<UAddr>(img.allocated);
    UAddr x1 = static_cast<UAddr>(img.allocated + 1);
    img.ops[x0] = ucode::MicroOp{ucode::Dp::Nop, ucode::Mem::None,
                                 ucode::Ib::None, ucode::Seq::DecodeNext,
                                 0, 0};
    img.ops[x1] = ucode::MicroOp{ucode::Dp::TakeBranch, ucode::Mem::None,
                                 ucode::Ib::None, ucode::Seq::DecodeNext,
                                 0, 0};
    img.info[x0].row = Row::ExSimple;
    img.info[x1].row = Row::ExSimple;
    img.allocated += 2;
    img.execEntries[x1] = img.execEntries[img.execEntry[MovlOpcode]];
    img.execEntry[MovlOpcode] = x1;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL011"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(x1));
}

TEST(UlintSeeded, IntraWordBusConflictFiresUL011)
{
    MicrocodeImage img = copyShipped();
    // A result-writeback word whose memory function becomes a read:
    // the ReadV's MDR arrival clobbers the value the datapath just
    // drove, in the same cycle.
    UAddr a = 0;
    for (UAddr i = 1; i < img.allocated; ++i) {
        if (img.ops[i].dp == ucode::Dp::WriteResult) {
            a = i;
            break;
        }
    }
    ASSERT_NE(a, 0u);
    img.ops[a].mem = ucode::Mem::ReadV;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL011"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, ReachableOnlyThroughFlaggedWordFiresUL012)
{
    MicrocodeImage img = copyShipped();
    // The ABORT word gaining a memory function flags it (UL005 et
    // al.); the TB-miss service entries are reachable only through it,
    // so their attribution inherits the defect.
    img.ops[img.marks.abort].mem = ucode::Mem::WriteV;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL012"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(img.marks.tbMissD));
    EXPECT_TRUE(r.flags(img.marks.tbMissI));
}

TEST(UlintSeeded, AmbiguousCycleClassFiresUL013)
{
    MicrocodeImage img = copyShipped();
    // The HALT resting word with a memory function matches two cycle
    // classes (Halt by landmark identity, Read by memory function):
    // its histogram bucket no longer maps to one Table 8 column.
    img.ops[img.marks.halted].mem = ucode::Mem::ReadV;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL013"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(img.marks.halted));
}

TEST(UlintSeeded, CounterOutsideRowAllowanceFiresUL014)
{
    MicrocodeImage img = copyShipped();
    // An execute-row word acquiring the opcode-consuming IB function
    // could bump ibox.decodes — a counter its row must never generate.
    UAddr a = img.execEntry[MovlOpcode];
    ASSERT_NE(a, 0u);
    img.ops[a].ib = ucode::Ib::DecodeOp;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL014"), 1u) << r.toText();
    EXPECT_TRUE(r.flags(a));
}

TEST(UlintSeeded, MissingCoreEventCoverageFiresUL015)
{
    MicrocodeImage img = copyShipped();
    // Strip the decode word's IB function: no reachable word can bump
    // ibox.decodes any more, so the counter fabric went blind to a
    // core event.
    img.ops[img.marks.decode].ib = ucode::Ib::None;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL015"), 1u) << r.toText();
}

// UL016 cannot be seeded through lint(): the linter derives the
// decoded matrix itself, so a divergence only arises if the decoder
// or the effects map drifts — exactly the regression the rule guards.
// What we can prove here: the audit runs on every linted image
// (shipped, no-FPA, and defective copies) without cascading, so the
// UL013-UL015 verdicts always describe a verified decode.
TEST(UlintDecoded, DecodeStaysFaithfulEvenOnDefectiveImages)
{
    MicrocodeImage img = copyShipped();
    // Plant a UL005-class defect (memory function on the abort word):
    // the decoded matrix must still mirror the defective image
    // faithfully — UL016 audits decode fidelity, not word sanity.
    img.ops[img.marks.abort].mem = ucode::Mem::WriteV;

    Report r = lint(img);
    EXPECT_FALSE(r.clean());
    EXPECT_GE(r.countRule("UL005"), 1u) << r.toText();
    EXPECT_EQ(r.countRule("UL016"), 0u) << r.toText();
}

TEST(UlintReport, TextAndJsonCarryRuleIds)
{
    MicrocodeImage img = copyShipped();
    img.ops[img.marks.abort].mem = ucode::Mem::WriteV;

    Report r = lint(img);
    EXPECT_NE(r.toText().find("UL005"), std::string::npos);
    const json::Value doc = json::parse(r.toJson());
    EXPECT_FALSE(member(doc, "clean").asBool());
    size_t ul005 = 0;
    for (const json::Value &f : member(doc, "findings").asArray())
        ul005 += member(f, "rule").asString() == "UL005";
    EXPECT_EQ(ul005, r.countRule("UL005"));
    EXPECT_GE(ul005, 1u);

    Report clean = lint(ucode::microcodeImage());
    EXPECT_TRUE(member(json::parse(clean.toJson()), "clean").asBool());

    // A detail with quotes, backslashes and control characters
    // round-trips through both machine-readable documents.
    const std::string detail = "a\"b\\c\nd\x01";
    Report odd;
    odd.findings.push_back(
        {"UL999", ulint::Severity::Warning, 0x12, Row::None, detail});
    const json::Value j = json::parse(odd.toJson());
    EXPECT_EQ(member(member(j, "findings").asArray().at(0), "detail")
                  .asString(),
              detail);
    const json::Value sarif = json::parse(odd.toSarif());
    const json::Value &result =
        member(member(sarif, "runs").asArray().at(0), "results")
            .asArray()
            .at(0);
    EXPECT_EQ(member(member(result, "message"), "text").asString(),
              detail);
}

TEST(UlintReport, SarifCarriesRulesAndResults)
{
    MicrocodeImage img = copyShipped();
    img.ops[img.marks.abort].mem = ucode::Mem::WriteV;

    const json::Value s = json::parse(lint(img).toSarif());
    EXPECT_EQ(member(s, "version").asString(), "2.1.0");
    const json::Value &run = member(s, "runs").asArray().at(0);
    const json::Value &driver = member(member(run, "tool"), "driver");
    EXPECT_EQ(member(driver, "name").asString(), "ulint");
    size_t ul005 = 0;
    for (const json::Value &res : member(run, "results").asArray()) {
        if (member(res, "ruleId").asString() != "UL005")
            continue;
        ++ul005;
        EXPECT_EQ(member(res, "level").asString(), "error");
        // ruleIndex points at the driver's entry for the same rule.
        const json::Value &rule = member(driver, "rules").asArray().at(
            member(res, "ruleIndex").asUint());
        EXPECT_EQ(member(rule, "id").asString(), "UL005");
    }
    EXPECT_GE(ul005, 1u);

    const json::Value clean =
        json::parse(lint(ucode::microcodeImage()).toSarif());
    EXPECT_TRUE(member(member(clean, "runs").asArray().at(0), "results")
                    .asArray()
                    .empty());
}

TEST(UlintAttribution, ShippedMatrixIsUnambiguous)
{
    const MicrocodeImage &img = ucode::microcodeImage();
    MicroCfg cfg(img);
    ulint::EffectMap fx(img);

    // Every reachable word maps to exactly one cycle class, admitted
    // by its row — the property the runtime audit leans on.
    for (UAddr a = 1; a < img.allocated; ++a) {
        if (!cfg.reachable(a))
            continue;
        const ulint::WordEffects &w = fx.at(a);
        EXPECT_EQ(std::popcount(unsigned(w.candidates)), 1)
            << "ambiguous class at " << a;
        ASSERT_NE(img.rowOf(a), Row::None);
        EXPECT_NE(ulint::classBit(w.cls) &
                      ulint::EffectMap::allowedClasses(img.rowOf(a)),
                  0u)
            << "class outside row allowance at " << a;
    }

    // Landmarks classify by identity.
    EXPECT_EQ(fx.classOf(img.marks.halted), ulint::CycleClass::Halt);
    EXPECT_EQ(fx.classOf(img.marks.abort), ulint::CycleClass::Abort);
    EXPECT_EQ(fx.classOf(img.marks.ibStallDecode),
              ulint::CycleClass::IbStall);
    // Only words with a memory function can accrue stall cycles.
    EXPECT_FALSE(fx.canStall(img.marks.decode));
    EXPECT_FALSE(fx.canStall(img.marks.halted));
}

TEST(UlintAttribution, MatrixJsonNamesEveryAllocatedWord)
{
    const MicrocodeImage &img = ucode::microcodeImage();
    MicroCfg cfg(img);
    const json::Value j = json::parse(ulint::EffectMap(img).toJson(cfg));

    // One row per checked word, each naming its class and counters.
    const json::Array &rows = member(j, "rows").asArray();
    EXPECT_EQ(rows.size(), size_t(img.allocated) - 1);
    for (const json::Value &row : rows) {
        EXPECT_TRUE(member(row, "class").isString());
        EXPECT_TRUE(member(row, "counters").isArray());
    }
    EXPECT_EQ(member(rows.at(0), "addr").asUint(), 1u);
}
