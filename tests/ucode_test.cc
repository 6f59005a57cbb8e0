/**
 * @file
 * Microprogram structure tests: the assembled control store, its
 * landmarks, the analyzer annotations (every opcode has an execute
 * entry in the right activity row), the specifier dispatch tables,
 * and the microassembler.
 */

#include <gtest/gtest.h>

#include "arch/opcodes.hh"
#include "common/serial.hh"
#include "ucode/controlstore.hh"
#include "ucode/decoded.hh"
#include "ucode/uasm.hh"

using namespace upc780;
using namespace upc780::ucode;
using arch::Op;

TEST(MicroAssembler, EmitPatchAndRows)
{
    MicrocodeImage img;
    MicroAssembler uasm(img);
    uasm.row(Row::ExSimple);
    UAddr a = uasm.emit(uop(Dp::Exec));
    UAddr b = uasm.reserve();
    uasm.row(Row::BDisp);
    UAddr c = uasm.emit(uop(Dp::BranchTarget));
    uasm.patch(b, uop(Dp::Nop, Mem::None, Ib::None, Seq::Jump, c));

    EXPECT_EQ(img.rowOf(a), Row::ExSimple);
    EXPECT_EQ(img.rowOf(b), Row::ExSimple);
    EXPECT_EQ(img.rowOf(c), Row::BDisp);
    EXPECT_EQ(img.ops[b].seq, Seq::Jump);
    EXPECT_EQ(img.ops[b].target, c);
    EXPECT_EQ(img.allocated, 4u);  // address 0 is reserved
}

TEST(Microprogram, FitsControlStore)
{
    const MicrocodeImage &img = microcodeImage();
    EXPECT_GT(img.allocated, 200u);
    EXPECT_LT(img.allocated, ControlStoreSize);
}

TEST(Microprogram, LandmarksDistinctAndRowed)
{
    const MicrocodeImage &img = microcodeImage();
    const Landmarks &m = img.marks;
    UAddr all[] = {m.decode, m.ibStallDecode, m.ibStallSpec1,
                   m.ibStallSpec26, m.ibStallBdisp, m.abort, m.tbMissD,
                   m.tbMissI, m.intDispatch, m.halted};
    for (size_t i = 0; i < std::size(all); ++i) {
        EXPECT_NE(all[i], 0u);
        for (size_t j = i + 1; j < std::size(all); ++j)
            EXPECT_NE(all[i], all[j]);
    }
    EXPECT_EQ(img.rowOf(m.decode), Row::Decode);
    EXPECT_EQ(img.rowOf(m.ibStallDecode), Row::Decode);
    EXPECT_EQ(img.rowOf(m.ibStallSpec1), Row::Spec1);
    EXPECT_EQ(img.rowOf(m.ibStallSpec26), Row::Spec26);
    EXPECT_EQ(img.rowOf(m.ibStallBdisp), Row::BDisp);
    EXPECT_EQ(img.rowOf(m.abort), Row::Abort);
    EXPECT_EQ(img.rowOf(m.tbMissD), Row::MemMgmt);
    EXPECT_EQ(img.rowOf(m.tbMissI), Row::MemMgmt);
    EXPECT_EQ(img.rowOf(m.intDispatch), Row::IntExcept);
}

TEST(Microprogram, EveryOpcodeHasExecuteEntryInItsGroupRow)
{
    const MicrocodeImage &img = microcodeImage();
    for (unsigned b = 0; b < 256; ++b) {
        const auto &info = arch::opcodeInfo(static_cast<uint8_t>(b));
        if (!info.valid())
            continue;
        UAddr e = img.execEntry[b];
        ASSERT_NE(e, 0u) << "opcode " << b;
        EXPECT_EQ(img.rowOf(e), execRowFor(info.group))
            << "opcode " << b;
        // The entry must be annotated for the analyzer.
        auto it = img.execEntries.find(e);
        ASSERT_NE(it, img.execEntries.end()) << "opcode " << b;
        EXPECT_EQ(it->second.group, info.group) << "opcode " << b;
    }
}

TEST(Microprogram, SharedRoutinesStayWithinGroup)
{
    const MicrocodeImage &img = microcodeImage();
    // The paper's example: integer add and subtract share microcode.
    EXPECT_EQ(img.execEntry[static_cast<uint8_t>(Op::ADDL2)],
              img.execEntry[static_cast<uint8_t>(Op::SUBL2)]);
    // All simple conditional branches plus BRB/BRW share one routine.
    UAddr beql = img.execEntry[static_cast<uint8_t>(Op::BEQL)];
    EXPECT_EQ(img.execEntry[static_cast<uint8_t>(Op::BNEQ)], beql);
    EXPECT_EQ(img.execEntry[static_cast<uint8_t>(Op::BRB)], beql);
    EXPECT_EQ(img.execEntry[static_cast<uint8_t>(Op::BRW)], beql);
    // But CALLS and RET are distinct.
    EXPECT_NE(img.execEntry[static_cast<uint8_t>(Op::CALLS)],
              img.execEntry[static_cast<uint8_t>(Op::RET)]);
}

TEST(Microprogram, BranchFormatAnnotations)
{
    const MicrocodeImage &img = microcodeImage();
    auto note = [&](Op o) {
        return img.execEntries.at(
            img.execEntry[static_cast<uint8_t>(o)]);
    };
    EXPECT_TRUE(note(Op::BEQL).branchFormat);
    EXPECT_TRUE(note(Op::SOBGTR).branchFormat);
    EXPECT_TRUE(note(Op::BBS).branchFormat);
    EXPECT_FALSE(note(Op::JMP).branchFormat);   // address operand
    EXPECT_FALSE(note(Op::MOVL).branchFormat);
    EXPECT_FALSE(note(Op::CASEB).branchFormat); // table, not disp
}

TEST(Microprogram, SpecifierDispatchTablesComplete)
{
    const MicrocodeImage &img = microcodeImage();
    for (int f = 0; f < 2; ++f) {
        // Memory modes must have all four access buckets.
        for (SpecMode m : {SpecMode::RegDef, SpecMode::AutoInc,
                           SpecMode::AutoIncDef, SpecMode::AutoDec,
                           SpecMode::Disp, SpecMode::DispDef,
                           SpecMode::Abs}) {
            for (size_t b = 0; b < size_t(AccessBucket::NumBuckets);
                 ++b) {
                EXPECT_NE(img.specRoutine[f][size_t(m)][b], 0u)
                    << f << "/" << int(m) << "/" << b;
            }
            // Indexed base-calculation entry exists and lives in the
            // SPEC2-6 region (the paper's misattribution quirk).
            UAddr idx = img.idxRoutine[f][size_t(m)];
            ASSERT_NE(idx, 0u);
            EXPECT_EQ(img.rowOf(idx), Row::Spec26);
        }
        // Literal/immediate: read-only.
        EXPECT_NE(img.specRoutine[f][size_t(SpecMode::Lit)]
                                  [size_t(AccessBucket::Read)], 0u);
        EXPECT_NE(img.specRoutine[f][size_t(SpecMode::Imm)]
                                  [size_t(AccessBucket::Read)], 0u);
        EXPECT_NE(img.regFieldRoutine[f], 0u);
        EXPECT_NE(img.immQuadRoutine[f], 0u);
    }
}

TEST(Microprogram, SpecEntriesAnnotatedWithPosition)
{
    const MicrocodeImage &img = microcodeImage();
    // SPEC1 routines are annotated first=true and sit in the Spec1 row
    // (except indexed base calc, which the 780 shares in SPEC2-6).
    int first_entries = 0, other_entries = 0;
    for (const auto &[addr, note] : img.specEntries) {
        if (note.first)
            ++first_entries;
        else
            ++other_entries;
        if (!note.indexed) {
            EXPECT_EQ(img.rowOf(addr),
                      note.first ? Row::Spec1 : Row::Spec26);
        } else {
            EXPECT_EQ(img.rowOf(addr), Row::Spec26);
        }
    }
    EXPECT_GT(first_entries, 15);
    EXPECT_GT(other_entries, 15);
}

TEST(Microprogram, TakenEntriesCoverEveryPcClass)
{
    const MicrocodeImage &img = microcodeImage();
    bool seen[size_t(arch::PcClass::NumClasses)] = {};
    for (const auto &[addr, cls] : img.takenEntries) {
        seen[size_t(cls)] = true;
        EXPECT_EQ(img.ops[addr].dp, Dp::TakeBranch);
    }
    using arch::PcClass;
    for (PcClass c : {PcClass::SimpleCond, PcClass::Loop,
                      PcClass::LowBit, PcClass::Subroutine,
                      PcClass::Uncond, PcClass::Case,
                      PcClass::BitBranch, PcClass::Procedure,
                      PcClass::SystemBr}) {
        EXPECT_TRUE(seen[size_t(c)]) << int(c);
    }
}

TEST(Microprogram, MemoryOpsNeverCarryIbFunctions)
{
    // The cycle engine relies on memory micro-ops having no I-stream
    // side (so retries after TB-miss traps cannot double-consume).
    const MicrocodeImage &img = microcodeImage();
    for (uint32_t a = 1; a < img.allocated; ++a) {
        if (img.ops[a].mem != Mem::None) {
            EXPECT_EQ(img.ops[a].ib, Ib::None) << "uaddr " << a;
        }
    }
}

TEST(Microprogram, TbMissRoutinesEndInTrapReturn)
{
    const MicrocodeImage &img = microcodeImage();
    for (UAddr entry : {img.marks.tbMissD, img.marks.tbMissI}) {
        bool found = false;
        for (uint32_t a = entry;
             a < entry + 40u && a < img.allocated; ++a) {
            if (img.ops[a].seq == Seq::TrapReturn) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST(Microprogram, RowNamesMatchTable8)
{
    EXPECT_EQ(rowName(Row::Decode), "Decode");
    EXPECT_EQ(rowName(Row::Spec1), "SPEC1");
    EXPECT_EQ(rowName(Row::Spec26), "SPEC2-6");
    EXPECT_EQ(rowName(Row::BDisp), "B-DISP");
    EXPECT_EQ(rowName(Row::MemMgmt), "Mem Mgmt");
    EXPECT_EQ(rowName(Row::Abort), "Abort");
}

TEST(Microprogram, RegisterAltPathsExist)
{
    const MicrocodeImage &img = microcodeImage();
    // Modify-class and field-class instructions have register fast
    // paths with no memory micro-ops.
    for (Op o : {Op::ADDL2, Op::INCL, Op::SOBGTR, Op::EXTV, Op::BBS}) {
        UAddr alt = img.execEntryRegAlt[static_cast<uint8_t>(o)];
        ASSERT_NE(alt, 0u) << arch::opcodeInfo(o).mnemonic;
    }
    // Pure three-operand forms need none.
    EXPECT_EQ(img.execEntryRegAlt[static_cast<uint8_t>(Op::ADDL3)], 0u);
    EXPECT_EQ(img.execEntryRegAlt[static_cast<uint8_t>(Op::MOVL)], 0u);
}

TEST(Microprogram, NoFpaVariantSharesLayoutButCostsMore)
{
    const MicrocodeImage &fpa = microcodeImage();
    const MicrocodeImage &sw = microcodeImageNoFpa();
    // All landmarks coincide (the float differences are pads inside
    // execute routines, which allocate at the same growth point).
    EXPECT_EQ(fpa.marks.decode, sw.marks.decode);
    EXPECT_EQ(fpa.marks.ibStallDecode, sw.marks.ibStallDecode);
    EXPECT_EQ(fpa.marks.tbMissD, sw.marks.tbMissD);
    EXPECT_EQ(fpa.marks.intDispatch, sw.marks.intDispatch);
    // Specifier dispatch tables coincide too.
    EXPECT_EQ(fpa.specRoutine[1][size_t(SpecMode::Disp)]
                             [size_t(AccessBucket::Read)],
              sw.specRoutine[1][size_t(SpecMode::Disp)]
                            [size_t(AccessBucket::Read)]);
    // The software-float image is strictly larger.
    EXPECT_GT(sw.allocated, fpa.allocated);
    // Both map every opcode.
    for (unsigned b = 0; b < 256; ++b) {
        if (arch::opcodeInfo(static_cast<uint8_t>(b)).valid()) {
            EXPECT_NE(sw.execEntry[b], 0u) << b;
        }
    }
}

// ----- pre-decoded control store ---------------------------------------

TEST(DecodedStore, ClassifierFusesExactFieldCombinations)
{
    // Each fused handler accepts only the (dp, mem, ib, seq)
    // combination its straight-line body implements; one field off
    // must fall back to the always-correct Generic interpreter.
    EXPECT_EQ(classifyUop(uop(Dp::Nop)), Hx::Pad);
    EXPECT_EQ(classifyUop(uop(Dp::Nop, Mem::None, Ib::None,
                              Seq::SpecDispatch)),
              Hx::NopSpecDispatch);
    EXPECT_EQ(classifyUop(uop(Dp::Exec)), Hx::ExecNext);
    EXPECT_EQ(classifyUop(uop(Dp::Exec, Mem::None, Ib::None,
                              Seq::SpecDispatch)),
              Hx::ExecSpecDispatch);
    EXPECT_EQ(classifyUop(uop(Dp::ExecStep)), Hx::ExecStepNext);
    EXPECT_EQ(classifyUop(uop(Dp::BranchTarget)), Hx::BranchTargetNext);
    EXPECT_EQ(classifyUop(uop(Dp::TakeBranch, Mem::None, Ib::None,
                              Seq::DecodeNext)),
              Hx::TakeBranchDecode);
    EXPECT_EQ(classifyUop(uop(Dp::LoopDec, Mem::None, Ib::None,
                              Seq::JumpIfFlag)),
              Hx::LoopDecJif);
    EXPECT_EQ(classifyUop(uop(Dp::Nop, Mem::None, Ib::DecodeOp,
                              Seq::SpecDispatch)),
              Hx::Decode);
    EXPECT_EQ(classifyUop(uop(Dp::Exec, Mem::None, Ib::GetBranchDisp,
                              Seq::DecodeNextIfNotFlag)),
              Hx::ExecBdispCond);
    EXPECT_EQ(classifyUop(uop(Dp::OperandFromMdr, Mem::ReadV, Ib::None,
                              Seq::SpecDispatch)),
              Hx::OperandMdrRead);

    // Off-by-one-field cases must not be fused.
    EXPECT_EQ(classifyUop(uop(Dp::Nop, Mem::None, Ib::None, Seq::Jump)),
              Hx::Generic);
    EXPECT_EQ(classifyUop(uop(Dp::Exec, Mem::ReadV)), Hx::Generic);
    EXPECT_EQ(classifyUop(uop(Dp::TakeBranch)), Hx::Generic);
    EXPECT_EQ(classifyUop(uop(Dp::Exec, Mem::None, Ib::GetBranchDisp)),
              Hx::Generic);
    // brtgt / bdisp / next has no form: no shipped word takes it.
    EXPECT_EQ(classifyUop(uop(Dp::BranchTarget, Mem::None,
                              Ib::GetBranchDisp)),
              Hx::Generic);
}

TEST(DecodedStore, ShippedClassificationPinned)
{
    // FNV-1a of the per-word form vector of each shipped image: an
    // edit of the form table that fuses a different set of words, or
    // reorders Hx, fails here. Re-pinned when the brtgt / bdisp / next
    // form, which no shipped word took, was deleted: only the numbering
    // of the Hx values after it shifted; every word keeps its form.
    auto formHash = [](const MicrocodeImage &img) {
        std::vector<uint8_t> v;
        for (uint32_t a = 0; a < ControlStoreSize; ++a)
            v.push_back(static_cast<uint8_t>(classifyUop(img.ops[a])));
        return fnv1a(v);
    };
    EXPECT_EQ(formHash(microcodeImage()), 0x190be3b04a187c2bull);
    EXPECT_EQ(formHash(microcodeImageNoFpa()), 0x1c5ed1b0c0fbe04bull);

    // Every fused form is live in a shipped image, and no word
    // matches two forms (so "first match" is not an order dependence).
    std::vector<bool> used(std::size(forms), false);
    for (const MicrocodeImage *img :
         {&microcodeImage(), &microcodeImageNoFpa()}) {
        for (uint32_t a = 0; a < ControlStoreSize; ++a) {
            unsigned hits = 0;
            for (const Form &f : forms) {
                if (f.matches(img->ops[a])) {
                    ++hits;
                    used[static_cast<size_t>(f.h)] = true;
                }
            }
            EXPECT_LE(hits, 1u) << "addr " << a;
        }
    }
    for (const Form &f : forms) {
        if (f.h == Hx::Generic)
            continue;
        EXPECT_TRUE(used[static_cast<size_t>(f.h)]) << f.name;
    }
}

TEST(DecodedStore, RegistrySharesOneDecodePerImage)
{
    auto a = decodedImage(microcodeImage());
    auto b = decodedImage(microcodeImage());
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->source, &microcodeImage());
    auto c = decodedImage(microcodeImageNoFpa());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(c->source, &microcodeImageNoFpa());
}

TEST(DecodedStore, PadRunLengthsChainThroughSuperblocks)
{
    auto dec = decodedImage(microcodeImage());
    bool sawRun = false;
    for (uint32_t a = 1; a < microcodeImage().allocated; ++a) {
        const DecodedRow &r = dec->rows[a];
        if (r.h != Hx::Pad) {
            EXPECT_EQ(r.runLen, 0u) << "addr " << a;
            continue;
        }
        // runLen counts this pad plus every consecutive pad after it.
        uint16_t expect = 1;
        if (a + 1 < ControlStoreSize && dec->rows[a + 1].h == Hx::Pad)
            expect = uint16_t(dec->rows[a + 1].runLen + 1);
        EXPECT_EQ(r.runLen, expect) << "addr " << a;
        if (r.runLen > 1)
            sawRun = true;
    }
    // The shipped image must actually contain multi-word pad runs, or
    // the micro-trace cache would never batch anything.
    EXPECT_TRUE(sawRun);
}

TEST(DecodedStore, VerifyAcceptsShippedImagesAndRejectsCorruption)
{
    const MicrocodeImage &img = microcodeImage();
    auto dec = decodedImage(img);
    EXPECT_TRUE(verifyDecoded(img, *dec).empty());
    EXPECT_TRUE(verifyDecoded(microcodeImageNoFpa(),
                              *decodedImage(microcodeImageNoFpa()))
                    .empty());

    // Corrupt one aspect at a time on a private copy; each mutation
    // must produce at least one finding.
    DecodedImage bad = *dec;
    bad.rows[img.marks.decode].op.seq = Seq::Jump;
    EXPECT_FALSE(verifyDecoded(img, bad).empty()) << "mutated op";

    bad = *dec;
    bad.rows[img.marks.decode].h = Hx::Pad;
    EXPECT_FALSE(verifyDecoded(img, bad).empty()) << "wrong handler";

    bad = *dec;
    bad.rows[img.marks.decode].self = 0;
    EXPECT_FALSE(verifyDecoded(img, bad).empty()) << "wrong self";

    bad = *dec;
    bad.rows[img.marks.decode].memRead = 1;
    EXPECT_FALSE(verifyDecoded(img, bad).empty()) << "wrong class";

    bad = *dec;
    for (uint32_t a = 1; a < img.allocated; ++a) {
        if (bad.rows[a].h == Hx::Pad && bad.rows[a].runLen > 1) {
            bad.rows[a].runLen = 1;
            EXPECT_FALSE(verifyDecoded(img, bad).empty())
                << "broken run chain";
            break;
        }
    }

    bad = *dec;
    bad.source = nullptr;
    EXPECT_FALSE(verifyDecoded(img, bad).empty()) << "wrong source";
}
