#include "ulint/ulint.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "arch/opcodes.hh"
#include "arch/specifier.hh"
#include "common/json.hh"
#include "ucode/decoded.hh"
#include "ulint/dataflow.hh"
#include "ulint/effects.hh"
#include "ulint/verified.hh"

namespace upc780::ulint
{

using arch::PcClass;
using ucode::AccessBucket;
using ucode::Ib;
using ucode::Mem;
using ucode::MicrocodeImage;
using ucode::Row;
using ucode::Seq;
using ucode::SpecMode;

std::string_view
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

bool
Report::clean() const
{
    for (const Finding &f : findings)
        if (f.severity == Severity::Error)
            return false;
    return true;
}

size_t
Report::countRule(std::string_view rule) const
{
    size_t n = 0;
    for (const Finding &f : findings)
        if (f.rule == rule)
            ++n;
    return n;
}

bool
Report::flags(UAddr a) const
{
    for (const Finding &f : findings)
        if (f.addr == a)
            return true;
    return false;
}

namespace
{

std::string
fmt(const char *format, ...)
{
    va_list ap;
    va_start(ap, format);
    char buf[512];
    vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

/** Which (mode, access) pairs the decode hardware dispatches to. */
bool
specPairValid(SpecMode m, AccessBucket b)
{
    if (m == SpecMode::Lit || m == SpecMode::Imm)
        return b == AccessBucket::Read;
    if (m == SpecMode::Reg)
        return b != AccessBucket::Addr;
    return true;
}

/** Memory base modes that can carry an index prefix. */
bool
specModeIndexable(SpecMode m)
{
    return m != SpecMode::Lit && m != SpecMode::Reg && m != SpecMode::Imm;
}

const char *
specModeName(SpecMode m)
{
    switch (m) {
      case SpecMode::Lit: return "literal";
      case SpecMode::Reg: return "register";
      case SpecMode::RegDef: return "register-deferred";
      case SpecMode::AutoInc: return "autoincrement";
      case SpecMode::AutoIncDef: return "autoinc-deferred";
      case SpecMode::AutoDec: return "autodecrement";
      case SpecMode::Disp: return "displacement";
      case SpecMode::DispDef: return "disp-deferred";
      case SpecMode::Abs: return "absolute";
      case SpecMode::Imm: return "immediate";
      default: return "?";
    }
}

const char *
bucketName(AccessBucket b)
{
    switch (b) {
      case AccessBucket::Read: return "read";
      case AccessBucket::Write: return "write";
      case AccessBucket::Modify: return "modify";
      case AccessBucket::Addr: return "addr";
      default: return "?";
    }
}

/** The Table 4 class a specifier-routine family serves. */
arch::SpecClass
specClassFor(SpecMode m)
{
    switch (m) {
      case SpecMode::Lit: return arch::SpecClass::ShortLiteral;
      case SpecMode::Reg: return arch::SpecClass::Register;
      case SpecMode::RegDef: return arch::SpecClass::RegDeferred;
      case SpecMode::AutoInc: return arch::SpecClass::AutoIncrement;
      case SpecMode::AutoIncDef: return arch::SpecClass::AutoIncDeferred;
      case SpecMode::AutoDec: return arch::SpecClass::AutoDecrement;
      case SpecMode::Disp: return arch::SpecClass::Displacement;
      case SpecMode::DispDef: return arch::SpecClass::DispDeferred;
      case SpecMode::Abs: return arch::SpecClass::Absolute;
      case SpecMode::Imm:
      default: return arch::SpecClass::Immediate;
    }
}

/** Runs the rules and accumulates findings. */
class Linter
{
  public:
    Linter(const MicrocodeImage &img, const MicroCfg &cfg,
           const EffectMap &fx)
        : img_(img), cfg_(cfg), fx_(fx)
    {
    }

    Report
    run()
    {
        rep_.wordsChecked = img_.allocated;
        rep_.reachableWords = cfg_.reachableCount();
        checkLandmarks();
        checkReachabilityRows();   // UL001, UL002
        checkDanglingEdges();      // UL003 (per-word sequencer targets)
        checkDispatchTables();     // UL003, UL004, UL007, UL009
        checkExecTables();         // UL003, UL004, UL007, UL009
        checkMemRowConflicts();    // UL005
        checkIbStallWords();       // UL006
        checkAnnotationKeys();     // UL007, UL008
        checkTakenEntries();       // UL007
        checkDecodedRows();        // UL016 (before UL013-UL015: their
                                   // verdicts are about the decoded
                                   // matrix only if the decode is true)
        checkCycleClasses();       // UL013
        checkCounterEffects();     // UL014, UL015
        checkDataflow();           // UL010, UL011
        checkCutReachability();    // UL012 (last: consumes the rest)
        return std::move(rep_);
    }

  private:
    void
    add(const char *rule, UAddr a, std::string detail)
    {
        rep_.findings.push_back(Finding{
            rule, Severity::Error, a, a < ucode::ControlStoreSize
                                          ? img_.rowOf(a)
                                          : Row::None,
            std::move(detail)});
    }

    bool inStore(UAddr a) const { return a != 0 && a < img_.allocated; }

    // A landmark, dispatch-table entry, or annotation key that is
    // absent (0) or out of range gets one finding here; every other
    // rule then skips it instead of cascading.
    bool
    requireInStore(const char *rule, UAddr a, const char *what)
    {
        if (inStore(a))
            return true;
        if (a == 0)
            add(rule, 0, fmt("%s is missing", what));
        else
            add("UL003", a,
                fmt("%s points outside the allocated store "
                    "(0x%04x >= 0x%04x)",
                    what, a, img_.allocated));
        return false;
    }

    void
    requireReachable(UAddr a, const char *what)
    {
        if (!cfg_.reachable(a))
            add("UL004", a, fmt("%s at 0x%04x is not reachable from "
                                "uDECODE", what, a));
    }

    void
    requireRow(UAddr a, Row want, const char *what)
    {
        if (img_.rowOf(a) != want) {
            add("UL009", a,
                fmt("%s at 0x%04x is rowed %s, expected %s", what, a,
                    std::string(ucode::rowName(img_.rowOf(a))).c_str(),
                    std::string(ucode::rowName(want)).c_str()));
        }
    }

    void checkLandmarks();
    void checkReachabilityRows();
    void checkDanglingEdges();
    void checkDispatchTables();
    void checkExecTables();
    void checkMemRowConflicts();
    void checkIbStallWords();
    void checkAnnotationKeys();
    void checkTakenEntries();
    void checkDecodedRows();
    void checkCycleClasses();
    void checkCounterEffects();
    void checkDataflow();
    void checkCutReachability();

    /** Check one spec-routine entry against its annotation. */
    void specEntryNote(UAddr a, bool first, bool indexed,
                       arch::SpecClass cls, const char *what);

    const MicrocodeImage &img_;
    const MicroCfg &cfg_;
    const EffectMap &fx_;
    Report rep_;
};

void
Linter::checkLandmarks()
{
    const ucode::Landmarks &mk = img_.marks;
    struct Mark
    {
        UAddr addr;
        Row row;
        const char *name;
    };
    const Mark marks[] = {
        {mk.decode, Row::Decode, "uDECODE landmark"},
        {mk.ibStallDecode, Row::Decode, "IB-stall (opcode) landmark"},
        {mk.ibStallSpec1, Row::Spec1, "IB-stall (spec 1) landmark"},
        {mk.ibStallSpec26, Row::Spec26, "IB-stall (spec 2-6) landmark"},
        {mk.ibStallBdisp, Row::BDisp, "IB-stall (b-disp) landmark"},
        {mk.abort, Row::Abort, "ABORT landmark"},
        {mk.tbMissD, Row::MemMgmt, "D-stream TB-miss entry"},
        {mk.tbMissI, Row::MemMgmt, "I-stream TB-miss entry"},
        {mk.intDispatch, Row::IntExcept, "interrupt dispatch entry"},
        {mk.machineCheck, Row::IntExcept, "machine-check dispatch entry"},
        {mk.halted, Row::ExSystem, "HALT resting word"},
    };
    for (const Mark &m : marks) {
        if (!requireInStore("UL004", m.addr, m.name))
            continue;
        requireReachable(m.addr, m.name);
        requireRow(m.addr, m.row, m.name);
    }
}

void
Linter::checkReachabilityRows()
{
    for (UAddr a = 1; a < img_.allocated; ++a) {
        if (cfg_.reachable(a)) {
            if (img_.rowOf(a) == Row::None) {
                add("UL001", a,
                    fmt("reachable word 0x%04x has no activity row: its "
                        "cycles would vanish from Table 8", a));
            }
        } else {
            add("UL002", a,
                fmt("word 0x%04x is allocated but unreachable from "
                    "uDECODE (dead microcode rowed %s)", a,
                    std::string(ucode::rowName(img_.rowOf(a))).c_str()));
        }
    }
    // A rowed address beyond the allocated region claims activity that
    // the assembler never emitted.
    for (uint32_t a = img_.allocated; a < ucode::ControlStoreSize; ++a) {
        if (img_.info[a].row != Row::None) {
            add("UL002", UAddr(a),
                fmt("unallocated address 0x%04x carries row %s", a,
                    std::string(
                        ucode::rowName(img_.info[a].row)).c_str()));
        }
    }
}

void
Linter::checkDanglingEdges()
{
    for (const auto &[from, to] : cfg_.danglingEdges()) {
        add("UL003", from,
            fmt("word 0x%04x (%s) sequences to invalid address 0x%04x",
                from,
                std::string(ucode::seqName(img_.ops[from].seq)).c_str(),
                to));
    }
}

void
Linter::specEntryNote(UAddr a, bool first, bool indexed,
                      arch::SpecClass cls, const char *what)
{
    auto it = img_.specEntries.find(a);
    if (it == img_.specEntries.end()) {
        add("UL007", a,
            fmt("%s at 0x%04x has no specifier-entry annotation: the "
                "analyzer cannot attribute its dispatches", what, a));
        return;
    }
    const ucode::SpecEntryNote &note = it->second;
    if (note.first != first || note.indexed != indexed ||
        note.cls != cls) {
        add("UL007", a,
            fmt("%s at 0x%04x is annotated (first=%d indexed=%d "
                "class=%s), dispatch table says (first=%d indexed=%d "
                "class=%s)",
                what, a, note.first, note.indexed,
                std::string(arch::specClassName(note.cls)).c_str(),
                first, indexed,
                std::string(arch::specClassName(cls)).c_str()));
    }
    // The row the paper's attribution requires: indexed base calc is
    // shared microcode in the SPEC2-6 region regardless of position
    // (the §5 reporting quirk); otherwise position decides.
    Row want = (!indexed && first) ? Row::Spec1 : Row::Spec26;
    requireRow(a, want, what);
}

void
Linter::checkDispatchTables()
{
    char what[128];
    for (int f = 0; f < 2; ++f) {
        const bool first = f == 1;
        const char *pos = first ? "spec-1" : "spec-2-6";
        for (size_t mi = 0; mi < size_t(SpecMode::NumModes); ++mi) {
            SpecMode m = SpecMode(mi);
            for (size_t bi = 0; bi < size_t(AccessBucket::NumBuckets);
                 ++bi) {
                AccessBucket b = AccessBucket(bi);
                UAddr a = img_.specRoutine[f][mi][bi];
                snprintf(what, sizeof(what), "%s %s/%s routine", pos,
                         specModeName(m), bucketName(b));
                if (!specPairValid(m, b)) {
                    if (a != 0) {
                        add("UL003", a,
                            fmt("%s exists for an impossible "
                                "(mode, access) pair", what));
                    }
                    continue;
                }
                if (!requireInStore("UL004", a, what))
                    continue;
                requireReachable(a, what);
                specEntryNote(a, first, false, specClassFor(m), what);
            }

            // Indexed base-address calculation entries.
            UAddr ia = img_.idxRoutine[f][mi];
            snprintf(what, sizeof(what), "%s indexed %s base calc", pos,
                     specModeName(m));
            if (!specModeIndexable(m)) {
                if (ia != 0) {
                    add("UL003", ia,
                        fmt("%s exists for a non-indexable mode", what));
                }
                continue;
            }
            if (!requireInStore("UL004", ia, what))
                continue;
            requireReachable(ia, what);
            specEntryNote(ia, first, true, specClassFor(m), what);
        }

        for (size_t bi = 0; bi < size_t(AccessBucket::NumBuckets); ++bi) {
            UAddr a = img_.idxTail[f][bi];
            snprintf(what, sizeof(what), "%s post-index %s tail", pos,
                     bucketName(AccessBucket(bi)));
            if (!requireInStore("UL004", a, what))
                continue;
            requireReachable(a, what);
        }

        UAddr rf = img_.regFieldRoutine[f];
        snprintf(what, sizeof(what), "%s register-field routine", pos);
        if (requireInStore("UL004", rf, what)) {
            requireReachable(rf, what);
            specEntryNote(rf, first, false, arch::SpecClass::Register,
                          what);
        }

        UAddr iq = img_.immQuadRoutine[f];
        snprintf(what, sizeof(what), "%s quad-immediate routine", pos);
        if (requireInStore("UL004", iq, what)) {
            requireReachable(iq, what);
            specEntryNote(iq, first, false, arch::SpecClass::Immediate,
                          what);
        }
    }
}

void
Linter::checkExecTables()
{
    char what[128];
    for (unsigned b = 0; b < 256; ++b) {
        const arch::OpcodeInfo &info =
            arch::opcodeInfo(static_cast<uint8_t>(b));
        for (int alt = 0; alt < 2; ++alt) {
            UAddr a = alt ? img_.execEntryRegAlt[b] : img_.execEntry[b];
            snprintf(what, sizeof(what), "%s execute entry for %s (0x%02x)",
                     alt ? "fast-path" : "primary",
                     info.valid() ? std::string(info.mnemonic).c_str()
                                  : "undefined opcode",
                     b);
            if (!info.valid()) {
                if (a != 0) {
                    add("UL003", a,
                        fmt("%s: undefined opcodes must not dispatch",
                            what));
                }
                continue;
            }
            if (a == 0) {
                // Only the primary entry is mandatory; the register
                // fast path is an optimization of some routines.
                if (!alt) {
                    add("UL004", 0, fmt("%s is missing", what));
                }
                continue;
            }
            if (!requireInStore("UL004", a, what))
                continue;
            requireReachable(a, what);

            auto it = img_.execEntries.find(a);
            if (it == img_.execEntries.end()) {
                add("UL007", a,
                    fmt("%s at 0x%04x has no execute-entry annotation",
                        what, a));
                continue;
            }
            const ucode::ExecEntryNote &note = it->second;
            if (note.group != info.group) {
                add("UL007", a,
                    fmt("%s at 0x%04x is annotated group %s, opcode "
                        "table says %s",
                        what, a,
                        std::string(
                            arch::groupName(note.group)).c_str(),
                        std::string(
                            arch::groupName(info.group)).c_str()));
            }
            // A branch-format routine consumes its displacement at the
            // entry word; the annotation must agree or the analyzer's
            // displacement accounting drifts.
            const bool pulls_disp =
                img_.ops[a].ib == Ib::GetBranchDisp;
            if (note.branchFormat != pulls_disp) {
                add("UL007", a,
                    fmt("%s at 0x%04x: branchFormat=%d but the entry "
                        "word %s a branch displacement",
                        what, a, note.branchFormat,
                        pulls_disp ? "consumes" : "does not consume"));
            }
            requireRow(a, ucode::execRowFor(info.group), what);
        }
    }
}

void
Linter::checkMemRowConflicts()
{
    for (UAddr a = 1; a < img_.allocated; ++a) {
        if (img_.ops[a].mem == Mem::None)
            continue;
        Row r = img_.rowOf(a);
        if (r == Row::Decode || r == Row::BDisp || r == Row::Abort) {
            add("UL005", a,
                fmt("word 0x%04x issues memory function %s but claims "
                    "compute-only row %s", a,
                    std::string(ucode::memName(img_.ops[a].mem)).c_str(),
                    std::string(ucode::rowName(r)).c_str()));
        }
    }
}

void
Linter::checkIbStallWords()
{
    const ucode::Landmarks &mk = img_.marks;
    struct Stall
    {
        UAddr addr;
        const char *name;
    };
    const Stall stalls[] = {
        {mk.ibStallDecode, "IB-stall (opcode)"},
        {mk.ibStallSpec1, "IB-stall (spec 1)"},
        {mk.ibStallSpec26, "IB-stall (spec 2-6)"},
        {mk.ibStallBdisp, "IB-stall (b-disp)"},
    };

    // Pairwise distinct: each stall context is a separate Table 8 cell.
    for (size_t i = 0; i < std::size(stalls); ++i) {
        for (size_t j = i + 1; j < std::size(stalls); ++j) {
            if (stalls[i].addr != 0 && stalls[i].addr == stalls[j].addr) {
                add("UL006", stalls[i].addr,
                    fmt("%s and %s share address 0x%04x: their stall "
                        "cycles cannot be told apart", stalls[i].name,
                        stalls[j].name, stalls[i].addr));
            }
        }
    }

    // Each stall word must be uniquely the "insufficient bytes"
    // microinstruction: a pure no-op that is neither another landmark
    // nor a dispatch entry nor an annotated address — any aliasing
    // folds real work into the IB-stall column.
    for (const Stall &s : stalls) {
        if (!inStore(s.addr))
            continue;  // UL004 from checkLandmarks
        const ucode::MicroOp &op = img_.ops[s.addr];
        if (op.dp != ucode::Dp::Nop || op.mem != Mem::None ||
            op.ib != Ib::None) {
            add("UL006", s.addr,
                fmt("%s word 0x%04x is not a pure no-op (dp=%s mem=%s "
                    "ib=%s)", s.name, s.addr,
                    std::string(ucode::dpName(op.dp)).c_str(),
                    std::string(ucode::memName(op.mem)).c_str(),
                    std::string(ucode::ibName(op.ib)).c_str()));
        }
        const UAddr others[] = {mk.decode, mk.abort, mk.tbMissD,
                                mk.tbMissI, mk.intDispatch,
                                mk.machineCheck, mk.halted};
        for (UAddr o : others) {
            if (s.addr == o) {
                add("UL006", s.addr,
                    fmt("%s word 0x%04x aliases another landmark",
                        s.name, s.addr));
            }
        }
        const auto &fan = cfg_.dispatchFanout();
        if (std::binary_search(fan.begin(), fan.end(), s.addr)) {
            add("UL006", s.addr,
                fmt("%s word 0x%04x is also a dispatch entry", s.name,
                    s.addr));
        }
        if (img_.specEntries.count(s.addr) ||
            img_.execEntries.count(s.addr) ||
            img_.takenEntries.count(s.addr)) {
            add("UL006", s.addr,
                fmt("%s word 0x%04x carries an analyzer annotation",
                    s.name, s.addr));
        }
    }
}

void
Linter::checkAnnotationKeys()
{
    // Every specifier-entry annotation must be the target of some
    // dispatch-table slot; a stale key would make the analyzer count
    // dispatches that cannot happen.
    std::unordered_set<UAddr> spec_targets;
    for (int f = 0; f < 2; ++f) {
        for (size_t mi = 0; mi < size_t(SpecMode::NumModes); ++mi) {
            for (size_t bi = 0; bi < size_t(AccessBucket::NumBuckets);
                 ++bi)
                spec_targets.insert(img_.specRoutine[f][mi][bi]);
            spec_targets.insert(img_.idxRoutine[f][mi]);
        }
        spec_targets.insert(img_.regFieldRoutine[f]);
        spec_targets.insert(img_.immQuadRoutine[f]);
    }
    for (const auto &[a, note] : img_.specEntries) {
        if (!spec_targets.count(a)) {
            add("UL007", a,
                fmt("stale specifier-entry annotation at 0x%04x: no "
                    "dispatch-table slot targets it", a));
        }
    }

    std::unordered_set<UAddr> exec_targets;
    for (unsigned b = 0; b < 256; ++b) {
        exec_targets.insert(img_.execEntry[b]);
        exec_targets.insert(img_.execEntryRegAlt[b]);
    }
    for (const auto &[a, note] : img_.execEntries) {
        if (!exec_targets.count(a)) {
            add("UL007", a,
                fmt("stale execute-entry annotation at 0x%04x: no "
                    "opcode dispatches to it", a));
        }
    }

    // One address, one attribution: an address in several annotation
    // maps (or annotating a landmark) is counted by several analyzer
    // tables at once.
    const ucode::Landmarks &mk = img_.marks;
    const UAddr landmark_addrs[] = {
        mk.decode, mk.ibStallDecode, mk.ibStallSpec1, mk.ibStallSpec26,
        mk.ibStallBdisp, mk.abort, mk.tbMissD, mk.tbMissI,
        mk.intDispatch, mk.machineCheck, mk.halted};
    auto is_landmark = [&](UAddr a) {
        return std::find(std::begin(landmark_addrs),
                         std::end(landmark_addrs), a) !=
               std::end(landmark_addrs);
    };

    std::unordered_map<UAddr, int> uses;
    for (const auto &[a, n] : img_.specEntries)
        ++uses[a];
    for (const auto &[a, n] : img_.execEntries)
        ++uses[a];
    for (const auto &[a, n] : img_.takenEntries)
        ++uses[a];
    for (const auto &[a, n] : uses) {
        if (n > 1) {
            add("UL008", a,
                fmt("address 0x%04x carries %d annotations: the "
                    "analyzer would double-count its executions", a, n));
        }
        if (is_landmark(a)) {
            add("UL008", a,
                fmt("landmark address 0x%04x also carries an "
                    "annotation: its cycles would be counted twice",
                    a));
        }
    }
}

void
Linter::checkTakenEntries()
{
    for (const auto &[a, cls] : img_.takenEntries) {
        if (!requireInStore("UL007", a, "taken-branch annotation"))
            continue;
        if (img_.ops[a].dp != ucode::Dp::TakeBranch) {
            add("UL007", a,
                fmt("taken-branch annotation at 0x%04x does not sit on "
                    "a TakeBranch microword (dp=%s)", a,
                    std::string(
                        ucode::dpName(img_.ops[a].dp)).c_str()));
        }
        if (cls == PcClass::None) {
            add("UL007", a,
                fmt("taken-branch annotation at 0x%04x has no "
                    "PC-change class", a));
        }
        if (!cfg_.reachable(a)) {
            add("UL004", a,
                fmt("taken-branch word 0x%04x is not reachable", a));
        }
    }
}

namespace
{

/** "compute/read" style list of the classes in @p m. */
std::string
classList(ClassMask m)
{
    std::string s;
    for (size_t c = 0; c < size_t(CycleClass::NumClasses); ++c) {
        if (!(m & classBit(CycleClass(c))))
            continue;
        if (!s.empty())
            s += '/';
        s += cycleClassName(CycleClass(c));
    }
    return s.empty() ? "none" : s;
}

/** Comma-separated obs event names for the counters in @p m. */
std::string
counterList(CounterMask m)
{
    std::string s;
    for (uint32_t e = 0; e < obs::NumEvents; ++e) {
        if (!(m & counterBit(obs::Ev(e))))
            continue;
        if (!s.empty())
            s += ", ";
        s += obs::evName(obs::Ev(e));
    }
    return s.empty() ? "none" : s;
}

} // namespace

void
Linter::checkDecodedRows()
{
    // The structural audit (verbatim copy, form agreement, pad
    // run-length chains) lives next to the decoder so the registry
    // and the linter can never drift apart on what "faithful" means.
    std::shared_ptr<const ucode::DecodedImage> dec =
        ucode::decodedImage(img_);
    for (const std::string &f : ucode::verifyDecoded(img_, *dec))
        add("UL016", 0, f);

    // Cross-check the decoded static cycle class against the effects
    // map: the threaded dispatcher files read/write cycles by the
    // row's memRead/memWrite bits, the analyzer by the effects-map
    // class. If they disagree, the two dispatchers would split Table 8
    // columns differently for the same trajectory.
    for (UAddr a = 1; a < img_.allocated; ++a) {
        if (!cfg_.reachable(a))
            continue;
        const ucode::DecodedRow &row = dec->rows[a];
        const WordEffects &w = fx_.at(a);
        const bool rd = (w.candidates & classBit(CycleClass::Read)) != 0;
        const bool wr = (w.candidates & classBit(CycleClass::Write)) != 0;
        if ((row.memRead != 0) != rd || (row.memWrite != 0) != wr) {
            add("UL016", a,
                fmt("word 0x%04x: decoded row files cycles as %s/%s "
                    "but the effects map classes it %s/%s",
                    a, row.memRead ? "read" : "-",
                    row.memWrite ? "write" : "-", rd ? "read" : "-",
                    wr ? "write" : "-"));
        }
    }
}

void
Linter::checkCycleClasses()
{
    for (UAddr a = 1; a < img_.allocated; ++a) {
        if (!cfg_.reachable(a))
            continue;
        const WordEffects &w = fx_.at(a);

        int ncand = 0;
        for (size_t c = 0; c < size_t(CycleClass::NumClasses); ++c)
            if (w.candidates & classBit(CycleClass(c)))
                ++ncand;
        if (ncand != 1) {
            add("UL013", a,
                fmt("word 0x%04x matches %d cycle classes (%s): its "
                    "histogram cycles cannot be filed in one Table 8 "
                    "column", a, ncand,
                    classList(w.candidates).c_str()));
        }

        // An unrowed word is UL001's finding; judging its class
        // against an empty allowed set would only cascade.
        Row r = img_.rowOf(a);
        if (r == Row::None)
            continue;
        if (!(classBit(w.cls) & EffectMap::allowedClasses(r))) {
            add("UL013", a,
                fmt("word 0x%04x has cycle class %s, which row %s does "
                    "not admit (allowed: %s)", a,
                    std::string(cycleClassName(w.cls)).c_str(),
                    std::string(ucode::rowName(r)).c_str(),
                    classList(EffectMap::allowedClasses(r)).c_str()));
        }
    }
}

void
Linter::checkCounterEffects()
{
    CounterMask coverage = 0;
    for (UAddr a = 1; a < img_.allocated; ++a) {
        if (!cfg_.reachable(a))
            continue;
        const WordEffects &w = fx_.at(a);
        coverage |= w.counters;

        Row r = img_.rowOf(a);
        if (r == Row::None)
            continue;  // UL001's finding; the row has no counter set
        CounterMask excess = w.counters & ~EffectMap::allowedCounters(r);
        if (excess) {
            add("UL014", a,
                fmt("word 0x%04x can bump counters row %s cannot "
                    "generate: %s", a,
                    std::string(ucode::rowName(r)).c_str(),
                    counterList(excess).c_str()));
        }
    }

    // Every counter the analyzer's cross-checks consume must have at
    // least one reachable producer, or the dynamic audit for it is
    // vacuous.
    const obs::Ev core[] = {
        obs::Ev::IboxDecodes,        obs::Ev::EboxUops,
        obs::Ev::EboxIbStallCycles,  obs::Ev::EboxStallCycles,
        obs::Ev::EboxAborts,         obs::Ev::EboxHaltCycles,
        obs::Ev::EboxMemReadCycles,  obs::Ev::EboxMemWriteCycles,
        obs::Ev::TbMissServicesD,    obs::Ev::TbMissServicesI,
        obs::Ev::IrqDispatches,      obs::Ev::MachineChecks,
    };
    for (obs::Ev e : core) {
        if (!(coverage & counterBit(e))) {
            add("UL015", 0,
                fmt("no reachable word can generate counter %s: the "
                    "dynamic attribution check for it is vacuous",
                    std::string(obs::evName(e)).c_str()));
        }
    }
}

void
Linter::checkDataflow()
{
    const uint32_t n = img_.allocated;
    std::vector<RegEffects> fx(n);
    for (UAddr a = 1; a < n; ++a)
        fx[a] = regEffects(img_.ops[a]);

    // ---- UL010: dead pure writes. Backward liveness (union meet)
    // over the full CFG: over-approximated successors can only keep
    // more values live, so a write this analysis calls dead is dead
    // under every path the hardware can actually take.
    Problem live;
    live.dir = Direction::Backward;
    live.meet = Meet::Union;
    live.top = 0;
    live.gen.resize(n, 0);
    live.kill.resize(n, 0);
    for (UAddr a = 1; a < n; ++a) {
        live.gen[a] = fx[a].liveUse();
        live.kill[a] = fx[a].defMust();
    }
    Solution lv = solve(cfg_, live);
    if (!lv.converged) {
        add("UL010", 0,
            fmt("liveness did not reach a fixpoint after %u steps",
                lv.steps));
    } else {
        for (UAddr a = 1; a < n; ++a) {
            if (!cfg_.reachable(a) || !fx[a].pureDef)
                continue;
            const RegMask later = fx[a].useMem | fx[a].usePost;
            RegMask dead = fx[a].defPre & ~later & ~lv.out[a];
            for (size_t r = 0; r < NumMRegs; ++r) {
                if (!(dead & regBit(MReg(r))))
                    continue;
                add("UL010", a,
                    fmt("word 0x%04x writes %s, but the value is "
                        "overwritten on every path before any use: a "
                        "dead setup cycle in the attribution", a,
                        std::string(mregName(MReg(r))).c_str()));
            }
        }
    }

    // ---- UL011: certain reads no write can reach. Forward reaching
    // definitions (union meet) over the *sequential* sub-CFG —
    // dispatch and implied edges cut, so facts cannot leak between
    // routines through the dispatch over-approximation. May-defs
    // count as reaching (an Exec step is allowed to be the producer);
    // a certain read that not even a may-def reaches is wrong on
    // every path the hardware can take.
    std::vector<std::vector<UAddr>> seq(n);
    const ucode::Landmarks &mk = img_.marks;
    auto fabricated = [&](UAddr a) {
        return a == mk.abort || a == mk.ibStallDecode ||
               a == mk.ibStallSpec1 || a == mk.ibStallSpec26 ||
               a == mk.ibStallBdisp;
    };
    for (UAddr a = 1; a < n; ++a) {
        if (fabricated(a))
            continue;
        const ucode::MicroOp &op = img_.ops[a];
        auto to = [&](UAddr t) {
            if (t != 0 && t < n)
                seq[a].push_back(t);
        };
        switch (op.seq) {
          case Seq::Next:
            to(UAddr(a + 1));
            break;
          case Seq::Jump:
            to(op.target);
            break;
          case Seq::Call:
            to(op.target);
            to(UAddr(a + 1));
            break;
          case Seq::JumpIfFlag:
          case Seq::JumpIfNotFlag:
            to(op.target);
            to(UAddr(a + 1));
            break;
          case Seq::DecodeNextIfNotFlag:
            to(UAddr(a + 1));
            break;
          default:
            break;
        }
    }

    Problem reach;
    reach.dir = Direction::Forward;
    reach.meet = Meet::Union;
    reach.top = 0;
    reach.gen.resize(n, 0);
    reach.kill.resize(n, 0);
    for (UAddr a = 1; a < n; ++a)
        reach.gen[a] = fx[a].defMay;

    // Entry contract: the hardware enters a post-index tail only after
    // the indexed base calculation (and its SpecIndexAdd) has loaded
    // TADDR, and the tails have no sequential predecessors to carry
    // that fact in.
    for (int f = 0; f < 2; ++f)
        for (size_t b = 0; b < size_t(AccessBucket::NumBuckets); ++b)
            if (UAddr t = img_.idxTail[f][b]; t != 0 && t < n)
                reach.boundaries.emplace_back(t, regBit(MReg::Taddr));

    Solution md = solve(seq, reach);
    if (!md.converged) {
        add("UL011", 0,
            fmt("reaching definitions did not reach a fixpoint after "
                "%u steps", md.steps));
        return;
    }
    for (UAddr a = 1; a < n; ++a) {
        if (!cfg_.reachable(a))
            continue;
        const RegEffects &e = fx[a];
        RegMask have = md.in[a];
        RegMask missing = e.usePreSure & ~have;
        have |= e.defPre;
        missing |= e.useMem & ~have;
        have |= e.defMem;
        missing |= e.usePostSure & ~have;
        for (size_t r = 0; r < NumMRegs; ++r) {
            if (!(missing & regBit(MReg(r))))
                continue;
            add("UL011", a,
                fmt("word 0x%04x reads %s, but no write of it can "
                    "reach this word", a,
                    std::string(mregName(MReg(r))).c_str()));
        }
        // Intra-word bus conflict: the datapath drives a register and
        // the word's own memory function overwrites it before any
        // stage reads it.
        RegMask clobber = e.defPre & e.defMem & ~e.useMem;
        for (size_t r = 0; r < NumMRegs; ++r) {
            if (!(clobber & regBit(MReg(r))))
                continue;
            add("UL011", a,
                fmt("bus conflict: word 0x%04x drives %s and its "
                    "memory function overwrites it in the same cycle",
                    a, std::string(mregName(MReg(r))).c_str()));
        }
    }
}

void
Linter::checkCutReachability()
{
    const uint32_t n = img_.allocated;
    std::vector<bool> flagged(n, false);
    bool any = false;
    for (const Finding &f : rep_.findings) {
        if (f.addr != 0 && f.addr < n) {
            flagged[f.addr] = true;
            any = true;
        }
    }
    if (!any)
        return;
    const UAddr root = img_.marks.decode;
    // A flagged (or missing) root would make every word trivially
    // tainted; the root's own finding already says it all.
    if (root == 0 || root >= n || flagged[root])
        return;

    std::vector<bool> ok(n, false);
    std::vector<UAddr> work{root};
    ok[root] = true;
    while (!work.empty()) {
        UAddr a = work.back();
        work.pop_back();
        for (UAddr t : cfg_.successors(a)) {
            if (!ok[t] && !flagged[t]) {
                ok[t] = true;
                work.push_back(t);
            }
        }
    }
    for (UAddr a = 1; a < n; ++a) {
        if (cfg_.reachable(a) && !flagged[a] && !ok[a]) {
            add("UL012", a,
                fmt("word 0x%04x is reachable only through flagged "
                    "words: its attribution inherits their defects",
                    a));
        }
    }
}

} // namespace

VerifiedImage::VerifiedImage(const MicrocodeImage &img)
    : cfg(img), effects(img), report(Linter(img, cfg, effects).run())
{
}

const VerifiedImage *
shippedVerified(const MicrocodeImage &image)
{
    if (&image == &ucode::microcodeImage()) {
        static const VerifiedImage v(image);
        return &v;
    }
    if (&image == &ucode::microcodeImageNoFpa()) {
        static const VerifiedImage v(image);
        return &v;
    }
    return nullptr;
}

Report
lint(const MicrocodeImage &image)
{
    if (const VerifiedImage *v = shippedVerified(image))
        return v->report;
    const MicroCfg cfg(image);
    const EffectMap fx(image);
    return Linter(image, cfg, fx).run();
}

std::string
Report::toText() const
{
    std::string out;
    for (const Finding &f : findings) {
        out += fmt("%s %s @0x%04x [%s] %s\n", f.rule.c_str(),
                   std::string(severityName(f.severity)).c_str(), f.addr,
                   std::string(ucode::rowName(f.row)).c_str(),
                   f.detail.c_str());
    }
    out += fmt("%u words checked, %u reachable, %zu finding%s\n",
               wordsChecked, reachableWords, findings.size(),
               findings.size() == 1 ? "" : "s");
    return out;
}

std::string
Report::toJson() const
{
    json::Value list = json::array();
    for (const Finding &f : findings)
        list.push(json::Members{
            {"rule", f.rule},
            {"severity", std::string(severityName(f.severity))},
            {"addr", f.addr},
            {"row", std::string(ucode::rowName(f.row))},
            {"detail", f.detail}});
    return json::Value(json::Members{
                           {"wordsChecked", int64_t{wordsChecked}},
                           {"reachableWords", int64_t{reachableWords}},
                           {"clean", clean()},
                           {"findings", std::move(list)}})
        .dumpPretty();
}

std::string
Report::toSarif() const
{
    // The rule table lists each distinct rule once, in first-seen
    // order, as SARIF requires results to reference driver rules.
    std::vector<std::string> rules;
    auto ruleIndex = [&](const std::string &r) {
        for (size_t i = 0; i < rules.size(); ++i)
            if (rules[i] == r)
                return i;
        rules.push_back(r);
        return rules.size() - 1;
    };

    json::Value results = json::array();
    for (const Finding &f : findings) {
        const json::Value location = json::Members{
            {"name", fmt("u0x%04x", f.addr)},
            {"fullyQualifiedName",
             fmt("controlstore/u0x%04x[%s]", f.addr,
                 std::string(ucode::rowName(f.row)).c_str())},
            {"kind", "instruction"}};
        results.push(json::Members{
            {"ruleId", f.rule},
            {"ruleIndex", uint64_t{ruleIndex(f.rule)}},
            {"level", f.severity == Severity::Error ? "error" : "warning"},
            {"message", json::Members{{"text", f.detail}}},
            {"locations",
             json::Array{json::Members{
                 {"logicalLocations", json::Array{location}}}}}});
    }
    json::Value ruleList = json::array();
    for (const std::string &r : rules)
        ruleList.push(json::Members{{"id", r}});

    const json::Value driver = json::Members{
        {"name", "ulint"}, {"rules", std::move(ruleList)}};
    return json::Value(
               json::Members{
                   {"$schema",
                    "https://json.schemastore.org/sarif-2.1.0.json"},
                   {"version", "2.1.0"},
                   {"runs",
                    json::Array{json::Members{
                        {"tool", json::Members{{"driver", driver}}},
                        {"results", std::move(results)}}}}})
        .dumpPretty();
}

} // namespace upc780::ulint
