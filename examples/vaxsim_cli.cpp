/**
 * @file
 * Command-line front end:
 *
 *   vaxsim_cli run [workload] [instructions]   measure + summary
 *   vaxsim_cli report [instructions]           full paper-style report
 *
 * `run` and `report` accept the engine flags of engine_args.hh:
 * --jobs N (worker threads), --seeds K (seed replications, run
 * concurrently; the summary gains mean/stddev CPI across seeds),
 * --metrics, and the crash-resilience flags --checkpoint-dir,
 * --checkpoint-every, --crash-at and --resume. An unknown flag, a
 * missing value, a count that is not a positive number, or an unknown
 * workload id exits 2.
 *
 *   vaxsim_cli trace [workload] [n]            last n retired instrs
 *   vaxsim_cli disasm <file> [base]            disassemble raw bytes
 *   vaxsim_cli ucode [--dump]                  microprogram stats/listing
 *   vaxsim_cli collect <file> [workload] [n]   save a raw histogram
 *   vaxsim_cli analyze <file>                  report from a saved one
 *
 * Workloads: ts1 ts2 edu sci com bursty (default ts1).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "arch/decoder.hh"
#include "common/error.hh"
#include "common/stats.hh"
#include "obs/counters.hh"
#include "obs/hostprof.hh"
#include "cpu/trace.hh"
#include "os/kernel.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "ucode/controlstore.hh"
#include "upc/report.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

#include "engine_args.hh"

using namespace upc780;

namespace
{

const std::string EngineUsage =
    std::string("usage: vaxsim_cli run [workload] [instructions] FLAGS\n"
                "       vaxsim_cli report [instructions] FLAGS\n"
                "FLAGS:   ") +
    examples::EngineFlagsUsage;

const char *const ToolUsage =
    "usage: vaxsim_cli trace [workload] [count]\n"
    "       vaxsim_cli disasm FILE [base]\n"
    "       vaxsim_cli collect FILE [workload] [instructions]";

/** The most instructions `trace` keeps (its ring holds them all). */
constexpr uint64_t MaxTraceRecords = uint64_t{1} << 20;

/**
 * Parse the engine flags out of an argv slice, compacting the other
 * arguments in place (at most @p maxPositional of them) so they keep
 * their positional meanings; returns how many remain.
 */
int
takeEngineArgs(examples::EngineArgs &ea, int argc, char **argv,
               int maxPositional)
{
    int kept = 0;
    for (int i = 0; i < argc; ++i) {
        if (ea.take(i, argc, argv, EngineUsage.c_str()))
            continue;
        if (kept == maxPositional)
            examples::usageError(std::string("unexpected argument '") +
                                     argv[i] + "'",
                                 EngineUsage.c_str());
        argv[kept++] = argv[i];
    }
    return kept;
}

/** The profile for a workload id; an unknown id exits 2. */
wkl::WorkloadProfile
profileOrExit(const char *id)
{
    try {
        return wkl::profileById(id);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "vaxsim_cli: %s\n", e.what());
        std::exit(2);
    }
}

/** The --metrics appendix shared by `run` and `report`. */
void
printMetrics(const sim::CompositeResult &c)
{
    std::vector<obs::MetricsRow> rows;
    for (const auto &w : c.workloads) {
        obs::MetricsRow row;
        row.name = w.name;
        row.instructions = w.obs.value(obs::Ev::IboxDecodes);
        row.cycles = w.cycles;
        row.host = w.host;
        rows.push_back(row);
    }
    std::printf("\n");
    std::fputs(obs::writeMetrics(rows, c.obs).c_str(), stdout);
}

int
cmdRun(int argc, char **argv)
{
    examples::EngineArgs ea;
    argc = takeEngineArgs(ea, argc, argv, 2);
    auto profile = profileOrExit(argc > 0 ? argv[0] : "ts1");
    uint64_t n = argc > 1 ? examples::countArg("instructions", argv[1],
                                               EngineUsage.c_str())
                          : 100000;

    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = n;
    cfg.warmupInstructions = n / 6;
    ea.apply(cfg);
    sim::EngineConfig ecfg;
    ecfg.jobs = ea.jobs;
    sim::ParallelEngine engine(cfg, ecfg);
    auto reps = engine.runReplicated({profile}, ea.seeds);

    const auto &r = reps.front().workloads.front();
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());

    std::printf("%s\n", profile.name.c_str());
    std::printf("  %llu instructions, CPI %.3f (%.0f kIPS at 200 ns)\n",
                static_cast<unsigned long long>(an.instructions()),
                an.cpi(), 5000.0 / an.cpi());
    auto tb = an.tbMisses();
    std::printf("  TB miss/instr %.4f, interrupt headway %.0f, "
                "context-switch headway %.0f\n",
                tb.missesPerInstr, an.interruptHeadway(),
                an.contextSwitchHeadway());
    if (ea.seeds > 1) {
        RunningStat cpi = sim::cpiAcrossReplications(reps);
        std::printf("  %u seeds: CPI mean %.3f stddev %.3f (%.2f%%)\n",
                    ea.seeds, cpi.mean(), cpi.stddev(),
                    100.0 * cpi.relStddev());
    }
    if (ea.metrics)
        printMetrics(reps.front());
    return 0;
}

int
cmdReport(int argc, char **argv)
{
    examples::EngineArgs ea;
    argc = takeEngineArgs(ea, argc, argv, 1);
    uint64_t n = argc > 0 ? examples::countArg("instructions", argv[0],
                                               EngineUsage.c_str())
                          : 60000;
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = n;
    cfg.warmupInstructions = n / 6;
    ea.apply(cfg);
    sim::EngineConfig ecfg;
    ecfg.jobs = ea.jobs;
    sim::ParallelEngine engine(cfg, ecfg);
    auto reps = engine.runReplicated(wkl::paperWorkloads(), ea.seeds);
    const auto &c = reps.front();
    upc::HistogramAnalyzer an(c.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = c.hw.ibFills;
    hw.iReadMisses = c.hw.iReadMisses;
    hw.dReadMisses = c.hw.dReadMisses;
    hw.unalignedRefs = c.hw.unalignedRefs;
    hw.softIntRequests = c.osStats.softIntRequests();
    std::fputs(upc::writeReport(an, hw).c_str(), stdout);
    if (ea.seeds > 1) {
        RunningStat cpi = sim::cpiAcrossReplications(reps);
        std::printf("\nSeed sweep (%u replications per workload)\n",
                    ea.seeds);
        std::printf("  CPI mean %.3f  stddev %.3f (%.2f%%)  "
                    "min %.3f  max %.3f\n",
                    cpi.mean(), cpi.stddev(), 100.0 * cpi.relStddev(),
                    cpi.min(), cpi.max());
    }
    if (ea.metrics)
        printMetrics(c);
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    auto profile = profileOrExit(argc > 0 ? argv[0] : "ts1");
    uint64_t n = argc > 1 ? examples::countArg("count", argv[1], ToolUsage,
                                               1, MaxTraceRecords)
                          : 40;
    profile.users = 4;

    cpu::Vax780 machine;
    os::VmsLite vms(machine, {});
    for (auto &img : wkl::buildWorkload(profile))
        vms.addProcess(img);
    cpu::InstrTracer tracer(machine, n);
    machine.attachProbe(&tracer);
    vms.boot();
    machine.run(300000);
    std::fputs(tracer.str().c_str(), stdout);
    return 0;
}

int
cmdDisasm(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "disasm: missing file\n");
        return 2;
    }
    std::ifstream in(argv[0], std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "disasm: cannot open %s\n", argv[0]);
        return 2;
    }
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    uint32_t base = argc > 1 ? static_cast<uint32_t>(examples::countArg(
                                   "base", argv[1], ToolUsage, 0,
                                   UINT32_MAX))
                             : 0;
    uint32_t pos = 0;
    while (pos < bytes.size()) {
        arch::DecodedInst di;
        uint32_t n = arch::decodeInstruction(
            {bytes.data() + pos, bytes.size() - pos}, di);
        if (!n) {
            std::printf("%08x: .byte 0x%02x\n", base + pos, bytes[pos]);
            ++pos;
            continue;
        }
        std::printf("%08x: %s\n", base + pos, di.str().c_str());
        pos += n;
    }
    return 0;
}

int
cmdUcode(int argc, char **argv)
{
    const auto &img = ucode::microcodeImage();
    if (argc > 0 && !std::strcmp(argv[0], "--dump")) {
        // Full microprogram listing, one control word per line.
        for (uint32_t a = 1; a < img.allocated; ++a) {
            const auto &op = img.ops[a];
            std::printf("%4u  %-10s  %-14s %-4s %-7s %-8s",
                        a,
                        std::string(ucode::rowName(img.rowOf(
                            static_cast<ucode::UAddr>(a)))).c_str(),
                        std::string(ucode::dpName(op.dp)).c_str(),
                        std::string(ucode::memName(op.mem)).c_str(),
                        std::string(ucode::ibName(op.ib)).c_str(),
                        std::string(ucode::seqName(op.seq)).c_str());
            if (op.target)
                std::printf(" ->%u", op.target);
            if (op.arg)
                std::printf(" #%u", op.arg);
            auto se = img.specEntries.find(
                static_cast<ucode::UAddr>(a));
            if (se != img.specEntries.end()) {
                std::printf("   ; %s spec, %s%s",
                            se->second.first ? "first" : "later",
                            std::string(arch::specClassName(
                                se->second.cls)).c_str(),
                            se->second.indexed ? " [indexed]" : "");
            }
            auto ee = img.execEntries.find(
                static_cast<ucode::UAddr>(a));
            if (ee != img.execEntries.end()) {
                std::printf("   ; exec entry, %s",
                            std::string(arch::groupName(
                                ee->second.group)).c_str());
            }
            std::printf("\n");
        }
        return 0;
    }
    std::printf("control store: %u/%u words\n", img.allocated,
                ucode::ControlStoreSize);
    uint32_t by_row[size_t(ucode::Row::NumRows)] = {};
    for (uint32_t a = 1; a < img.allocated; ++a)
        ++by_row[size_t(img.rowOf(static_cast<ucode::UAddr>(a)))];
    for (size_t r = 1; r < size_t(ucode::Row::NumRows); ++r) {
        std::printf("  %-10s %5u words\n",
                    std::string(ucode::rowName(
                        static_cast<ucode::Row>(r))).c_str(),
                    by_row[r]);
    }
    std::printf("annotated: %zu specifier entries, %zu execute "
                "entries, %zu taken-branch words\n",
                img.specEntries.size(), img.execEntries.size(),
                img.takenEntries.size());
    return 0;
}

int
cmdCollect(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "collect: missing output file\n");
        return 2;
    }
    auto profile = profileOrExit(argc > 1 ? argv[1] : "ts1");
    uint64_t n = argc > 2 ? examples::countArg("instructions", argv[2],
                                               ToolUsage)
                          : 60000;
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = n;
    cfg.warmupInstructions = n / 6;
    auto r = sim::ExperimentRunner(cfg).runWorkload(profile);
    if (!r.histogram.saveTo(argv[0])) {
        std::fprintf(stderr, "collect: cannot write %s\n", argv[0]);
        return 1;
    }
    std::printf("saved %llu cycles of '%s' to %s\n",
                static_cast<unsigned long long>(
                    r.histogram.totalCycles()),
                profile.name.c_str(), argv[0]);
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    if (argc < 1) {
        std::fprintf(stderr, "analyze: missing histogram file\n");
        return 2;
    }
    upc::Histogram h;
    if (!h.loadFrom(argv[0])) {
        std::fprintf(stderr, "analyze: cannot read %s\n", argv[0]);
        return 1;
    }
    upc::HistogramAnalyzer an(h, ucode::microcodeImage());
    std::fputs(upc::writeReport(an, {}).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s run|report|trace|disasm|ucode|collect|analyze ...\n",
                     argv[0]);
        return 2;
    }
    const char *cmd = argv[1];
    if (!std::strcmp(cmd, "run"))
        return cmdRun(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "report"))
        return cmdReport(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "trace"))
        return cmdTrace(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "disasm"))
        return cmdDisasm(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "ucode"))
        return cmdUcode(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "collect"))
        return cmdCollect(argc - 2, argv + 2);
    if (!std::strcmp(cmd, "analyze"))
        return cmdAnalyze(argc - 2, argv + 2);
    std::fprintf(stderr, "unknown command '%s'\n", cmd);
    return 2;
}
