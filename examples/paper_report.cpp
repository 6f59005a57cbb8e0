/**
 * @file
 * Run the paper's complete composite experiment and emit the full
 * measurement report — every table the paper publishes — as text or
 * markdown. The composite's five independent experiments run on the
 * parallel engine; the merged report is bit-identical for any worker
 * count.
 *
 * Usage: paper_report [instructions-per-workload] [--markdown]
 *                     [--jobs N] [--seeds K] [--metrics]
 *                     [--checkpoint-dir D] [--checkpoint-every N]
 *                     [--crash-at C1[,C2...]] [--resume]
 *
 *   --jobs N    worker threads (default: UPC780_JOBS, else all cores)
 *   --seeds K   seed replications per workload; with K > 1 the report
 *               covers replication 0 (identical to a K=1 run) and a
 *               seed-sweep summary (mean/stddev CPI across the K
 *               replications) is appended
 *   --metrics   append the observability summary: per-workload phase
 *               timings and sim rate (KIPS / simulated KHz / slowdown)
 *               plus the composite event-counter table
 *
 * The checkpoint flags mirror vaxsim_cli: with --checkpoint-dir each
 * workload periodically snapshots its machine and persists its result;
 * --crash-at simulates a harness crash at the listed cycles (attempt k
 * dies at the k-th entry, then the retry restores the newest
 * checkpoint); --resume reuses completed results from an interrupted
 * composite. The report must come out byte-identical either way —
 * scripts/check.sh diffs it.
 *
 * An unknown flag, a missing value, or an instruction count, --jobs,
 * --seeds, --checkpoint-every or --crash-at value that is not a
 * positive number prints the usage to stderr and exits 2.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/stats.hh"
#include "obs/counters.hh"
#include "obs/hostprof.hh"
#include "sim/engine.hh"
#include "ucode/controlstore.hh"
#include "upc/report.hh"
#include "workload/profile.hh"

#include "engine_args.hh"

using namespace upc780;

namespace
{

const std::string Usage =
    std::string("usage: paper_report [instructions-per-workload] "
                "[--markdown]\n         ") +
    examples::EngineFlagsUsage;

} // namespace

int
main(int argc, char **argv)
{
    uint64_t instructions = 100000;
    bool haveInstructions = false;
    examples::EngineArgs ea;
    upc::ReportOptions opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--markdown"))
            opt.markdown = true;
        else if (ea.take(i, argc, argv, Usage.c_str()))
            continue;
        else if (haveInstructions)
            examples::usageError(
                std::string("unexpected argument '") + argv[i] + "'",
                Usage.c_str());
        else {
            instructions = examples::countArg("instructions", argv[i],
                                              Usage.c_str());
            haveInstructions = true;
        }
    }

    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = instructions;
    cfg.warmupInstructions = instructions / 6;
    ea.apply(cfg);
    sim::EngineConfig ecfg;
    ecfg.jobs = ea.jobs;
    sim::ParallelEngine engine(cfg, ecfg);

    auto reps = engine.runReplicated(wkl::paperWorkloads(), ea.seeds);
    const sim::CompositeResult &composite = reps.front();

    upc::HistogramAnalyzer analyzer(composite.histogram,
                                    ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = composite.hw.ibFills;
    hw.iReadMisses = composite.hw.iReadMisses;
    hw.dReadMisses = composite.hw.dReadMisses;
    hw.unalignedRefs = composite.hw.unalignedRefs;
    hw.softIntRequests = composite.osStats.softIntRequests();

    opt.title = "VAX-11/780 UPC Measurement Report (composite of five "
                "workloads)";
    std::fputs(upc::writeReport(analyzer, hw, opt).c_str(), stdout);

    if (ea.seeds > 1) {
        RunningStat cpi = sim::cpiAcrossReplications(reps);
        std::printf("\nSeed sweep (%u replications per workload)\n",
                    ea.seeds);
        std::printf("  CPI mean %.3f  stddev %.3f (%.2f%%)  "
                    "min %.3f  max %.3f\n",
                    cpi.mean(), cpi.stddev(), 100.0 * cpi.relStddev(),
                    cpi.min(), cpi.max());
    }

    if (ea.metrics) {
        std::vector<obs::MetricsRow> rows;
        for (const auto &w : composite.workloads) {
            obs::MetricsRow row;
            row.name = w.name;
            row.instructions = w.obs.value(obs::Ev::IboxDecodes);
            row.cycles = w.cycles;
            row.host = w.host;
            rows.push_back(row);
        }
        std::printf("\n");
        std::fputs(obs::writeMetrics(rows, composite.obs).c_str(),
                   stdout);
    }
    return 0;
}
