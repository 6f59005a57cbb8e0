/**
 * @file
 * Scaling bench for the parallel experiment engine: run the five-
 * workload composite at increasing worker counts, report wall-clock,
 * speedup, and parallel efficiency versus the 1-worker run, and verify
 * that every worker count reproduces the 1-worker composite bit for
 * bit (the engine's central determinism contract). Each row's wall
 * time is the median of OverheadReps runs, taken in rounds over the
 * whole sweep, so one noisy run cannot move a speedup.
 *
 * The composite is embarrassingly parallel — five independent machines
 * — so on >= 5 idle cores the expected speedup approaches 5x, bounded
 * by the slowest single workload (the engine cannot split one
 * measurement interval). On fewer cores the bound is min(cores, 5).
 *
 * Also measures what the snapshot layer costs: the same single
 * workload with and without periodic checkpoints (which must not
 * perturb the histogram), plus the wall-clock of restoring the newest
 * checkpoint. Each of these overhead figures is the median of
 * OverheadReps alternating off/on repetitions, so one noisy run on a
 * shared host cannot pass for an overhead.
 *
 * Environment knobs (shared with the table benches):
 *   UPC780_INSTR   - measured instructions per workload (default 40k)
 *   UPC780_WARMUP  - warm-up instructions per workload (default 8k)
 *   UPC780_MAXJOBS - highest worker count to measure (default 8)
 *   UPC780_BENCH_JSON - when set, write the figures to this file as
 *                       machine-readable JSON (see scripts/check.sh)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/run.hh"
#include "snap/snapshot.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

double
runOnce(const sim::ExperimentConfig &cfg, unsigned jobs,
        sim::CompositeResult &out)
{
    sim::EngineConfig ecfg;
    ecfg.jobs = jobs;
    sim::ParallelEngine engine(cfg, ecfg);
    const auto t0 = std::chrono::steady_clock::now();
    out = engine.runComposite(wkl::paperWorkloads());
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
identical(const sim::CompositeResult &a, const sim::CompositeResult &b)
{
    return a.histogram == b.histogram &&
           a.instructions() == b.instructions() &&
           a.timerInterrupts == b.timerInterrupts &&
           a.terminalInterrupts == b.terminalInterrupts;
}

struct ScaleRow
{
    unsigned jobs;
    double wall;
    bool same;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Repetitions behind each scaling row and each overhead figure. */
constexpr int OverheadReps = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

int
main()
{
    uint64_t instr = 40000;
    uint64_t warmup = 8000;
    unsigned max_jobs = 8;
    if (const char *e = std::getenv("UPC780_INSTR"))
        instr = strtoull(e, nullptr, 0);
    if (const char *e = std::getenv("UPC780_WARMUP"))
        warmup = strtoull(e, nullptr, 0);
    if (const char *e = std::getenv("UPC780_MAXJOBS"))
        max_jobs = static_cast<unsigned>(strtoul(e, nullptr, 0));

    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = instr;
    cfg.warmupInstructions = warmup;

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("Parallel engine scaling (five-workload composite, "
                "%llu instr/workload, %u hardware threads, median of "
                "%d runs)\n\n",
                static_cast<unsigned long long>(instr), hw, OverheadReps);
    std::printf("  %-5s  %10s  %8s  %10s  %s\n", "jobs", "wall (s)",
                "speedup", "efficiency", "identical");

    std::vector<unsigned> sweep;
    for (unsigned j : {1u, 2u, 4u, 5u, 8u})
        if (j <= std::max(max_jobs, 1u))
            sweep.push_back(j);

    sim::CompositeResult baseline;
    std::vector<std::vector<double>> walls(sweep.size());
    std::vector<bool> sames(sweep.size(), true);
    for (int rep = 0; rep < OverheadReps; ++rep) {
        for (size_t k = 0; k < sweep.size(); ++k) {
            sim::CompositeResult c;
            walls[k].push_back(runOnce(cfg, sweep[k], c));
            if (rep == 0 && k == 0)
                baseline = c;
            sames[k] = sames[k] && identical(baseline, c);
        }
    }
    const double base_wall = median(walls.front());
    bool all_identical = true;
    std::vector<ScaleRow> rows;
    for (size_t k = 0; k < sweep.size(); ++k) {
        const unsigned jobs = sweep[k];
        const double wall = median(walls[k]);
        all_identical = all_identical && sames[k];
        rows.push_back({jobs, wall, sames[k]});
        std::printf("  %-5u  %10.3f  %7.2fx  %9.1f%%  %s\n", jobs, wall,
                    base_wall / wall, 100.0 * base_wall / wall / jobs,
                    sames[k] ? "yes" : "NO");
    }

    std::printf("\ncomposite: %llu instructions, %llu cycles, all "
                "worker counts bit-identical: %s\n",
                static_cast<unsigned long long>(baseline.instructions()),
                static_cast<unsigned long long>(
                    baseline.histogram.totalCycles()),
                all_identical ? "yes" : "NO");

    // Checkpoint machinery: one timesharing-1 workload plain vs with
    // periodic snapshots. Saving must not perturb the measurement
    // (identical histogram), and both directions should be cheap
    // relative to simulation (reported, not gated — wall-clock on a
    // shared host is noisy).
    namespace fs = std::filesystem;
    const fs::path ckdir =
        fs::temp_directory_path() / "upc780_bench_ckpt";
    std::error_code ec;
    fs::remove_all(ckdir, ec);

    sim::ExperimentConfig ck_cfg = cfg;
    ck_cfg.checkpoint.dir = ckdir.string();
    ck_cfg.checkpoint.everyCycles = 25000;
    const auto profile = wkl::timesharing1Profile();

    std::vector<double> plain_s, ckpt_s, restore_s;
    bool ck_same = true;
    size_t saved = 0;
    for (int rep = 0; rep < OverheadReps; ++rep) {
        fs::remove_all(ckdir, ec);
        double t = now();
        const auto plain =
            sim::ExperimentRunner(cfg).runWorkload(profile);
        plain_s.push_back(now() - t);
        t = now();
        const auto ckpt =
            sim::ExperimentRunner(ck_cfg).runWorkload(profile);
        ckpt_s.push_back(now() - t);
        ck_same = ck_same && plain.histogram == ckpt.histogram;

        saved = 0;
        for (const auto &e : fs::directory_iterator(ckdir, ec))
            if (e.path().extension() == ".ckpt")
                ++saved;

        sim::WorkloadRun rewind(ck_cfg, profile);
        const std::string latest = snap::latestCheckpoint(
            ck_cfg.checkpoint.dir, rewind.taskId());
        t = now();
        rewind.restore(latest);
        restore_s.push_back(now() - t);
    }
    all_identical = all_identical && ck_same;
    const double wall_plain = median(plain_s);
    const double wall_ckpt = median(ckpt_s);
    const double wall_restore = median(restore_s);

    std::printf("\ncheckpoints (median of %d): plain %.3f s, saving %zu "
                "snapshots %.3f s (%+.1f%% overhead), one restore %.1f "
                "ms, histograms identical: %s\n",
                OverheadReps, wall_plain, saved, wall_ckpt,
                100.0 * (wall_ckpt / wall_plain - 1.0),
                1e3 * wall_restore, ck_same ? "yes" : "NO");
    fs::remove_all(ckdir, ec);

    if (const char *out = std::getenv("UPC780_BENCH_JSON")) {
        // Emitted figures are only meaningful from an optimized
        // build; record which one produced them so scripts/check.sh
        // can refuse to commit debug-build numbers as the baseline.
#ifdef NDEBUG
        const char *build_type = "release";
#else
        const char *build_type = "debug";
#endif
        // The worker counts actually measured and the host's core
        // count together make the scaling figures interpretable when
        // the baseline was produced on a different machine.
        json::Value jobs = json::array();
        for (unsigned j : sweep)
            jobs.push(int64_t{j});
        json::Value scaling = json::array();
        for (const ScaleRow &r : rows)
            scaling.push(json::Members{{"jobs", int64_t{r.jobs}},
                                       {"wall_s", r.wall},
                                       {"speedup", base_wall / r.wall},
                                       {"identical", r.same}});
        const json::Value doc = json::Members{
            {"bench", "parallel"},
            {"library_build_type", build_type},
            {"instructions_per_workload", instr},
            {"hardware_threads", int64_t{hw}},
            {"hw_concurrency", int64_t{hw}},
            {"jobs", std::move(jobs)},
            {"scaling", std::move(scaling)},
            {"overhead_repetitions", int64_t{OverheadReps}},
            {"checkpoint", json::Members{{"plain_s", wall_plain},
                                         {"checkpointed_s", wall_ckpt},
                                         {"snapshots", uint64_t{saved}},
                                         {"restore_s", wall_restore},
                                         {"identical", ck_same}}},
            {"all_identical", all_identical}};
        std::ofstream f(out, std::ios::trunc);
        if (!(f << doc.dumpPretty())) {
            std::fprintf(stderr, "cannot write %s\n", out);
            return 1;
        }
        std::printf("wrote %s\n", out);
    }
    return all_identical ? 0 : 1;
}
