/**
 * @file
 * Host-performance microbenchmarks (google-benchmark): how fast the
 * model simulates, per machine cycle and per VAX instruction, for the
 * main usage patterns. Useful when sizing experiments.
 *
 * The BM_*Cycles benchmarks drive tick() one cycle at a time — the
 * worst case for the interpreter. The BM_*Run benchmarks drive
 * run()/runBatch(), the path the experiment engine actually uses,
 * where the threaded dispatcher runs pad superblocks without
 * per-cycle dispatch. Sim-speed claims in EXPERIMENTS.md quote the
 * BM_*Run numbers. The bare-machine and compute-bound arms advance one
 * machine across iterations through a steady loop; the BM_FullSystem*
 * arms, whose guest changes phase as it runs, time the same window of
 * a freshly booted machine in every iteration instead.
 *
 * This binary has a custom main rather than BENCHMARK_MAIN() for
 * three reasons:
 *
 *  - the Debian libbenchmark bakes `"library_build_type": "debug"`
 *    into the library, so every emitted JSON claims a debug build no
 *    matter how this code was compiled. main() rewrites that field in
 *    the --benchmark_out file to reflect how *upc780* was built
 *    (NDEBUG set => "release"), which is the figure of merit;
 *  - it records `upc780_build_type` in the context stanza so a
 *    committed JSON is self-describing;
 *  - `--compare BASELINE.json` reruns the benchmarks and reports the
 *    items/s delta against the baseline file, warning on >10%
 *    regressions (exit 1 under UPC780_BENCH_STRICT=1) — check.sh runs
 *    this against the committed BENCH_simspeed.json with
 *    `--benchmark_repetitions=3`, and then compares each benchmark's
 *    median, so one noisy run cannot flag or hide a regression.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/assembler.hh"
#include "common/json.hh"
#include "cpu/vax780.hh"
#include "os/kernel.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
using namespace upc780::arch;

namespace
{

/** How upc780 itself was compiled (the benchmark library lies). */
#ifdef NDEBUG
constexpr const char *kBuildType = "release";
#else
constexpr const char *kBuildType = "debug";
#endif

/** A self-restarting compute loop for bare-machine throughput. */
std::vector<uint8_t>
bareLoop()
{
    Assembler a(0x1000);
    Label top = a.here();
    a.emit(Op::MOVL, {Operand::lit(50), Operand::reg(1)});
    Label inner = a.here();
    a.emit(Op::ADDL2, {Operand::reg(1), Operand::reg(0)});
    a.emit(Op::MOVL, {Operand::reg(0), Operand::disp(0x100, 2)});
    a.emitBr(Op::SOBGTR, {Operand::reg(1)}, inner);
    a.emitBr(Op::BRW, top);
    return a.finish();
}

void
loadBareLoop(cpu::Vax780 &machine)
{
    auto img = bareLoop();
    machine.memsys().memory().load(0x1000, img.data(),
                                   static_cast<uint32_t>(img.size()));
    machine.ebox().reset(0x1000, false);
    machine.ebox().gpr(reg::SP) = 0x8000;
    machine.ebox().gpr(2) = 0x4000;
}

void
BM_BareMachineCycles(benchmark::State &state)
{
    cpu::Vax780 machine;
    loadBareLoop(machine);

    for (auto _ : state)
        machine.tick();
    state.SetItemsProcessed(state.iterations());
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(machine.ebox().instructions()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BareMachineCycles);

void
BM_BareMachineWithMonitor(benchmark::State &state)
{
    cpu::Vax780 machine;
    loadBareLoop(machine);
    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    monitor.start();

    for (auto _ : state)
        machine.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BareMachineWithMonitor);

/** Cycles simulated per run() call in the batched benchmarks. */
constexpr uint64_t BatchCycles = 4096;

void
BM_BareMachineRun(benchmark::State &state)
{
    // run() is the experiment engine's path (sim/run.cc drives
    // runBatch); items processed = simulated cycles, so items/s is
    // sim-Hz. This is the headline sim-speed benchmark.
    cpu::Vax780 machine;
    loadBareLoop(machine);

    for (auto _ : state)
        machine.run(BatchCycles);
    state.SetItemsProcessed(state.iterations() * BatchCycles);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(machine.ebox().instructions()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BareMachineRun);

void
BM_BareMachineRunWithMonitor(benchmark::State &state)
{
    // BM_BareMachineRun with a passive UPC probe attached, as in every
    // experiment: the probe sees every cycle, pads included, so the
    // gap between the two arms is the probe's per-cycle cost.
    cpu::Vax780 machine;
    loadBareLoop(machine);
    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    monitor.start();

    for (auto _ : state)
        machine.run(BatchCycles);
    state.SetItemsProcessed(state.iterations() * BatchCycles);
}
BENCHMARK(BM_BareMachineRunWithMonitor);

void
BM_ComputeBoundRun(benchmark::State &state)
{
    // Float-heavy loop on a no-FPA machine: MULF/DIVF spend 45/75
    // cycles in ExecCost padding (paper Table 6), so most simulated
    // cycles run in pad superblocks without per-cycle dispatch — the
    // micro-trace cache's best case, and representative of the
    // paper's floating-point workloads without the accelerator.
    cpu::MachineConfig cfg;
    cfg.fpa = false;
    cpu::Vax780 machine(cfg);
    Assembler a(0x1000);
    Label top = a.here();
    a.emit(Op::MULF3, {Operand::reg(1), Operand::reg(2), Operand::reg(3)});
    a.emit(Op::DIVF3, {Operand::reg(1), Operand::reg(2), Operand::reg(4)});
    a.emitBr(Op::BRB, top);
    auto img = a.finish();
    machine.memsys().memory().load(0x1000, img.data(),
                                   static_cast<uint32_t>(img.size()));
    machine.ebox().reset(0x1000, false);
    machine.ebox().gpr(reg::SP) = 0x8000;
    // F_floating 1.0 (sign 0, exponent 129, fraction 0); the loop's
    // values are fixed points, so it runs forever without traps.
    machine.ebox().gpr(1) = 0x00004080;
    machine.ebox().gpr(2) = 0x00004080;

    for (auto _ : state)
        machine.run(BatchCycles);
    state.SetItemsProcessed(state.iterations() * BatchCycles);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(machine.ebox().instructions()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ComputeBoundRun);

/**
 * The full-system benchmarks' fixed work: the first FullSystemWindow
 * cycles of an 8-user timesharing machine. Every iteration builds and
 * boots the machine afresh outside the timing, so each one simulates
 * the same cycles whatever the build's speed.
 */
constexpr uint64_t FullSystemWindow = uint64_t{1} << 20;

struct FullSystem
{
    explicit FullSystem(const std::vector<os::ProcessImage> &images)
    {
        for (const os::ProcessImage &img : images)
            vms.addProcess(img);
        vms.boot();
    }

    cpu::Vax780 machine;
    os::VmsLite vms{machine};
};

/** Time @p advance over the window of a freshly booted FullSystem. */
template <class Advance>
void
runFullSystem(benchmark::State &state, Advance advance)
{
    auto profile = wkl::timesharing1Profile();
    profile.users = 8;
    const std::vector<os::ProcessImage> images = wkl::buildWorkload(profile);
    std::unique_ptr<FullSystem> sys;
    uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        sys.reset();
        sys = std::make_unique<FullSystem>(images);
        state.ResumeTiming();
        advance(sys->machine);
        instructions += sys->machine.ebox().instructions();
    }
    state.SetItemsProcessed(state.iterations() * FullSystemWindow);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_FullSystemCycles(benchmark::State &state)
{
    runFullSystem(state, [](cpu::Vax780 &machine) {
        for (uint64_t c = 0; c < FullSystemWindow; ++c)
            machine.tick();
    });
}
BENCHMARK(BM_FullSystemCycles)->Unit(benchmark::kMillisecond);

void
BM_FullSystemRun(benchmark::State &state)
{
    runFullSystem(state, [](cpu::Vax780 &machine) {
        for (uint64_t c = 0; c < FullSystemWindow; c += BatchCycles)
            machine.run(BatchCycles);
    });
}
BENCHMARK(BM_FullSystemRun)->Unit(benchmark::kMillisecond);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto profile = wkl::educationalProfile();
    uint64_t seed = 1;
    for (auto _ : state) {
        wkl::ProgramGenerator gen(profile, seed++);
        auto img = gen.generate();
        benchmark::DoNotOptimize(img.p0Image.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_MicrocodeImageLookup(benchmark::State &state)
{
    // Cost of the analyzer-facing image accessors (hot in analysis).
    const auto &img = ucode::microcodeImage();
    uint32_t a = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            img.rowOf(static_cast<ucode::UAddr>(a)));
        a = (a + 1) % img.allocated;
        if (a == 0)
            a = 1;
    }
}
BENCHMARK(BM_MicrocodeImageLookup);

// -------------------------------------------------------------------
// Custom main: JSON build-type fixup + --compare mode.

/** One measured benchmark: name and items/s (0 when not reported). */
struct Measured
{
    std::string name;
    double itemsPerSecond = 0;
};

/**
 * Console reporter that also captures items/s for --compare. Under
 * --benchmark_repetitions a benchmark's figure is the median of its
 * repetitions, which replaces any single run captured under its name.
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<Measured> results;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &r : reports) {
            const bool median = r.run_type == Run::RT_Aggregate;
            if (median && r.aggregate_name != "median")
                continue;
            auto it = r.counters.find("items_per_second");
            if (it == r.counters.end())
                continue;
            const std::string name = r.run_name.str();
            Measured *known = nullptr;
            for (Measured &m : results)
                if (m.name == name)
                    known = &m;
            if (!known)
                results.push_back({name, double(it->second)});
            else if (median)
                known->itemsPerSecond = double(it->second);
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

/** Benchmark names and items/s of a google-benchmark JSON file. */
struct BaselineFile
{
    std::string buildType;  //!< upc780_build_type or library_build_type
    std::vector<Measured> results;
};

/** The whole of @p path as a JSON document; ConfigError if it is none. */
json::Value
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim_throw(ConfigError, "cannot open %s", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return json::parse(ss.str());
}

/**
 * Load a baseline; false when the file cannot be read, is not JSON,
 * or has no `benchmarks` array — a garbled baseline must not pass a
 * compare by yielding no rows.
 */
bool
loadBaseline(const std::string &path, BaselineFile &out)
{
    try {
        const json::Value doc = readJsonFile(path);
        const json::Value *benchmarks = doc.find("benchmarks");
        if (!benchmarks || !benchmarks->isArray())
            return false;
        // upc780_build_type, when present, overrides the library's.
        const json::Value *ctx = doc.find("context");
        for (const char *key : {"library_build_type", "upc780_build_type"})
            if (const json::Value *v = ctx ? ctx->find(key) : nullptr)
                out.buildType = v->asString();
        // A baseline emitted with repetitions carries aggregates; its
        // medians stand for their benchmarks, as in CaptureReporter.
        for (const json::Value &b : benchmarks->asArray()) {
            const json::Value *name = b.find("name");
            const json::Value *ips = b.find("items_per_second");
            if (const json::Value *agg = b.find("aggregate_name")) {
                if (agg->asString() != "median")
                    continue;
                name = b.find("run_name");
            }
            if (name && ips)
                out.results.push_back({name->asString(), ips->asDouble()});
        }
    } catch (const ConfigError &) {
        return false;
    }
    return true;
}

/**
 * Rewrite `"library_build_type"` in the emitted JSON to how upc780
 * was actually compiled. The field as the library writes it describes
 * libbenchmark's own build (always "debug" for the Debian package) —
 * useless, and it poisons committed baselines into looking like debug
 * measurements.
 */
void
fixEmittedJson(const std::string &path)
{
    json::Value fixed = json::object();
    try {
        const json::Value emitted = readJsonFile(path);
        for (const auto &[key, value] : emitted.asObject()) {
            if (key != "context") {
                fixed.set(key, value);
                continue;
            }
            json::Value ctx = json::object();
            for (const auto &[k, v] : value.asObject())
                ctx.set(k, k == "library_build_type"
                               ? json::Value(kBuildType)
                               : v);
            fixed.set(key, std::move(ctx));
        }
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "cannot rewrite %s: %s\n", path.c_str(),
                     e.what());
        return;
    }
    std::ofstream(path, std::ios::trunc) << fixed.dumpPretty();
}

/** Report deltas vs a baseline file; returns the regression count. */
int
compareAgainstBaseline(const BaselineFile &base,
                       const std::vector<Measured> &now)
{
    constexpr double RegressionThreshold = 0.10;
    int regressions = 0;
    std::printf("\ncompare vs baseline (build %s):\n",
                base.buildType.empty() ? "?" : base.buildType.c_str());
    if (!base.buildType.empty() && base.buildType != kBuildType)
        std::printf("  WARNING: baseline build type '%s' != this "
                    "binary's '%s'; deltas are not meaningful\n",
                    base.buildType.c_str(), kBuildType);
    for (const Measured &b : base.results) {
        const Measured *cur = nullptr;
        for (const Measured &m : now)
            if (m.name == b.name) {
                cur = &m;
                break;
            }
        if (!cur) {
            std::printf("  %-32s  baseline only (%.3g items/s)\n",
                        b.name.c_str(), b.itemsPerSecond);
            continue;
        }
        double delta = b.itemsPerSecond > 0
            ? (cur->itemsPerSecond - b.itemsPerSecond) / b.itemsPerSecond
            : 0;
        bool regressed = delta < -RegressionThreshold;
        std::printf("  %-32s  %.3g -> %.3g items/s  (%+.1f%%)%s\n",
                    b.name.c_str(), b.itemsPerSecond,
                    cur->itemsPerSecond, delta * 100,
                    regressed ? "  REGRESSION" : "");
        if (regressed)
            ++regressions;
    }
    for (const Measured &m : now) {
        bool known = false;
        for (const Measured &b : base.results)
            if (b.name == m.name)
                known = true;
        if (!known)
            std::printf("  %-32s  new (%.3g items/s)\n", m.name.c_str(),
                        m.itemsPerSecond);
    }
    if (regressions)
        std::printf("  %d benchmark(s) regressed >%.0f%% in items/s\n",
                    regressions, RegressionThreshold * 100);
    return regressions;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel our own flags before the library parses the rest; remember
    // the --benchmark_out path so we can fix up the emitted file.
    std::string comparePath, outPath;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
            comparePath = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--compare=", 10) == 0) {
            comparePath = argv[i] + 10;
            continue;
        }
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            outPath = argv[i] + 16;
        args.push_back(argv[i]);
    }
    int nargs = static_cast<int>(args.size());
    args.push_back(nullptr);

    benchmark::Initialize(&nargs, args.data());
    if (benchmark::ReportUnrecognizedArguments(nargs, args.data()))
        return 1;
    benchmark::AddCustomContext("upc780_build_type", kBuildType);

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!outPath.empty())
        fixEmittedJson(outPath);

    if (!comparePath.empty()) {
        BaselineFile base;
        if (!loadBaseline(comparePath, base)) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         comparePath.c_str());
            return 1;
        }
        int regressions =
            compareAgainstBaseline(base, reporter.results);
        const char *strict = std::getenv("UPC780_BENCH_STRICT");
        if (regressions && strict && std::strcmp(strict, "1") == 0)
            return 1;
    }
    return 0;
}
