/**
 * @file
 * upcbench: the measuring half of the repository benchmark. It drives
 * the simulator through its public entry points only — the parallel
 * engine and WorkloadRun, the histogram analyzer and report writer,
 * and the daemon behind its Unix socket — and times the calls into
 * each layer from here. perfbench/run.py builds it, launches it, and
 * turns the raw samples it prints into the benchmark's metrics.
 *
 *     upcbench setup --workload W --tmp DIR
 *     upcbench run   --workload W --seed N --seconds S --trace 0|1
 *                    --scale full|tiny --tmp DIR
 *
 * `setup` performs the workload's one-time process set-up once and
 * prints its duration. `run` sets up, measures for S seconds and prints
 * one JSON object (last line of stdout) holding the raw latency
 * samples, the output-check tally and, with --trace 1, the per-layer
 * values and the recorded spans. Every path it touches lies under the
 * --tmp directory, which the caller removes afterwards.
 *
 * Workloads: composite (the paper_report path in-process) and
 * service_spool (upcd cold jobs plus re-submitted hits, with a spool
 * directory).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/random.hh"
#include "obs/counters.hh"
#include "sim/engine.hh"
#include "sim/run.hh"
#include "svc/cache.hh"
#include "svc/daemon.hh"
#include "svc/job.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "ucode/controlstore.hh"
#include "ucode/decoded.hh"
#include "ulint/ulint.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
namespace fs = std::filesystem;
namespace json = svc::json;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

json::Value
toJson(const std::vector<double> &v)
{
    json::Value a = json::Array{};
    for (double x : v)
        a.push(x);
    return a;
}

// ----- options -----------------------------------------------------------

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string tmp;
};

/** Problem sizes: the benchmark's own (full) and the self-test's. */
struct Sizes
{
    uint64_t compositeInstr;  //!< measured instructions per workload
    uint64_t jobInstr;        //!< cold-job instructions per workload
    uint64_t jobWarmup;       //!< cold-job warm-up instructions
    size_t minSamples;        //!< primary-op samples a run always takes
    size_t warmupOps;         //!< untimed cold operations before timing
    size_t probeReps;         //!< repetitions of each standalone probe
    size_t splitReps;         //!< cold jobs rerun traced for the layer split
};

// Spooled jobs are short: at 20K instructions per workload a spooled job
// takes over a second, too few samples for a tail.
constexpr Sizes FullSizes{100000, 5000, 1000, 11, 3, 30, 5};
constexpr Sizes TinySizes{2000, 1000, 200, 2, 1, 3, 1};

int64_t
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<int64_t>(ru.ru_maxrss);
}

/**
 * Peak RSS after a fixed number of primary operations (or at the end
 * of a shorter run). The daemon's server keeps every finished
 * connection thread until it stops, so RSS grows with requests served;
 * sampling at a fixed count keeps a faster program from reading as a
 * bigger one.
 */
struct RssProbe
{
    size_t at;
    int64_t kb = -1;

    void
    note(size_t done)
    {
        if (kb < 0 && done >= at)
            kb = maxRssKb();
    }

    int64_t value() const { return kb >= 0 ? kb : maxRssKb(); }
};

/** Primary operations before the RSS sample. */
constexpr size_t RssAfterOps = 8;


Options
parseOptions(int argc, char **argv)
{
    if (argc < 2)
        throw std::runtime_error("missing mode (setup or run)");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("option " + a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--scale")
            o.tiny = v == "tiny";
        else if (a == "--tmp")
            o.tmp = v;
        else
            throw std::runtime_error("unknown option " + a);
    }
    if (o.mode != "setup" && o.mode != "run")
        throw std::runtime_error("mode must be setup or run");
    if (o.workload != "composite" && o.workload != "service_spool")
        throw std::runtime_error("unknown workload '" + o.workload + "'");
    if (o.tmp.empty())
        throw std::runtime_error("--tmp is required");
    return o;
}

// ----- spans ---------------------------------------------------------------

/**
 * In-memory span recorder: name, parent span, job id, start and end in
 * milliseconds since the recorder was made. Nothing is written until
 * the run ends and the caller dumps the list.
 */
class Spans
{
  public:
    static constexpr int64_t NoParent = -1;

    int64_t
    open(std::string name, int64_t parent, uint64_t job)
    {
        list_.push_back(Span{std::move(name), parent, job,
                             msBetween(origin_, Clock::now()), -1});
        return static_cast<int64_t>(list_.size()) - 1;
    }

    /** Close span @p id; returns its duration in milliseconds. */
    double
    close(int64_t id)
    {
        Span &s = list_[static_cast<size_t>(id)];
        s.endMs = msBetween(origin_, Clock::now());
        return s.endMs - s.startMs;
    }

    /** Run @p fn inside a span; returns the span's duration. */
    double
    time(const std::string &name, int64_t parent, uint64_t job,
         const std::function<void()> &fn)
    {
        const int64_t id = open(name, parent, job);
        fn();
        return close(id);
    }

    json::Value
    dump() const
    {
        json::Value a = json::Array{};
        for (const Span &s : list_) {
            json::Value o = json::Members{};
            o.set("name", s.name);
            o.set("parent", s.parent);
            o.set("job", s.job);
            o.set("start_ms", s.startMs);
            o.set("end_ms", s.endMs);
            a.push(std::move(o));
        }
        return a;
    }

  private:
    struct Span
    {
        std::string name;
        int64_t parent;
        uint64_t job;
        double startMs;
        double endMs;
    };

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> list_;
};

// ----- output checks -------------------------------------------------------

/** Attempted/failed tally; each failure keeps a one-line reason. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> reasons;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (reasons.size() < 20)
                reasons.push_back(what);
        }
    }
};

// ----- composite -------------------------------------------------------------

/** The paper's five workloads; a nonzero seed derives every profile's. */
std::vector<wkl::WorkloadProfile>
compositeProfiles(uint64_t seed)
{
    std::vector<wkl::WorkloadProfile> ps = wkl::paperWorkloads();
    if (seed)
        for (size_t i = 0; i < ps.size(); ++i)
            ps[i].seed = deriveSeed(seed, i);
    return ps;
}

/** paper_report's configuration at @p instructions per workload. */
sim::ExperimentConfig
compositeConfig(uint64_t instructions)
{
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = instructions;
    cfg.warmupInstructions = instructions / 6;
    return cfg;
}

const char *const CompositeTitle =
    "VAX-11/780 UPC Measurement Report (composite of five workloads)";

upc::ReportHwInputs
reportInputs(const sim::CompositeResult &c)
{
    upc::ReportHwInputs hw;
    hw.ibFills = c.hw.ibFills;
    hw.iReadMisses = c.hw.iReadMisses;
    hw.dReadMisses = c.hw.dReadMisses;
    hw.unalignedRefs = c.hw.unalignedRefs;
    hw.softIntRequests = c.osStats.softIntRequests();
    return hw;
}

/** One composite's outputs: what the output checks compare. */
struct CompositeOut
{
    sim::CompositeResult result;
    std::string report;
};

/** The paper_report path: engine at jobs=1, analyze, render. */
CompositeOut
runUntracedComposite(const sim::ExperimentConfig &cfg,
                     const std::vector<wkl::WorkloadProfile> &profiles,
                     const upc::ReportOptions &opt)
{
    sim::EngineConfig ecfg;
    ecfg.jobs = 1;
    sim::ParallelEngine engine(cfg, ecfg);
    CompositeOut out;
    out.result = engine.runComposite(profiles);
    upc::HistogramAnalyzer analyzer(out.result.histogram,
                                    ucode::microcodeImage());
    out.report =
        upc::writeReport(analyzer, reportInputs(out.result), opt);
    return out;
}

/** Per-composite sums of the layer timings a traced composite takes. */
struct LayerTimes
{
    double compositeMs = 0;  //!< root span: first build to report
    double generateMs = 0;   //!< standalone wkl::buildWorkload
    double lintMs = 0;       //!< standalone ulint::lint
    double buildMs = 0;      //!< WorkloadRun constructor
    double runMs = 0;        //!< WorkloadRun::run
    double warmupMs = 0;     //!< HostProfile warm-up phase
    double measureMs = 0;    //!< HostProfile measure phase
    double auditMs = 0;      //!< standalone sim::auditAttribution
    double analyzeMs = 0;
    double reportMs = 0;
};

/** Field-wise median of several traced composites' layer times. */
LayerTimes
medianTimes(const std::vector<LayerTimes> &ts)
{
    LayerTimes m;
    for (double LayerTimes::*f :
         {&LayerTimes::compositeMs, &LayerTimes::generateMs,
          &LayerTimes::lintMs, &LayerTimes::buildMs, &LayerTimes::runMs,
          &LayerTimes::warmupMs, &LayerTimes::measureMs,
          &LayerTimes::auditMs, &LayerTimes::analyzeMs,
          &LayerTimes::reportMs}) {
        std::vector<double> v;
        for (const LayerTimes &t : ts)
            v.push_back(t.*f);
        m.*f = median(std::move(v));
    }
    return m;
}

/**
 * The same composite as runUntracedComposite, built workload by
 * workload through WorkloadRun so every layer call sits in a span.
 * The root span covers only the composite itself; the standalone
 * generate/lint/audit probes run after it, outside its interval.
 */
CompositeOut
runTracedComposite(const sim::ExperimentConfig &cfg,
                   const std::vector<wkl::WorkloadProfile> &profiles,
                   const upc::ReportOptions &opt, Spans &spans,
                   uint64_t &nextJob, LayerTimes &t)
{
    CompositeOut out;
    const uint64_t firstJob = nextJob;
    const int64_t root = spans.open("composite", Spans::NoParent, firstJob);
    for (const wkl::WorkloadProfile &p : profiles) {
        const uint64_t job = nextJob++;
        std::optional<sim::WorkloadRun> run;
        t.buildMs += spans.time("sim.build", root, job,
                                [&] { run.emplace(cfg, p); });
        sim::WorkloadResult r;
        t.runMs += spans.time("sim.run", root, job,
                              [&] { r = run->run(); });
        t.warmupMs += 1e-6 * double(r.host.value(obs::Phase::Warmup));
        t.measureMs += 1e-6 * double(r.host.value(obs::Phase::Measure));
        out.result.add(std::move(r));
    }
    std::optional<upc::HistogramAnalyzer> analyzer;
    t.analyzeMs += spans.time("upc.analyze", root, firstJob, [&] {
        analyzer.emplace(out.result.histogram, ucode::microcodeImage());
    });
    t.reportMs += spans.time("upc.report", root, firstJob, [&] {
        out.report =
            upc::writeReport(*analyzer, reportInputs(out.result), opt);
    });
    t.compositeMs += spans.close(root);

    const ucode::MicrocodeImage &img = ucode::microcodeImage();
    for (size_t i = 0; i < profiles.size(); ++i) {
        const uint64_t job = firstJob + i;
        t.generateMs += spans.time("workload.generate", Spans::NoParent,
                                   job, [&] {
                                       (void)wkl::buildWorkload(
                                           profiles[i]);
                                   });
        t.lintMs += spans.time("ulint.lint", Spans::NoParent, job,
                               [&] { (void)ulint::lint(img); });
        const sim::WorkloadResult &r = out.result.workloads[i];
        t.auditMs += spans.time("sim.audit", Spans::NoParent, job, [&] {
            sim::auditAttribution(img, r.histogram, r.obs,
                                  bool(UPC780_OBS_ENABLED) &&
                                      cfg.obs.counters,
                                  r.name);
        });
    }
    return out;
}

/** Every deterministic simulated statistic of a composite, by name. */
std::map<std::string, double>
simulatedStats(const sim::CompositeResult &c)
{
    std::map<std::string, double> s;
    const uint64_t instr = c.instructions();
    const uint64_t cycles = c.histogram.totalCycles();
    s["sim.instructions"] = double(instr);
    s["sim.cycles"] = double(cycles);
    s["sim.cpi"] = instr ? double(cycles) / double(instr) : 0;
    for (size_t e = 0; e < obs::NumEvents; ++e)
        s["obs." + std::string(obs::evName(obs::Ev(e)))] =
            double(c.obs.counters[e]);
    const sim::HwCounters &h = c.hw;
    s["hw.d_reads"] = double(h.dReads);
    s["hw.d_read_misses"] = double(h.dReadMisses);
    s["hw.i_reads"] = double(h.iReads);
    s["hw.i_read_misses"] = double(h.iReadMisses);
    s["hw.writes"] = double(h.writes);
    s["hw.write_stall_cycles"] = double(h.writeStallCycles);
    s["hw.unaligned_refs"] = double(h.unalignedRefs);
    s["hw.tb_d_misses"] = double(h.tbDMisses);
    s["hw.tb_i_misses"] = double(h.tbIMisses);
    s["hw.ib_fills"] = double(h.ibFills);
    return s;
}

/** The paper's composite CPI (Table 8 total). */
constexpr double PaperCpi = 10.593;

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0;
}

/** Per-layer values: layer times plus one composite's counts. */
void
layerValues(const LayerTimes &t, const sim::CompositeResult &c,
            json::Value &layers)
{
    const obs::Snapshot &o = c.obs;
    using obs::Ev;
    layers.set("workload.generate_ms", t.generateMs);
    layers.set("ulint.lint_ms", t.lintMs);
    layers.set("sim.build_ms", t.buildMs);
    layers.set("sim.build_other_ms", t.buildMs - t.generateMs - t.lintMs);
    layers.set("sim.warmup_ms", t.warmupMs);
    layers.set("sim.measure_ms", t.measureMs);
    layers.set("sim.finish_ms", t.runMs - t.warmupMs - t.measureMs);
    layers.set("sim.audit_ms", t.auditMs);
    layers.set("upc.analyze_ms", t.analyzeMs);
    layers.set("upc.report_ms", t.reportMs);
    layers.set("sim.composite_traced_ms", t.compositeMs);

    const uint64_t cycles = o.value(Ev::UpcCycles);
    const uint64_t instr = o.value(Ev::IboxDecodes);
    layers.set("sim.ns_per_cycle",
               cycles ? 1e6 * t.measureMs / double(cycles) : 0.0);
    layers.set("sim.ns_per_instr",
               instr ? 1e6 * t.measureMs / double(instr) : 0.0);

    layers.set("upc.cycles", cycles);
    layers.set("ibox.decodes", instr);
    layers.set("ebox.uops", o.value(Ev::EboxUops));
    layers.set("ebox.stall_cycles", o.value(Ev::EboxStallCycles));
    layers.set("ebox.ib_stall_cycles", o.value(Ev::EboxIbStallCycles));
    layers.set("ebox.stall_share",
               ratio(o.value(Ev::EboxStallCycles) +
                         o.value(Ev::EboxIbStallCycles),
                     cycles));
    layers.set("cache.d_reads", o.value(Ev::CacheDReads));
    layers.set("cache.d_read_miss_ratio",
               ratio(o.value(Ev::CacheDReadMisses),
                     o.value(Ev::CacheDReads)));
    layers.set("cache.i_reads", o.value(Ev::CacheIReads));
    layers.set("cache.i_read_miss_ratio",
               ratio(o.value(Ev::CacheIReadMisses),
                     o.value(Ev::CacheIReads)));
    const uint64_t tbD = o.value(Ev::TbDHits) + o.value(Ev::TbDMisses);
    layers.set("tb.d_lookups", tbD);
    layers.set("tb.d_miss_ratio", ratio(o.value(Ev::TbDMisses), tbD));
    layers.set("wb.stall_cycles", o.value(Ev::WbStallCycles));
    layers.set("os.context_switches", o.value(Ev::OsContextSwitches));
}

/** Traced and untraced runs of one input must agree to the byte. */
void
checkSameOutputs(const CompositeOut &a, const CompositeOut &b,
                 Checks &checks, const std::string &what)
{
    checks.expect(a.report == b.report, what + ": report bytes differ");
    checks.expect(a.result.histogram == b.result.histogram &&
                      a.result.obs == b.result.obs &&
                      simulatedStats(a.result) == simulatedStats(b.result),
                  what + ": deterministic counts differ");
}

// ----- set-up ----------------------------------------------------------------

/** A daemon, its cache and its socket server. */
struct Service
{
    std::unique_ptr<svc::Daemon> daemon;
    std::unique_ptr<svc::Server> server;
    std::string socket;
    std::string spoolDir;

    ~Service()
    {
        if (server)
            server->stop();
        if (daemon)
            daemon->drain();
    }
};

/** Start a daemon (1 worker, engine jobs 1) and its server. */
std::unique_ptr<Service>
startService(const std::string &dir, bool spool)
{
    auto s = std::make_unique<Service>();
    fs::create_directories(dir);
    svc::DaemonConfig cfg;
    cfg.cacheDir = dir + "/cache";
    cfg.workers = 1;
    cfg.engineJobs = 1;
    if (spool) {
        s->spoolDir = dir + "/spool";
        cfg.spoolDir = s->spoolDir;
    }
    s->socket = dir + "/sock";
    s->daemon = std::make_unique<svc::Daemon>(cfg);
    s->server = std::make_unique<svc::Server>(*s->daemon, s->socket);
    s->server->start();
    // Ready means answering: one ping round trip closes set-up.
    svc::requestOverSocket(s->socket, "ping");
    return s;
}

/**
 * One-time process set-up: the microcode image and its decoded store,
 * plus the daemon, cache and server for the service workloads. Returns
 * seconds.
 */
double
setUp(const Options &o, const std::string &dir,
      std::unique_ptr<Service> &service)
{
    const auto t0 = Clock::now();
    const ucode::MicrocodeImage &img = ucode::microcodeImage();
    (void)ucode::decodedImage(img);
    if (o.workload == "service_spool")
        service = startService(dir, true);
    return msBetween(t0, Clock::now()) / 1000.0;
}

// ----- service stream --------------------------------------------------------

/** A short "paper" job with the report, at a given job seed. */
std::string
jobRequest(uint64_t jobSeed, const Sizes &z)
{
    json::Value r = json::Members{};
    r.set("workloads", "paper");
    r.set("instructions", z.jobInstr);
    r.set("warmup", z.jobWarmup);
    r.set("seed", jobSeed);
    r.set("report", true);
    return r.dump();
}

/** Job seed k of a run: fresh per cold job, nonzero, int64-safe. */
uint64_t
jobSeed(uint64_t base, uint64_t k)
{
    return (deriveSeed(base ? base : 0x780, 1000 + k) & 0xffffffffffffull) |
           1;
}

/** True when a reply is a success whose composites all completed. */
bool
replyOk(const std::string &reply)
{
    try {
        const json::Value v = json::parse(reply);
        const json::Value *ok = v.find("ok");
        const json::Value *reps = v.find("replications");
        if (!ok || !ok->asBool() || !reps || reps->asArray().empty())
            return false;
        for (const json::Value &c : reps->asArray()) {
            const json::Value *all = c.find("all_ok");
            if (!all || !all->asBool())
                return false;
        }
        return true;
    } catch (const SimError &) {
        return false;
    }
}

/** Checkpoint files and bytes under a directory tree. */
struct DirUsage
{
    uint64_t ckpts = 0;
    uint64_t bytes = 0;
};

DirUsage
dirUsage(const fs::path &dir)
{
    DirUsage u;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return u;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (!e.is_regular_file(ec))
            continue;
        u.bytes += e.file_size(ec);
        if (e.path().extension() == ".ckpt")
            ++u.ckpts;
    }
    return u;
}

/** What one request of the closed-loop stream observed. */
struct Exchange
{
    std::string reply;
    double latencyMs = 0;
    double queueWaitMs = -1; //!< "admitted" -> "run" (traced, cold)
    double serviceMs = -1;   //!< "run" -> reply (traced, cold)
};

Exchange
exchange(const Service &s, const std::string &request, bool trace)
{
    Exchange x;
    std::optional<Clock::time_point> admitted, started;
    std::function<void(const std::string &)> onEvent;
    if (trace) {
        onEvent = [&](const std::string &line) {
            const auto now = Clock::now();
            const json::Value ev = json::parse(line);
            const json::Value *type = ev.find("event");
            if (!type || !type->isString())
                return;
            if (type->asString() == "admitted")
                admitted = now;
            else if (type->asString() == "run")
                started = now;
        };
    }
    const auto t0 = Clock::now();
    x.reply = svc::requestOverSocket(s.socket, request, onEvent);
    const auto t1 = Clock::now();
    x.latencyMs = msBetween(t0, t1);
    if (admitted && started)
        x.queueWaitMs = msBetween(*admitted, *started);
    if (started)
        x.serviceMs = msBetween(*started, t1);
    return x;
}

/** Raw results of a service stream. */
struct StreamOut
{
    std::vector<double> coldMs, hitMs, queueWaitMs, serviceMs;
    uint64_t coldJobs = 0;
    uint64_t spoolBytes = 0;   //!< left per job after its reply, summed
    uint64_t spoolCkpts = 0;
    //! (request, reply) of every cold job that completed ok, in order
    std::vector<std::pair<std::string, std::string>> completed;
};

/**
 * The closed-loop client: one request per connection, the next sent
 * only after the previous reply: cold jobs, with every fourth request a
 * hit on an earlier completed one.
 */
StreamOut
runStream(const Options &o, const Sizes &z, const Service &s,
          Checks &checks, RssProbe &rss)
{
    StreamOut out;
    Rng pick(deriveSeed(o.seed ? o.seed : 0x780, 7));
    auto &done = out.completed;

    auto cold = [&] {
        const std::string req =
            jobRequest(jobSeed(o.seed, out.coldJobs), z);
        ++out.coldJobs;
        Exchange x = exchange(s, req, o.trace);
        const bool ok = replyOk(x.reply);
        checks.expect(ok, "cold reply not ok: " + x.reply.substr(0, 160));
        // Account the job's spool, then delete it, so a run keeps at
        // most one job's checkpoints on disk.
        const fs::path dir = fs::path(s.spoolDir) / s.daemon->keyFor(req);
        const DirUsage u = dirUsage(dir);
        out.spoolBytes += u.bytes;
        out.spoolCkpts += u.ckpts;
        std::error_code ec;
        fs::remove_all(dir, ec);
        if (ok)
            done.emplace_back(req, x.reply);
        return x;
    };

    // The first jobs of a fresh process run slow (allocator and page
    // faults); they warm it up untimed.
    for (size_t i = 0; i < z.warmupOps; ++i)
        cold();

    const auto t0 = Clock::now();
    uint64_t n = 0;
    for (;; ++n) {
        const double elapsed = msBetween(t0, Clock::now()) / 1000.0;
        rss.note(out.coldMs.size());
        if (elapsed >= o.seconds && out.coldMs.size() >= z.minSamples)
            break;
        const bool hit = !done.empty() && n % 4 == 3;
        if (hit) {
            const auto &[req, coldReply] = done[pick.below(done.size())];
            Exchange x = exchange(s, req, false);
            checks.expect(x.reply == coldReply,
                          "hit reply differs from its cold reply");
            out.hitMs.push_back(x.latencyMs);
        } else {
            Exchange x = cold();
            out.coldMs.push_back(x.latencyMs);
            if (x.queueWaitMs >= 0)
                out.queueWaitMs.push_back(x.queueWaitMs);
            if (x.serviceMs >= 0)
                out.serviceMs.push_back(x.serviceMs);
        }
    }
    return out;
}

// ----- standalone service probes --------------------------------------------

template <typename Fn>
double
medianMs(size_t reps, Fn &&fn)
{
    std::vector<double> v;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        v.push_back(msBetween(t0, Clock::now()));
    }
    return median(v);
}

void
serviceProbes(const Options &o, const Sizes &z, const Service &s,
              const std::string &sampleRequest, const std::string &reply,
              Checks &checks, json::Value &layers)
{
    layers.set("svc.ping_ms", medianMs(z.probeReps, [&](size_t) {
                   svc::requestOverSocket(s.socket, "ping");
               }));
    layers.set("svc.key_ms", medianMs(z.probeReps, [&](size_t) {
                   (void)s.daemon->keyFor(sampleRequest);
               }));

    layers.set("svc.reply_kb", double(reply.size()) / 1024.0);

    // A second cache, so the probe never touches the daemon's entries.
    svc::ResultCache cache(o.tmp + "/probe-cache", 0);
    std::vector<std::string> keys;
    for (size_t i = 0; i < z.probeReps; ++i) {
        char key[65];
        std::snprintf(key, sizeof key, "%064zx", i + 1);
        keys.push_back(key);
    }
    layers.set("svc.cache_put_ms", medianMs(z.probeReps, [&](size_t i) {
                   cache.put(keys[i], reply);
               }));
    bool same = true;
    layers.set("svc.cache_get_ms", medianMs(z.probeReps, [&](size_t i) {
                   const auto v = cache.get(keys[i]);
                   same = same && v && *v == reply;
               }));
    checks.expect(same, "cache probe returned different bytes");
}

// ----- workloads ---------------------------------------------------------------

struct RunOut
{
    explicit RunOut(size_t rssAt) : rss{rssAt} {}

    RssProbe rss;
    std::vector<double> primaryMs;
    json::Value extra = json::Members{};
    json::Value layers = json::Members{};
};

void
runComposite(const Options &o, const Sizes &z, Spans &spans,
             Checks &checks, RunOut &out)
{
    const sim::ExperimentConfig cfg = compositeConfig(z.compositeInstr);
    const auto profiles = compositeProfiles(o.seed);
    upc::ReportOptions opt;
    opt.title = CompositeTitle;

    std::optional<CompositeOut> first;
    auto untraced = [&] {
        const auto t0 = Clock::now();
        CompositeOut c = runUntracedComposite(cfg, profiles, opt);
        const double ms = msBetween(t0, Clock::now());
        checks.expect(c.result.allOk(), "composite not allOk");
        if (!first) {
            // The first composite warms the process up, untimed, and
            // is the reference every later one must reproduce.
            first = std::move(c);
            return;
        }
        out.primaryMs.push_back(ms);
        out.rss.note(out.primaryMs.size());
        checks.expect(c.report == first->report,
                      "repeated composite report differs");
    };

    untraced();
    const auto t0 = Clock::now();
    if (!o.trace) {
        while (msBetween(t0, Clock::now()) / 1000.0 < o.seconds ||
               out.primaryMs.size() < z.minSamples)
            untraced();
        return;
    }

    // Traced run: alternate untraced and traced composites of the same
    // input; their difference is the tracing overhead.
    std::vector<LayerTimes> times;
    uint64_t nextJob = 0;
    while (msBetween(t0, Clock::now()) / 1000.0 < o.seconds ||
           times.size() < 2) {
        untraced();
        LayerTimes t;
        CompositeOut c =
            runTracedComposite(cfg, profiles, opt, spans, nextJob, t);
        times.push_back(t);
        checks.expect(c.result.allOk(), "traced composite not allOk");
        checkSameOutputs(*first, c, checks, "traced vs untraced composite");
    }
    const LayerTimes m = medianTimes(times);
    layerValues(m, first->result, out.layers);
    out.layers.set("trace.overhead_ms",
                   m.compositeMs - median(out.primaryMs));

    // Simulated-statistics fingerprint at the fixed seed (the paper
    // profiles' own), compared against the recorded one by run.py.
    const CompositeOut fp =
        o.seed == 0 ? *first : runUntracedComposite(
                                   cfg, compositeProfiles(0), opt);
    checks.expect(fp.result.allOk(), "fingerprint composite not allOk");
    json::Value stats = json::Members{};
    for (const auto &[name, v] : simulatedStats(fp.result))
        stats.set(name, v);
    const double cpi = simulatedStats(fp.result)["sim.cpi"];
    stats.set("sim.cpi_err_pct", 100.0 * std::fabs(cpi - PaperCpi) / PaperCpi);
    out.extra.set("fingerprint", std::move(stats));
    out.extra.set("fingerprint_key",
                  "composite-" + std::to_string(z.compositeInstr));
}

/**
 * The layer split of the first few completed cold jobs, each rerun as
 * a traced composite outside the daemon; times are their medians,
 * counts those of the first job.
 */
void
jobLayerSplit(const std::vector<std::pair<std::string, std::string>> &jobs,
              size_t reps, Spans &spans, Checks &checks,
              json::Value &layers)
{
    std::vector<LayerTimes> times;
    std::optional<sim::CompositeResult> firstResult;
    uint64_t job = 1000000;
    for (size_t i = 0; i < std::min(reps, jobs.size()); ++i) {
        const auto &[request, coldReply] = jobs[i];
        const svc::JobSpec spec = svc::parseJobSpec(json::parse(request));
        LayerTimes t;
        CompositeOut c = runTracedComposite(
            svc::toExperimentConfig(spec), svc::profilesFor(spec),
            upc::ReportOptions{}, spans, job, t);
        times.push_back(t);
        // The daemon renders the same report for the same spec (CLI vs
        // daemon parity), so the traced composite must reproduce it.
        const json::Value reply = json::parse(coldReply);
        const json::Value *report = reply.find("report");
        checks.expect(
            report && report->isString() && report->asString() == c.report,
            "traced job composite differs from the daemon's report");
        if (!firstResult)
            firstResult = std::move(c.result);
    }
    if (firstResult)
        layerValues(medianTimes(times), *firstResult, layers);
}

void
runService(const Options &o, const Sizes &z, const Service &s,
           Spans &spans, Checks &checks, RunOut &out)
{
    StreamOut st = runStream(o, z, s, checks, out.rss);
    out.primaryMs = st.coldMs;
    out.extra.set("cold_ms", toJson(st.coldMs));
    out.extra.set("hit_ms", toJson(st.hitMs));

    if (o.trace && !st.completed.empty()) {
        const auto &[req, reply] = st.completed.front();
        serviceProbes(o, z, s, req, reply, checks, out.layers);
        jobLayerSplit(st.completed, z.splitReps, spans, checks, out.layers);
        out.layers.set("svc.queue_wait_ms", median(st.queueWaitMs));
        out.layers.set("svc.service_ms", median(st.serviceMs));
    }

    // Drain, then read the daemon's counters: every cold job ran the
    // engine exactly once, every hit came from the cache.
    s.server->stop();
    s.daemon->drain();
    const svc::DaemonStats ds = s.daemon->stats();
    checks.expect(ds.engineRuns == st.coldJobs,
                  "engine runs " + std::to_string(ds.engineRuns) +
                      " != cold jobs " + std::to_string(st.coldJobs));
    checks.expect(ds.failed == 0 && ds.rejected == 0,
                  "daemon counted failed or rejected requests");
    const DirUsage left = dirUsage(s.spoolDir);
    st.spoolBytes += left.bytes;
    st.spoolCkpts += left.ckpts;

    if (o.trace) {
        out.layers.set("svc.hit_ratio",
                       ratio(ds.cacheHits, ds.cacheHits + ds.cacheMisses));
        out.layers.set("svc.engine_runs", ds.engineRuns);
        out.layers.set("svc.cold_jobs", st.coldJobs);
        const double jobs = double(std::max<uint64_t>(st.coldJobs, 1));
        out.layers.set("snap.checkpoints_per_job",
                       double(st.spoolCkpts) / jobs);
        out.layers.set("snap.ckpt_mb",
                       st.spoolCkpts ? double(st.spoolBytes) / 1e6 /
                                           double(st.spoolCkpts)
                                     : 0.0);
        out.layers.set("snap.spool_mb_per_job",
                       double(st.spoolBytes) / 1e6 / jobs);
        out.layers.set("snap.spool_mb", double(st.spoolBytes) / 1e6);

        // The first timed cold jobs again on a second daemon without
        // the spool: the spool's share of their latency.
        auto plain = startService(o.tmp + "/plain", false);
        std::vector<double> spoolMs, plainMs;
        for (size_t i = 0; i < z.minSamples && i < st.coldMs.size() &&
                           z.warmupOps + i < st.completed.size();
             ++i) {
            spoolMs.push_back(st.coldMs[i]);
            plainMs.push_back(
                exchange(*plain, st.completed[z.warmupOps + i].first,
                         false)
                    .latencyMs);
        }
        out.layers.set("svc.nospool_cold_p50_ms", median(plainMs));
        out.layers.set("snap.spool_overhead_ms",
                       median(spoolMs) - median(plainMs));
    }
}

int
runMain(const Options &o)
{
    const Sizes &z = o.tiny ? TinySizes : FullSizes;
    std::unique_ptr<Service> service;
    const double setupS = setUp(o, o.tmp + "/svc", service);
    if (o.mode == "setup") {
        json::Value r = json::Members{};
        r.set("setup_s", setupS);
        std::printf("%s\n", r.dump().c_str());
        return 0;
    }

    Spans spans;
    Checks checks;
    RunOut out(o.tiny ? 1 : RssAfterOps);
    if (o.workload == "composite")
        runComposite(o, z, spans, checks, out);
    else
        runService(o, z, *service, spans, checks, out);
    service.reset();

    json::Value r = json::Members{};
    r.set("workload", o.workload);
    r.set("setup_s", setupS);
    r.set("peak_rss_kb", out.rss.value());
    r.set("primary_ms", toJson(out.primaryMs));
    r.set("attempted", checks.attempted);
    r.set("failed", checks.failed);
    json::Value reasons = json::Array{};
    for (const std::string &s : checks.reasons)
        reasons.push(s);
    r.set("failures", std::move(reasons));
    r.set("extra", std::move(out.extra));
    if (o.trace) {
        r.set("layers", std::move(out.layers));
        r.set("spans", spans.dump());
    }
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "upcbench: %s\n", e.what());
        return 1;
    }
}
