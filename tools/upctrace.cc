/**
 * @file
 * upctrace — run a workload under the structured event tracer and dump
 * the stream, either as human-readable lines or as Chrome trace_event
 * JSON that opens directly in Perfetto (ui.perfetto.dev) or
 * chrome://tracing.
 *
 *   upctrace [options] [workload] [instructions]
 *
 *   workload        ts1 ts2 edu sci com bursty (default ts1)
 *   instructions    measured instruction count (default 20000)
 *
 *   --categories L  comma-separated list (instr,mem,tb,os,irq,fault,
 *                   sim) or "all"; events outside the mask are never
 *                   buffered (default all)
 *   --limit N       ring-buffer capacity in events; older events fall
 *                   out once it wraps (default 65536)
 *   --json [FILE]   emit Chrome trace JSON instead of text, to FILE
 *                   or stdout
 *   --metrics       append the sim-rate / event-counter table (stderr)
 *
 * Exit status 2 on usage errors, 1 if the run itself failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/count.hh"
#include "common/error.hh"
#include "obs/counters.hh"
#include "obs/hostprof.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

using namespace upc780;

namespace
{

/** The deepest trace ring --limit may ask for (32 bytes an event). */
constexpr uint32_t MaxLimit = 1u << 24;

int
usage()
{
    std::fprintf(stderr,
                 "usage: upctrace [--categories LIST] [--limit N] "
                 "[--json [FILE]] [--metrics]\n"
                 "                [ts1|ts2|edu|sci|com|bursty] "
                 "[instructions]\n");
    return 2;
}

void
printText(const std::vector<obs::TraceEvent> &events)
{
    for (const obs::TraceEvent &e : events) {
        std::printf("%12llu  %-6s %-12s arg0=%#llx arg1=%u\n",
                    static_cast<unsigned long long>(e.ts),
                    std::string(obs::catName(
                                    static_cast<obs::Cat>(e.cat)))
                        .c_str(),
                    std::string(obs::codeName(
                                    static_cast<obs::Code>(e.code)))
                        .c_str(),
                    static_cast<unsigned long long>(e.arg0), e.arg1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t mask = obs::AllCats;
    uint32_t limit = 1u << 16;
    bool json = false, metrics = false;
    const char *json_file = nullptr;
    const char *pos[2] = {nullptr, nullptr};
    int npos = 0;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--categories") && i + 1 < argc) {
            if (!obs::parseCategories(argv[++i], mask)) {
                std::fprintf(stderr,
                             "upctrace: bad category list '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--limit") && i + 1 < argc) {
            const auto v = parseCount(argv[++i], 1, MaxLimit);
            if (!v) {
                std::fprintf(stderr,
                             "upctrace: --limit: not a number in [1, %u]: "
                             "'%s'\n",
                             MaxLimit, argv[i]);
                return usage();
            }
            limit = static_cast<uint32_t>(*v);
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
            // An optional FILE operand follows iff it ends in ".json"
            // (keeps `upctrace --json ts1` unambiguous).
            if (i + 1 < argc) {
                size_t len = std::strlen(argv[i + 1]);
                if (len > 5 &&
                    !std::strcmp(argv[i + 1] + len - 5, ".json"))
                    json_file = argv[++i];
            }
        } else if (!std::strcmp(argv[i], "--metrics")) {
            metrics = true;
        } else if (argv[i][0] == '-') {
            return usage();
        } else if (npos < 2) {
            pos[npos++] = argv[i];
        } else {
            return usage();
        }
    }

    wkl::WorkloadProfile profile;
    try {
        profile = wkl::profileById(npos > 0 ? pos[0] : "ts1");
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "upctrace: %s\n", e.what());
        return 2;
    }
    uint64_t n = 20000;
    if (npos > 1) {
        const auto v = parseCount(pos[1]);
        if (!v) {
            std::fprintf(stderr,
                         "upctrace: instructions: not a positive number: "
                         "'%s'\n",
                         pos[1]);
            return usage();
        }
        n = *v;
    }

    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = n;
    cfg.warmupInstructions = n / 6;
    cfg.obs.counters = true;
    cfg.obs.traceDepth = limit;
    cfg.obs.traceMask = mask;

    sim::ExperimentRunner runner(cfg);
    sim::WorkloadResult r = runner.runWorkload(profile);
    if (!r.ok) {
        std::fprintf(stderr, "upctrace: %s: %s\n", profile.name.c_str(),
                     r.error.c_str());
        return 1;
    }

    if (json) {
        std::string doc = obs::toChromeJson(r.trace);
        if (json_file) {
            FILE *f = std::fopen(json_file, "w");
            if (!f) {
                std::fprintf(stderr, "upctrace: cannot write %s\n",
                             json_file);
                return 1;
            }
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
            std::fprintf(stderr,
                         "upctrace: wrote %zu events to %s — open in "
                         "ui.perfetto.dev\n",
                         r.trace.size(), json_file);
        } else {
            std::fwrite(doc.data(), 1, doc.size(), stdout);
        }
    } else {
        printText(r.trace);
        std::fprintf(stderr, "upctrace: %zu events buffered\n",
                     r.trace.size());
    }

    if (metrics) {
        obs::MetricsRow row;
        row.name = profile.name;
        row.instructions = r.obs.value(obs::Ev::IboxDecodes);
        row.cycles = r.cycles;
        row.host = r.host;
        std::fputs(obs::writeMetrics({row}, r.obs).c_str(), stderr);
    }
    return 0;
}
