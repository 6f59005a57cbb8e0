/**
 * @file
 * upcd: the experiment daemon. Listens on a Unix-domain socket,
 * accepts newline-delimited JSON job requests (see svc/server.hh for
 * the protocol), runs them on the parallel engine, and serves results
 * from the content-addressed cache.
 *
 *     upcd --socket PATH --cache-dir DIR [--spool-dir DIR]
 *          [--workers N] [--engine-jobs N] [--cache-budget BYTES]
 *          [--timeout-ms MS] [--max-queue N] [--max-queue-tenant N]
 *
 * SIGTERM/SIGINT trigger a graceful drain: running workloads finish
 * and persist their spool `.result` files, everything queued gets a
 * typed "Draining" error, and the process exits 0. A restarted daemon
 * pointed at the same --spool-dir resumes interrupted composites.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "common/count.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "svc/daemon.hh"
#include "svc/server.hh"

using namespace upc780;

namespace
{

std::atomic<bool> shutdownRequested{false};

void
onSignal(int)
{
    shutdownRequested.store(true);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket PATH --cache-dir DIR\n"
                 "          [--spool-dir DIR] [--workers N]\n"
                 "          [--engine-jobs N] [--cache-budget BYTES]\n"
                 "          [--timeout-ms MS] [--max-queue N]\n"
                 "          [--max-queue-tenant N]\n",
                 argv0);
    return 2;
}

/** The most threads --workers or --engine-jobs may ask for. */
constexpr uint64_t MaxThreads = 256;

} // namespace

int
main(int argc, char **argv)
{
    svc::DaemonConfig cfg;
    cfg.workers = 2;
    std::string socketPath;
    bool badCount = false;
    auto count = [&](const char *what, const char *s,
                     uint64_t max = UINT64_MAX) -> uint64_t {
        const std::optional<uint64_t> v = parseCount(s, 0, max);
        if (!v) {
            std::fprintf(stderr,
                         "upcd: %s: not a number in [0, %llu]: '%s'\n",
                         what, static_cast<unsigned long long>(max), s);
            badCount = true;
        }
        return v.value_or(0);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasArg = i + 1 < argc;
        if (a == "--socket" && hasArg) {
            socketPath = argv[++i];
        } else if (a == "--cache-dir" && hasArg) {
            cfg.cacheDir = argv[++i];
        } else if (a == "--spool-dir" && hasArg) {
            cfg.spoolDir = argv[++i];
        } else if (a == "--workers" && hasArg) {
            cfg.workers = static_cast<unsigned>(
                count("--workers", argv[++i], MaxThreads));
        } else if (a == "--engine-jobs" && hasArg) {
            cfg.engineJobs = static_cast<unsigned>(
                count("--engine-jobs", argv[++i], MaxThreads));
        } else if (a == "--cache-budget" && hasArg) {
            cfg.cacheBudgetBytes = count("--cache-budget", argv[++i]);
        } else if (a == "--timeout-ms" && hasArg) {
            cfg.requestTimeoutMs = count("--timeout-ms", argv[++i]);
        } else if (a == "--max-queue" && hasArg) {
            cfg.maxQueuedTotal =
                static_cast<size_t>(count("--max-queue", argv[++i]));
        } else if (a == "--max-queue-tenant" && hasArg) {
            cfg.maxQueuedPerTenant =
                static_cast<size_t>(count("--max-queue-tenant", argv[++i]));
        } else {
            return usage(argv[0]);
        }
    }
    if (badCount || socketPath.empty() || cfg.cacheDir.empty())
        return usage(argv[0]);
    if (cfg.workers == 0)
        cfg.workers = 1; // the tool has no manual pump

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    try {
        svc::Daemon daemon(cfg);
        svc::Server server(daemon, socketPath);
        server.start();
        inform("upcd: listening on %s (cache %s, %u workers)",
               socketPath.c_str(), cfg.cacheDir.c_str(), cfg.workers);

        while (!shutdownRequested.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));

        inform("upcd: draining");
        server.stop();
        daemon.drain();
        const svc::DaemonStats s = daemon.stats();
        inform("upcd: done (%llu completed, %llu hits, %llu runs, "
               "%llu drained)",
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.cacheHits),
               static_cast<unsigned long long>(s.engineRuns),
               static_cast<unsigned long long>(s.drained));
    } catch (const SimError &e) {
        std::fprintf(stderr, "upcd: %s\n", e.what());
        return 1;
    }
    return 0;
}
