/**
 * @file
 * The engine and crash-resilience flags paper_report and vaxsim_cli
 * share, with one strict parser:
 *
 *   --jobs N                worker threads (default UPC780_JOBS, else
 *                           all cores)
 *   --seeds K               seed replications per workload
 *   --metrics               append the observability summary
 *   --checkpoint-dir DIR    persist checkpoints + per-task results
 *   --checkpoint-every N    periodic checkpoint cadence in cycles
 *   --crash-at C1[,C2...]   simulate a harness crash at those cycles
 *                           (attempt k crashes at Ck; one past the
 *                           list, the run survives — a retry drill)
 *   --resume                reuse finished .result files and restart
 *                           interrupted workloads from their latest
 *                           checkpoint instead of from boot
 *
 * An unknown `--` flag, a missing value, or a count that is not a
 * positive number (common/count.hh) prints the message and the usage
 * text to stderr and exits with status 2.
 */

#ifndef UPC780_EXAMPLES_ENGINE_ARGS_HH
#define UPC780_EXAMPLES_ENGINE_ARGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/count.hh"
#include "sim/experiment.hh"
#include "snap/snapshot.hh"

namespace upc780::examples
{

/** The flag list, for usage texts. */
inline constexpr const char *EngineFlagsUsage =
    "[--jobs N] [--seeds K] [--metrics] [--checkpoint-dir DIR]\n"
    "         [--checkpoint-every N] [--crash-at C1[,C2...]] [--resume]";

/** Print @p problem and @p usage to stderr, then exit with status 2. */
[[noreturn]] inline void
usageError(const std::string &problem, const char *usage)
{
    std::fprintf(stderr, "error: %s\n%s\n", problem.c_str(), usage);
    std::exit(2);
}

/** A count in [@p min, @p max] (upc780::parseCount) or a usage error. */
inline uint64_t
countArg(const char *what, const char *s, const char *usage,
         uint64_t min = 1, uint64_t max = UINT64_MAX)
{
    const std::optional<uint64_t> v = parseCount(s, min, max);
    if (!v) {
        usageError(std::string(what) + ": not a number in [" +
                       std::to_string(min) + ", " + std::to_string(max) +
                       "]: '" + s + "'",
                   usage);
    }
    return *v;
}

/** The shared flags, parsed. */
struct EngineArgs
{
    unsigned jobs = 0;
    unsigned seeds = 1;
    bool metrics = false;
    snap::CheckpointPolicy checkpoint;
    std::vector<uint64_t> crashAt;

    /**
     * Consume argv[i] if it is one of the shared flags, advancing @p i
     * past its value, and return true. Return false for an argument
     * that does not start with "--"; any other `--` argument is a
     * usage error.
     */
    bool
    take(int &i, int argc, char **argv, const char *usage)
    {
        const char *a = argv[i];
        if (std::strncmp(a, "--", 2))
            return false;
        auto value = [&] {
            if (i + 1 >= argc)
                usageError(std::string(a) + " needs a value", usage);
            return argv[++i];
        };
        if (!std::strcmp(a, "--metrics")) {
            metrics = true;
        } else if (!std::strcmp(a, "--resume")) {
            checkpoint.resume = true;
        } else if (!std::strcmp(a, "--jobs")) {
            jobs = static_cast<unsigned>(
                countArg(a, value(), usage, 1, UINT32_MAX));
        } else if (!std::strcmp(a, "--seeds")) {
            seeds = static_cast<unsigned>(
                countArg(a, value(), usage, 1, UINT32_MAX));
        } else if (!std::strcmp(a, "--checkpoint-dir")) {
            checkpoint.dir = value();
        } else if (!std::strcmp(a, "--checkpoint-every")) {
            checkpoint.everyCycles = countArg(a, value(), usage);
        } else if (!std::strcmp(a, "--crash-at")) {
            const std::string list = value();
            size_t at = 0;
            for (;;) {
                const size_t comma = list.find(',', at);
                crashAt.push_back(countArg(
                    a, list.substr(at, comma - at).c_str(), usage));
                if (comma == std::string::npos)
                    break;
                at = comma + 1;
            }
        } else {
            usageError(std::string("unknown flag '") + a + "'", usage);
        }
        return true;
    }

    /** Fold the checkpoint flags into an experiment config. */
    void
    apply(sim::ExperimentConfig &cfg) const
    {
        cfg.checkpoint = checkpoint;
        cfg.checkpoint.scriptCrashes(crashAt);
    }
};

} // namespace upc780::examples

#endif // UPC780_EXAMPLES_ENGINE_ARGS_HH
