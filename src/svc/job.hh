/**
 * @file
 * Experiment jobs as data: the JobSpec a client submits, its JSON
 * codec, admission validation, and the mapping onto the experiment
 * layer (ExperimentConfig + workload profiles).
 *
 * A JobSpec is the daemon's unit of work and of caching: everything
 * that shapes the reply bytes is in the spec, and only that — tenant
 * identity rides along for fairness and accounting but never reaches
 * the simulation, so two tenants asking the same physical question
 * share one cache entry (see svc/cachekey.hh).
 *
 * Admission is strict by design ("validates and lints them at
 * admission"): unknown fields, unknown workload ids, zero or
 * over-budget instruction counts, and geometrically impossible cache
 * shapes are all rejected with a ConfigError *before* the job can
 * occupy a queue slot, so a malformed request never costs a worker.
 */

#ifndef UPC780_SVC_JOB_HH
#define UPC780_SVC_JOB_HH

#include <string>
#include <vector>

#include "cpu/vax780.hh"
#include "sim/experiment.hh"
#include "common/json.hh"
#include "workload/profile.hh"

namespace upc780::svc
{

/** Admission limits (the daemon's contract with its own capacity). */
struct AdmissionLimits
{
    uint64_t maxInstructions = 2000000; //!< per workload
    uint32_t maxReplications = 64;
    size_t maxWorkloads = 16;

    bool operator==(const AdmissionLimits &) const = default;
};

/** One experiment job, as submitted. */
struct JobSpec
{
    /** Fairness/accounting identity; never part of the cache key. */
    std::string tenant = "default";

    /**
     * Workload ids, in run order: ts1 ts2 edu sci com bursty, or the
     * shorthand "paper" (the five paper workloads, paper order),
     * which parseJobSpec expands so the canonical spec always names
     * profiles explicitly.
     */
    std::vector<std::string> workloads;

    uint64_t instructions = 20000; //!< measured per workload
    uint64_t warmup = 4000;        //!< warm-up instructions
    uint32_t replications = 1;     //!< seed replications per workload

    /**
     * Base seed override: 0 keeps each profile's own seed; otherwise
     * every workload runs deriveSeed(seed, workload-index) streams.
     * Replication r further derives deriveSeed(base, r), exactly as
     * the parallel engine's runReplicated does.
     */
    uint64_t seed = 0;

    /** Machine geometry (the §5 constants; defaults are the paper's). */
    cpu::MachineConfig machine;

    bool excludeIdle = true; //!< gate the monitor across Null (§2.2)

    /** Include the full rendered Tables 1-9 report in the reply. */
    bool report = false;

    /** Fetch mode: serve from cache or fail; never simulate. */
    bool cacheOnly = false;

    bool operator==(const JobSpec &) const = default;
};

/**
 * Parse and validate a request document (the object a client writes
 * on the wire). Strict: an unknown member, a wrong type, or an
 * out-of-range value throws ConfigError naming the member. The
 * returned spec is canonical: "paper" is expanded, defaults are
 * materialized.
 */
JobSpec parseJobSpec(const json::Value &request,
                     const AdmissionLimits &limits = {});

/** Serialize a spec back to its canonical request object. */
json::Value jobSpecToJson(const JobSpec &spec);

/** The run-order profile list for a spec (seed overrides applied). */
std::vector<wkl::WorkloadProfile> profilesFor(const JobSpec &spec);

/**
 * The experiment configuration a spec runs under. Checkpoint policy,
 * cancellation and chaos knobs are left at defaults — they belong to
 * the daemon (spool dir, drain), not the spec, and are deliberately
 * outside the cache key.
 */
sim::ExperimentConfig toExperimentConfig(const JobSpec &spec);

} // namespace upc780::svc

#endif // UPC780_SVC_JOB_HH
