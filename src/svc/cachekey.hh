/**
 * @file
 * Content-addressed cache keys for experiment results.
 *
 * The determinism contract (DESIGN.md §10) makes a reply a pure
 * function of (machine config, microcode image, workloads, seed set,
 * budgets): run it twice, get the same bytes. The key of a cache
 * entry is therefore the SHA-256 of a *canonical preimage* of exactly
 * those inputs:
 *
 *     "upc780.job.v1"                 format tag (bump on any change)
 *     canonical MachineConfig bytes   every documented field, fixed
 *                                     order, fixed widths
 *     u64 image content hash          ucode::imageContentHash of the
 *                                     image the machine will run
 *     per workload: id + full profile parameters + effective seed
 *     u64 derived seed per (replication, workload) — the seed set
 *     budgets and reply-shaping flags (instructions, warmup,
 *     exclude_idle, replications, report)
 *
 * Deliberately absent: tenant (fairness identity, not physics — two
 * tenants share one entry), cache_only (how to answer, not what),
 * dispatch mode (every mode runs the one EBOX cycle body, and
 * `ctest -L dispatch` checks the replies agree), and every daemon-side
 * knob (spool dir, checkpoint cadence, chaos crashes, timeouts) — a
 * job that crashed and recovered caches under the same key as one that
 * ran clean.
 *
 * Canonical means canonical: the key is a function of the *parsed*
 * JobSpec, so JSON member order, whitespace, and spelled-out defaults
 * cannot perturb it. The cachekey-labeled property tests pin both
 * directions: equal specs hash equal, and every documented field
 * perturbation changes the key.
 */

#ifndef UPC780_SVC_CACHEKEY_HH
#define UPC780_SVC_CACHEKEY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "svc/job.hh"

namespace upc780::svc
{

/** Canonical byte serialization of a machine configuration. */
std::vector<uint8_t> canonicalMachineBytes(const cpu::MachineConfig &m);

/** The full canonical preimage of a job (see file comment). */
std::vector<uint8_t> canonicalJobBytes(const JobSpec &spec);

/** SHA-256 of the canonical preimage, as 64 lowercase hex chars. */
std::string cacheKey(const JobSpec &spec);

} // namespace upc780::svc

#endif // UPC780_SVC_CACHEKEY_HH
