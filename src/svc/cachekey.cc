#include "svc/cachekey.hh"

#include "common/random.hh"
#include "common/serial.hh"
#include "svc/sha256.hh"
#include "ucode/controlstore.hh"

namespace upc780::svc
{

std::vector<uint8_t>
canonicalMachineBytes(const cpu::MachineConfig &m)
{
    // dispatch is excluded: every dispatch mode runs the one EBOX
    // cycle body (ctest -L dispatch checks the results agree), so it
    // cannot shape a result. The image is covered separately, by
    // content hash (see canonicalJobBytes) — a pointer has no
    // canonical bytes.
    ByteWriter w;
    cpu::writeCanonical(w, m);
    return w.take();
}

std::vector<uint8_t>
canonicalJobBytes(const JobSpec &spec)
{
    ByteWriter w;
    w.str("upc780.job.v1");
    w.blob(canonicalMachineBytes(spec.machine));

    // The image the machine will actually run: an explicit override,
    // else the fpa-selected shipped image.
    const ucode::MicrocodeImage &img =
        spec.machine.image ? *spec.machine.image
        : spec.machine.fpa ? ucode::microcodeImage()
                           : ucode::microcodeImageNoFpa();
    w.u64(ucode::imageContentHash(img));

    // Workloads with their full parameters and effective base seeds.
    const auto profiles = profilesFor(spec);
    w.u32(static_cast<uint32_t>(spec.workloads.size()));
    for (size_t i = 0; i < spec.workloads.size(); ++i) {
        w.str(spec.workloads[i]);
        wkl::writeCanonical(w, profiles[i]);
    }

    // The explicit seed set: one derived seed per (replication,
    // workload), exactly the seeds runReplicated hands each task.
    w.u32(spec.replications);
    for (uint32_t r = 0; r < spec.replications; ++r)
        for (const auto &p : profiles)
            w.u64(deriveSeed(p.seed, r));

    w.u64(spec.instructions);
    w.u64(spec.warmup);
    w.b(spec.excludeIdle);
    w.b(spec.report);
    return w.take();
}

std::string
cacheKey(const JobSpec &spec)
{
    return sha256Hex(canonicalJobBytes(spec));
}

} // namespace upc780::svc
