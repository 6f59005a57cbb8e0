/**
 * @file
 * One verified object per shipped control-store image.
 *
 * Every workload run lints its machine's microprogram before it
 * measures and audits its histogram against the image's attribution
 * matrix afterwards. Both derive the same things from the image: the
 * static CFG, the per-word effects map and the lint report. For the
 * two shipped images — which are immutable singletons — that work is
 * done once per process, here, and kept.
 *
 * The decoded store is not kept here. Holding the shipped image's
 * 256 KB decode for the whole process changed how glibc's allocator
 * reused memory between spooled jobs: each checkpointing job then
 * faulted in ~17K fresh pages (~60 ms of system time) instead of ~250.
 * A machine decodes its image when it is built (ucode/decoded.hh);
 * that costs about 0.5 ms.
 *
 * The object is found by the image's identity, and only for the
 * shipped images: any other image (a MachineConfig::image override,
 * a defective test copy) gets nullptr and is verified fresh by its
 * caller. A custom image may be freed and another built at the same
 * address, so no memo may be keyed on an arbitrary image's address;
 * nor on its content hash, which leaves out state the linter reads.
 */

#ifndef UPC780_ULINT_VERIFIED_HH
#define UPC780_ULINT_VERIFIED_HH

#include "ulint/cfg.hh"
#include "ulint/effects.hh"
#include "ulint/ulint.hh"

namespace upc780::ulint
{

/** A shipped image with everything verified about it. Immutable. */
struct VerifiedImage
{
    explicit VerifiedImage(const ucode::MicrocodeImage &img);

    MicroCfg cfg;
    EffectMap effects;
    Report report;
};

/**
 * The verified object of @p image when it is microcodeImage() or
 * microcodeImageNoFpa() (compared by address); nullptr for any other
 * image. Built on first use; thread-safe.
 */
const VerifiedImage *shippedVerified(const ucode::MicrocodeImage &image);

} // namespace upc780::ulint

#endif // UPC780_ULINT_VERIFIED_HH
