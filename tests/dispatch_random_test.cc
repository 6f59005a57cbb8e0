/**
 * @file
 * Dual-dispatch differential on seeded random program mixes: the
 * threaded dispatcher must match the switch interpreter byte for byte
 * (see dispatch_diff.hh) on workloads whose every setting is drawn at
 * random, so the differential does not rest on the paper's profiles
 * alone.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/random.hh"
#include "dispatch_diff.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

using namespace upc780;
using namespace upc780::dispatchdiff;
using ucode::DispatchMode;

namespace
{

/**
 * A seeded random program mix: every block weight, the user count, the
 * data footprint and the loop length are drawn from common/random, so
 * the differential does not rest on the paper's settings alone.
 */
wkl::WorkloadProfile
randomProfile(uint64_t seed)
{
    Rng rng(seed);
    wkl::WorkloadProfile p;
    p.name = "random mix " + std::to_string(seed);
    p.seed = seed;
    wkl::BlockWeights &w = p.weights;
    for (double *weight :
         {&w.intLoop, &w.dataMove, &w.branchy, &w.callTree, &w.subrCalls,
          &w.stringOps, &w.floatKernel, &w.intMulDiv, &w.fieldOps,
          &w.bitBranches, &w.caseDispatch, &w.decimalOps, &w.queueOps,
          &w.sysWrite})
        *weight = rng.uniform();
    p.users = static_cast<uint32_t>(rng.range(3, 12));
    p.dataPages = static_cast<uint32_t>(rng.range(16, 160));
    p.loopIterMean = 2.0 + 18.0 * rng.uniform();
    return p;
}

class DispatchRandomMix : public ::testing::TestWithParam<uint64_t>
{};

} // namespace

TEST_P(DispatchRandomMix, ByteIdenticalAcrossDispatchers)
{
    const wkl::WorkloadProfile profile = randomProfile(GetParam());
    sim::ExperimentRunner sw(configFor(DispatchMode::Switch));
    sim::ExperimentRunner th(configFor(DispatchMode::Threaded));
    expectIdentical(sw.runWorkload(profile), th.runWorkload(profile));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchRandomMix,
                         ::testing::Values(1, 2, 3, 4));
