/**
 * @file
 * Dual-dispatch differential on seeded random program mixes: the
 * threaded dispatcher must match the switch interpreter byte for byte
 * (see dispatch_diff.hh) on workloads whose every setting is drawn at
 * random, so the differential does not rest on the paper's profiles
 * alone.
 */

#include <gtest/gtest.h>

#include "dispatch_diff.hh"
#include "sim/experiment.hh"

using namespace upc780;
using namespace upc780::dispatchdiff;
using ucode::DispatchMode;

namespace
{

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
