/**
 * @file
 * Workload-generator tests: generated programs decode cleanly from
 * start to finish, stay within their mapped regions statically, vary
 * across users, and the canned profiles are well-formed.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/decoder.hh"
#include "mmu/pagetable.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
using namespace upc780::arch;

TEST(Profiles, FiveCannedWorkloads)
{
    auto all = wkl::paperWorkloads();
    ASSERT_EQ(all.size(), 5u);
    std::set<std::string> names;
    for (const auto &p : all) {
        names.insert(p.name);
        EXPECT_GE(p.users, 15u);
        EXPECT_LE(p.users, 40u);
        EXPECT_GT(p.dataPages, 0u);
        EXPECT_GT(p.thinkMeanCycles, 0.0);
    }
    EXPECT_EQ(names.size(), 5u);  // distinct names
}

TEST(Profiles, UserCountsMatchPaper)
{
    EXPECT_EQ(wkl::timesharing1Profile().users, 15u);
    EXPECT_EQ(wkl::timesharing2Profile().users, 30u);
    EXPECT_EQ(wkl::educationalProfile().users, 40u);
    EXPECT_EQ(wkl::scientificProfile().users, 40u);
    EXPECT_EQ(wkl::commercialProfile().users, 32u);
}

class GeneratedProgram : public ::testing::TestWithParam<int>
{
  protected:
    wkl::WorkloadProfile
    profileFor(int i)
    {
        auto all = wkl::paperWorkloads();
        return all[static_cast<size_t>(i) % all.size()];
    }
};

TEST_P(GeneratedProgram, DecodesFromEntryWithoutGaps)
{
    auto profile = profileFor(GetParam());
    wkl::ProgramGenerator gen(profile, 7777 + GetParam());
    os::ProcessImage img = gen.generate();

    ASSERT_LT(img.entry, img.p0Image.size());
    // Decode linearly from address 0 (functions come first); every
    // byte up to the data region must decode as a valid instruction.
    // CASE tables interrupt linear decode, so decode greedily and
    // allow a bounded number of resync skips (table words).
    uint32_t pos = 0;
    uint32_t decoded = 0, skips = 0;
    const uint32_t code_end = 24576;
    while (pos < code_end && pos < img.p0Image.size()) {
        // Stop at the zero padding after the program (a run of
        // zeros; single zero bytes occur inside CASE tables).
        if (img.p0Image[pos] == 0) {
            uint32_t z = pos;
            while (z < img.p0Image.size() && img.p0Image[z] == 0)
                ++z;
            if (z - pos > 16)
                break;
            skips += z - pos;
            pos = z;
            continue;
        }
        DecodedInst di;
        uint32_t n = decodeInstruction(
            {img.p0Image.data() + pos,
             img.p0Image.size() - pos}, di);
        if (n == 0) {
            ++skips;
            ++pos;
            continue;
        }
        ++decoded;
        pos += n;
        // CASE displacement tables follow the instruction; skip them.
        if (di.info && di.info->pcClass == PcClass::Case) {
            // Tables are limit+1 words; bounded by the generator.
            while (pos + 1 < img.p0Image.size() &&
                   (img.p0Image[pos] != 0 || img.p0Image[pos + 1] != 0) &&
                   decodeInstruction({img.p0Image.data() + pos,
                                      img.p0Image.size() - pos},
                                     di) == 0) {
                pos += 2;
            }
        }
    }
    EXPECT_GT(decoded, 200u);
    // Resync skips should be rare (entry-mask words, case tables).
    EXPECT_LT(skips, decoded / 4);
}

TEST_P(GeneratedProgram, FitsDeclaredRegions)
{
    auto profile = profileFor(GetParam());
    wkl::ProgramGenerator gen(profile, 1234 + GetParam());
    os::ProcessImage img = gen.generate();
    EXPECT_EQ(img.p0Image.size() % 4, 0u);
    EXPECT_LE(img.p0Image.size(),
              static_cast<size_t>(img.p0Pages) * 512);
    // Stack headroom above the image.
    EXPECT_GE(img.p0Pages * 512 - img.p0Image.size(), 8u * 512);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedProgram,
                         ::testing::Range(0, 10));

TEST(Generator, DistinctUsersGetDistinctPrograms)
{
    auto profile = wkl::educationalProfile();
    profile.users = 4;
    auto images = wkl::buildWorkload(profile);
    ASSERT_EQ(images.size(), 4u);
    EXPECT_NE(images[0].p0Image, images[1].p0Image);
    EXPECT_NE(images[1].p0Image, images[2].p0Image);
}

TEST(Generator, DeterministicForSameSeed)
{
    auto profile = wkl::scientificProfile();
    wkl::ProgramGenerator g1(profile, 42), g2(profile, 42);
    EXPECT_EQ(g1.generate().p0Image, g2.generate().p0Image);
}

TEST(Generator, ProfileShiftsOpcodeMix)
{
    // The scientific profile must emit more float opcodes than the
    // commercial profile; the commercial one more decimal/queue ops.
    auto count_ops = [](const wkl::WorkloadProfile &p,
                        auto predicate) {
        uint32_t hits = 0;
        for (uint64_t seed : {99, 100, 101, 102}) {
            wkl::ProgramGenerator gen(p, seed);
            auto img = gen.generate();
            uint32_t pos = 0;
            uint32_t zeros = 0;
            while (pos < img.p0Image.size() && zeros < 16) {
                if (img.p0Image[pos] == 0) {
                    ++zeros;
                    ++pos;
                    continue;
                }
                zeros = 0;
                DecodedInst di;
                uint32_t n = decodeInstruction(
                    {img.p0Image.data() + pos,
                     img.p0Image.size() - pos},
                    di);
                if (!n) {
                    ++pos;
                    continue;
                }
                if (predicate(di.info->group))
                    ++hits;
                pos += n;
            }
        }
        return hits;
    };
    auto is_float = [](Group g) { return g == Group::Float; };
    auto is_dec = [](Group g) { return g == Group::Decimal; };
    EXPECT_GT(count_ops(wkl::scientificProfile(), is_float),
              count_ops(wkl::commercialProfile(), is_float));
    EXPECT_GE(count_ops(wkl::commercialProfile(), is_dec),
              count_ops(wkl::scientificProfile(), is_dec));
}

namespace
{

/** FNV-1a over every image of a workload: p0Image, entry, p0Pages. */
uint64_t
workloadHash(const std::vector<os::ProcessImage> &images)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ull;
    };
    auto mix32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            mix(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (const os::ProcessImage &img : images) {
        for (uint8_t b : img.p0Image)
            mix(b);
        mix32(img.entry);
        mix32(img.p0Pages);
    }
    return h;
}

} // namespace

TEST(Generator, GoldenImageHashes)
{
    // The generator's output, pinned: every program of the five paper
    // profiles and the bursty-network profile, at the canned seed
    // (stream 0) and derived streams 1 and 2. A change to the
    // generator, the assembler or the RNG that moves one draw or one
    // byte shows up here.
    static const uint64_t golden[6][3] = {
        {0x11ed70168538d236ull, 0x091df914328a82e2ull,
         0x99fd49cb7384a3d1ull},  // timesharing-1
        {0x0eb6bbba970d446dull, 0x4fd4d865cda4740eull,
         0xa875b6e527ecc761ull},  // timesharing-2
        {0x63f0f2305a96426dull, 0xeb70e719eff23304ull,
         0xb522f45b87c07452ull},  // educational
        {0x0bbe2a03d8baa706ull, 0x16bf1cbc2c847650ull,
         0xfc2839676127aca0ull},  // scientific
        {0x16c6b6458f704a20ull, 0x9a67933251d0369dull,
         0x103137d475fbe74aull},  // commercial
        {0xc5697c7517fd4d27ull, 0xe4a7e7c9e13d3ccbull,
         0xc71ae3ad9c5258caull},  // bursty network
    };
    std::vector<wkl::WorkloadProfile> profiles = wkl::paperWorkloads();
    profiles.push_back(wkl::burstyNetworkProfile());
    ASSERT_EQ(profiles.size(), 6u);
    for (size_t i = 0; i < profiles.size(); ++i) {
        for (uint64_t stream = 0; stream < 3; ++stream) {
            wkl::WorkloadProfile p = profiles[i];
            p.seed = deriveSeed(profiles[i].seed, stream);
            EXPECT_EQ(workloadHash(wkl::buildWorkload(p)),
                      golden[i][stream])
                << p.name << ", seed stream " << stream;
        }
    }
}

TEST(Generator, ShapeIsEveryImagesShape)
{
    // A kernel maps a process's frames from programShape() at boot and
    // loads the generated image at the first dispatch: for every user
    // of every profile the two must agree, and generating one program
    // alone must give the bytes buildWorkload gives.
    std::vector<wkl::WorkloadProfile> profiles = wkl::paperWorkloads();
    profiles.push_back(wkl::burstyNetworkProfile());
    for (const wkl::WorkloadProfile &base : profiles) {
        for (uint64_t stream = 0; stream < 3; ++stream) {
            wkl::WorkloadProfile p = base;
            p.seed = deriveSeed(base.seed, stream);
            SCOPED_TRACE(p.name + ", seed stream " + std::to_string(stream));
            const os::ProcessShape shape = wkl::programShape(p);
            const std::vector<os::ProcessImage> all = wkl::buildWorkload(p);
            ASSERT_EQ(all.size(), p.users);
            for (uint32_t u = 0; u < p.users; ++u) {
                const os::ProcessImage img = wkl::generateProgram(p, u);
                EXPECT_EQ(img.p0Pages, shape.p0Pages) << "user " << u;
                EXPECT_EQ(img.p1StackPages, shape.p1StackPages)
                    << "user " << u;
                EXPECT_EQ(img.thinkMeanCycles, shape.thinkMeanCycles)
                    << "user " << u;
                EXPECT_LE(img.p0Image.size(),
                          size_t{shape.p0Pages} * mmu::PageBytes)
                    << "user " << u;
                EXPECT_EQ(img.p0Image, all[u].p0Image) << "user " << u;
                EXPECT_EQ(img.entry, all[u].entry) << "user " << u;
                EXPECT_EQ(img.p0Pages, all[u].p0Pages) << "user " << u;
            }
        }
    }
}
