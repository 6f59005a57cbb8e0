/**
 * @file
 * MMU tests: address-space classification, PTE math, the software
 * reference walker (including the nested process-PTE translation),
 * and the split translation buffer with its flush semantics.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/memory.hh"
#include "mmu/pagetable.hh"
#include "mmu/tb.hh"
#include "obs/counters.hh"
#include "common/random.hh"

using namespace upc780;
using namespace upc780::mmu;
using obs::Ev;

TEST(AddressSpace, Classification)
{
    EXPECT_EQ(spaceOf(0x00000000), Space::P0);
    EXPECT_EQ(spaceOf(0x3FFFFFFF), Space::P0);
    EXPECT_EQ(spaceOf(0x40000000), Space::P1);
    EXPECT_EQ(spaceOf(0x7FFFFFFF), Space::P1);
    EXPECT_EQ(spaceOf(0x80000000), Space::S0);
    EXPECT_EQ(spaceOf(0xBFFFFFFF), Space::S0);
    EXPECT_EQ(spaceOf(0xC0000000), Space::Reserved);
}

TEST(AddressSpace, VpnWithinRegion)
{
    EXPECT_EQ(vpnOf(0x00000000), 0u);
    EXPECT_EQ(vpnOf(0x000001FF), 0u);
    EXPECT_EQ(vpnOf(0x00000200), 1u);
    EXPECT_EQ(vpnOf(0x80000200), 1u);  // region bits masked off
}

TEST(Pte, MakeAndExtract)
{
    uint32_t e = pte::make(0x12345);
    EXPECT_TRUE(pte::valid(e));
    EXPECT_EQ(pte::pfn(e), 0x12345u);
    EXPECT_FALSE(pte::valid(0x12345));
}

// ---------------------------------------------------------------------------
// Walker
// ---------------------------------------------------------------------------

class WalkerTest : public ::testing::Test
{
  protected:
    WalkerTest() : memory(1024 * 1024)
    {
        // System page table at 0x10000 identity-maps the first 256
        // pages of S0 (so the process page table below is reachable
        // through system space).
        map.sbr = 0x10000;
        map.slr = 256;
        for (uint32_t vpn = 0; vpn < 256; ++vpn)
            memory.write(map.sbr + 4 * vpn, 4, pte::make(vpn));

        // Process P0 table lives at PA 0x4000 = system VA 0x80004000,
        // mapping 4 pages of P0 to frames 0x40-0x43.
        map.p0br = 0x80004000;
        map.p0lr = 4;
        for (uint32_t vpn = 0; vpn < 4; ++vpn)
            memory.write(0x4000 + 4 * vpn, 4, pte::make(0x40 + vpn));
    }

    mem::PhysicalMemory memory;
    MapRegisters map;
};

TEST_F(WalkerTest, SystemSpaceDirect)
{
    auto pa = walk(memory, map, 0x80000000 + 3 * PageBytes + 17);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 3u * PageBytes + 17);
}

TEST_F(WalkerTest, ProcessSpaceNested)
{
    auto pa = walk(memory, map, 2 * PageBytes + 5);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, (0x42u << PageShift) + 5);
}

TEST_F(WalkerTest, LengthViolationRejected)
{
    EXPECT_FALSE(walk(memory, map, 10 * PageBytes).has_value());
    EXPECT_FALSE(
        walk(memory, map, 0x80000000 + 300 * PageBytes).has_value());
}

TEST_F(WalkerTest, InvalidPteRejected)
{
    memory.write(0x4000 + 4, 4, 0);  // clear valid bit of vpn 1
    EXPECT_FALSE(walk(memory, map, 1 * PageBytes).has_value());
}

TEST_F(WalkerTest, PteAddressSplit)
{
    bool phys = false;
    auto a = pteAddress(map, 0x80000200, phys);
    ASSERT_TRUE(a);
    EXPECT_TRUE(phys);
    EXPECT_EQ(*a, map.sbr + 4u);
    a = pteAddress(map, 0x00000200, phys);
    ASSERT_TRUE(a);
    EXPECT_FALSE(phys);
    EXPECT_EQ(*a, map.p0br + 4u);
}

TEST(PageTableBuilder, AllocatesAndMaps)
{
    mem::PhysicalMemory memory(256 * 1024);
    PageTableBuilder b(memory, 0x8000);
    arch::PAddr t1 = b.allocTable(16);
    arch::PAddr t2 = b.allocTable(16);
    EXPECT_NE(t1, t2);
    b.mapRange(t1, 0, 0x100, 4);
    EXPECT_EQ(pte::pfn(static_cast<uint32_t>(memory.read(t1 + 8, 4))),
              0x102u);
    EXPECT_TRUE(pte::valid(static_cast<uint32_t>(memory.read(t1, 4))));
}

// ---------------------------------------------------------------------------
// Translation buffer
// ---------------------------------------------------------------------------

TEST(Tb, FillThenHit)
{
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    arch::PAddr pa = 0;
    EXPECT_FALSE(tb.lookup(0x1234, false, pa));
    tb.fill(0x1234, 0x77);
    ASSERT_TRUE(tb.lookup(0x1234, false, pa));
    EXPECT_EQ(pa, (0x77u << PageShift) | 0x034u);
    EXPECT_EQ(n.total(Ev::TbDMisses), 1u);
    EXPECT_EQ(n.total(Ev::TbDHits), 1u);
    EXPECT_EQ(n.total(Ev::TbFills), 1u);
}

TEST(Tb, SystemAndProcessHalvesIndependent)
{
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    tb.fill(0x00000200, 1);           // process page 1
    tb.fill(0x80000200, 2);           // system page 1 (same set index)
    EXPECT_TRUE(tb.probe(0x00000200));
    EXPECT_TRUE(tb.probe(0x80000200));
    tb.flushProcess();
    EXPECT_FALSE(tb.probe(0x00000200));
    EXPECT_TRUE(tb.probe(0x80000200));
    EXPECT_EQ(n.total(Ev::TbFlushes), 1u);
}

TEST(Tb, P0AndP1DoNotAlias)
{
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    // Same VPN-within-region but different regions.
    tb.fill(0x00000200, 0x10);
    EXPECT_FALSE(tb.probe(0x40000200));
    tb.fill(0x40000200, 0x20);
    arch::PAddr pa = 0;
    ASSERT_TRUE(tb.lookup(0x40000200, false, pa));
    EXPECT_EQ(pa >> PageShift, 0x20u);
}

TEST(Tb, DirectMappedConflict)
{
    TbConfig cfg;
    cfg.entriesPerHalf = 64;
    obs::CounterRegistry n;
    TranslationBuffer tb(n, cfg);
    // Pages 64 apart in the same space conflict.
    tb.fill(0, 1);
    EXPECT_TRUE(tb.probe(0));
    tb.fill(64 * PageBytes, 2);
    EXPECT_FALSE(tb.probe(0));
    EXPECT_TRUE(tb.probe(64 * PageBytes));
}

TEST(Tb, InvalidateSingle)
{
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    tb.fill(0x3000, 5);
    tb.fill(0x3200, 6);
    tb.invalidateSingle(0x3000);
    EXPECT_FALSE(tb.probe(0x3000));
    EXPECT_TRUE(tb.probe(0x3200));
}

TEST(Tb, IStreamCountedSeparately)
{
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    arch::PAddr pa;
    tb.lookup(0x5000, true, pa);
    tb.lookup(0x5000, false, pa);
    EXPECT_EQ(n.total(Ev::TbIMisses), 1u);
    EXPECT_EQ(n.total(Ev::TbDMisses), 1u);
}

TEST(Tb, DisabledAlwaysMisses)
{
    TbConfig cfg;
    cfg.enabled = false;
    obs::CounterRegistry n;
    TranslationBuffer tb(n, cfg);
    tb.fill(0x1000, 3);
    arch::PAddr pa;
    EXPECT_FALSE(tb.lookup(0x1000, false, pa));
}

class TbRandomized : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TbRandomized, ProbeAgreesWithLookup)
{
    // Property: after any fill/flush sequence, probe() and lookup()
    // agree, and a hit always returns the most recent fill's frame.
    upc780::Rng rng(GetParam());
    obs::CounterRegistry n;
    TranslationBuffer tb(n);
    std::map<uint32_t, std::pair<uint32_t, uint32_t>> sets;

    for (int i = 0; i < 2000; ++i) {
        uint32_t va = static_cast<uint32_t>(rng.below(1u << 30));
        if (rng.chance(0.01)) {
            tb.flushProcess();
            sets.clear();
            continue;
        }
        uint32_t page = va >> PageShift;
        uint32_t set = page & 63;
        if (rng.chance(0.5)) {
            uint32_t pfn = static_cast<uint32_t>(rng.below(1 << 20));
            tb.fill(va, pfn);
            sets[set] = {page, pfn};
        } else {
            arch::PAddr pa = 0;
            bool hit = tb.lookup(va, false, pa);
            auto it = sets.find(set);
            bool want = it != sets.end() && it->second.first == page;
            EXPECT_EQ(hit, want);
            if (hit) {
                EXPECT_EQ(pa, (it->second.second << PageShift) |
                                  (va & (PageBytes - 1)));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TbRandomized,
                         ::testing::Values(1, 2, 3, 4, 5));
