/**
 * @file
 * Memory-subsystem tests: physical memory and its snapshot encoding,
 * cache geometry/behaviour
 * (hit/miss, write-through no-allocate, random replacement bounds),
 * SBI occupancy, write-buffer stall timing, and the composed
 * subsystem's paper-specified timing rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/serial.hh"
#include "mem/memsys.hh"
#include "obs/counters.hh"

using namespace upc780;
using namespace upc780::mem;
using obs::Ev;

// ---------------------------------------------------------------------------
// PhysicalMemory
// ---------------------------------------------------------------------------

TEST(Memory, ReadWriteRoundTrip)
{
    PhysicalMemory m(64 * 1024);
    m.write(100, 4, 0xDEADBEEF);
    EXPECT_EQ(m.read(100, 4), 0xDEADBEEFu);
    EXPECT_EQ(m.readByte(100), 0xEFu);
    EXPECT_EQ(m.readByte(103), 0xDEu);
    m.write(200, 8, 0x0123456789ABCDEFull);
    EXPECT_EQ(m.read(200, 8), 0x0123456789ABCDEFull);
    EXPECT_EQ(m.read(204, 4), 0x01234567u);
}

TEST(Memory, UnalignedAccess)
{
    PhysicalMemory m(4096);
    m.write(1, 4, 0xAABBCCDD);
    EXPECT_EQ(m.read(1, 4), 0xAABBCCDDu);
    EXPECT_EQ(m.readByte(1), 0xDDu);
}

TEST(Memory, LoadAndClear)
{
    PhysicalMemory m(4096);
    uint8_t src[] = {1, 2, 3, 4};
    m.load(10, src, 4);
    EXPECT_EQ(m.read(10, 4), 0x04030201u);
    m.clear(10, 4);
    EXPECT_EQ(m.read(10, 4), 0u);
}

TEST(MemoryDeathTest, OutOfBoundsPanics)
{
    PhysicalMemory m(4096);
    EXPECT_DEATH(m.readByte(4096), "beyond memory");
}

namespace
{

constexpr uint32_t Page = 4096;

/**
 * The snapshot encoding spelled out byte by byte: size, count of pages
 * holding a nonzero byte, then each such page ascending as its u32
 * index and its bytes (the last page only as long as memory reaches).
 */
std::vector<uint8_t>
referenceEncoding(const PhysicalMemory &m)
{
    const uint32_t pages = (m.size() + Page - 1) / Page;
    std::vector<uint32_t> nonzero;
    for (uint32_t p = 0; p < pages; ++p)
        for (uint32_t a = p * Page; a < std::min(m.size(), (p + 1) * Page);
             ++a)
            if (m.readByte(a) != 0) {
                nonzero.push_back(p);
                break;
            }
    ByteWriter w;
    w.u32(m.size());
    w.u32(static_cast<uint32_t>(nonzero.size()));
    for (uint32_t p : nonzero) {
        w.u32(p);
        for (uint32_t a = p * Page; a < std::min(m.size(), (p + 1) * Page);
             ++a)
            w.u8(m.readByte(a));
    }
    return w.take();
}

/**
 * serialize() must produce the reference bytes, and deserialize() into
 * a dirty image must restore every byte. Returns the nonzero-page count.
 */
uint32_t
checkEncoding(const PhysicalMemory &m)
{
    ByteWriter w;
    m.serialize(w);
    EXPECT_EQ(w.data(), referenceEncoding(m));

    PhysicalMemory back(m.size());
    for (uint32_t a = 0; a < m.size(); a += Page / 2)
        back.writeByte(a, 0xA5);
    ByteReader r(w.data());
    back.deserialize(r);
    r.expectEnd("memory");
    for (uint32_t a = 0; a < m.size(); ++a)
        if (back.readByte(a) != m.readByte(a)) {
            ADD_FAILURE() << "restored byte differs at 0x" << std::hex << a;
            break;
        }
    ByteReader count(w.data());
    count.u32();
    return count.u32();
}

} // namespace

TEST(MemorySnapshot, AllZeroImageIsSizeAndCountOnly)
{
    PhysicalMemory m(4 * Page);
    EXPECT_EQ(checkEncoding(m), 0u);
    ByteWriter w;
    m.serialize(w);
    EXPECT_EQ(w.size(), 8u);
}

TEST(MemorySnapshot, LoneFirstAndLastBytesKeepTheirPages)
{
    PhysicalMemory m(4 * Page);
    m.writeByte(1 * Page, 0x01);     // only the first byte of page 1
    m.writeByte(3 * Page - 1, 0x80);     // only the last byte of page 2
    EXPECT_EQ(checkEncoding(m), 2u);
}

TEST(MemorySnapshot, RaggedSizeTruncatesTheLastPage)
{
    // Neither a multiple of the page nor of the 8-byte scan word: the
    // final page is 13 bytes, 8 scanned as a word and 5 as a tail.
    PhysicalMemory m(3 * Page + 13);
    m.writeByte(3 * Page + 12, 0x5A);
    EXPECT_EQ(checkEncoding(m), 1u);
    m.writeByte(3 * Page + 12, 0);
    m.writeByte(3 * Page + 3, 0x11);
    m.writeByte(Page + 7, 0x22);
    EXPECT_EQ(checkEncoding(m), 2u);
}

TEST(MemorySnapshot, DefaultImage)
{
    PhysicalMemory m;
    ASSERT_EQ(m.size(), PhysicalMemory::DefaultSize);
    const uint8_t code[] = {0xD0, 0x50, 0x51, 0x04};
    m.load(0x200, code, sizeof(code));
    m.write(0x10000 + 13, 8, 0x0123456789ABCDEFull);
    m.writeByte(PhysicalMemory::DefaultSize - 1, 0xFF);
    EXPECT_EQ(checkEncoding(m), 3u);
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

TEST(Cache, MissThenHit)
{
    obs::CounterRegistry n;
    Cache c(n);
    EXPECT_FALSE(c.readAccess(0x1000, false));
    EXPECT_TRUE(c.readAccess(0x1000, false));
    EXPECT_TRUE(c.readAccess(0x1004, false));   // same 8-byte block
    EXPECT_FALSE(c.readAccess(0x1008, false));  // next block
    EXPECT_EQ(n.total(Ev::CacheDReads), 4u);
    EXPECT_EQ(n.total(Ev::CacheDReadMisses), 2u);
}

TEST(Cache, IStreamCountedSeparately)
{
    obs::CounterRegistry n;
    Cache c(n);
    c.readAccess(0x2000, true);
    c.readAccess(0x2000, false);
    EXPECT_EQ(n.total(Ev::CacheIReads), 1u);
    EXPECT_EQ(n.total(Ev::CacheIReadMisses), 1u);
    EXPECT_EQ(n.total(Ev::CacheDReads), 1u);
    EXPECT_EQ(n.total(Ev::CacheDReadMisses), 0u);  // filled by I ref
}

TEST(Cache, WriteThroughNoAllocate)
{
    obs::CounterRegistry n;
    Cache c(n);
    // Write miss must not allocate.
    EXPECT_FALSE(c.writeAccess(0x3000));
    EXPECT_FALSE(c.probe(0x3000));
    // After a read allocates, a write hits and updates.
    c.readAccess(0x3000, false);
    EXPECT_TRUE(c.writeAccess(0x3000));
    EXPECT_EQ(n.total(Ev::CacheWrites), 2u);
    EXPECT_EQ(n.total(Ev::CacheWriteHits), 1u);
}

TEST(Cache, TwoWayAssociativityHoldsTwoConflicting)
{
    obs::CounterRegistry n;
    Cache c(n);  // 8 KB, 2-way, 8-byte blocks -> 512 sets, 4 KB stride
    c.readAccess(0x0000, false);
    c.readAccess(0x1000, false);  // same set, second way
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x1000));
    // A third conflicting block evicts one of them (random victim).
    c.readAccess(0x2000, false);
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_FALSE(c.probe(0x0000) && c.probe(0x1000));
    EXPECT_TRUE(c.probe(0x0000) || c.probe(0x1000));
}

TEST(Cache, InvalidateAll)
{
    obs::CounterRegistry n;
    Cache c(n);
    c.readAccess(0x4000, false);
    ASSERT_TRUE(c.probe(0x4000));
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0x4000));
}

TEST(Cache, DisabledAlwaysMisses)
{
    CacheConfig cfg;
    cfg.enabled = false;
    obs::CounterRegistry n;
    Cache c(n, cfg);
    EXPECT_FALSE(c.readAccess(0x1000, false));
    EXPECT_FALSE(c.readAccess(0x1000, false));
    EXPECT_EQ(n.total(Ev::CacheDReadMisses), 2u);
}

TEST(Cache, ParameterizedGeometry)
{
    for (uint32_t size : {2048u, 8192u, 32768u}) {
        for (uint32_t ways : {1u, 2u, 4u}) {
            CacheConfig cfg;
            cfg.sizeBytes = size;
            cfg.ways = ways;
            obs::CounterRegistry n;
            Cache c(n, cfg);
            EXPECT_EQ(c.numSets(), size / (8 * ways));
            // Fill 'ways' conflicting blocks; all must be resident.
            uint32_t stride = size / ways;
            for (uint32_t w = 0; w < ways; ++w)
                c.readAccess(w * stride, false);
            for (uint32_t w = 0; w < ways; ++w)
                EXPECT_TRUE(c.probe(w * stride))
                    << size << "/" << ways << "/" << w;
        }
    }
}

// ---------------------------------------------------------------------------
// SBI / write buffer
// ---------------------------------------------------------------------------

TEST(Sbi, ReadLatencyAndContention)
{
    Sbi sbi;
    EXPECT_EQ(sbi.startRead(100), 106u);
    // A second transaction issued during the first queues behind it.
    EXPECT_EQ(sbi.startRead(104), 112u);
}

TEST(WriteBuffer, SingleEntryStallRule)
{
    obs::CounterRegistry n;
    Sbi sbi;
    WriteBuffer wb(n, sbi, 1);
    // First write: accepted immediately.
    EXPECT_EQ(wb.issue(10), 0u);
    // Second write 3 cycles later: must wait for the 6-cycle drain.
    EXPECT_EQ(wb.issue(13), 3u);
    // Third write long after: no stall.
    EXPECT_EQ(wb.issue(100), 0u);
    EXPECT_EQ(n.total(Ev::WbWrites), 3u);
    EXPECT_EQ(n.total(Ev::WbStallCycles), 3u);
}

TEST(WriteBuffer, DeeperBufferAbsorbsBursts)
{
    obs::CounterRegistry n;
    Sbi sbi;
    WriteBuffer wb(n, sbi, 4);
    uint32_t total = 0;
    for (int i = 0; i < 4; ++i)
        total += wb.issue(static_cast<uint64_t>(i));
    EXPECT_EQ(total, 0u);  // all four accepted without stall
}

// ---------------------------------------------------------------------------
// Composed subsystem timing (paper section 2.1 rules)
// ---------------------------------------------------------------------------

TEST(MemSys, ReadHitNoStall)
{
    obs::CounterRegistry n;
    MemorySubsystem ms(n);
    ms.memory().write(0x1000, 4, 42);
    auto r1 = ms.read(0x1000, 4, 0);
    EXPECT_TRUE(r1.miss);
    EXPECT_EQ(r1.stallCycles, 6u);
    auto r2 = ms.read(0x1000, 4, 100);
    EXPECT_FALSE(r2.miss);
    EXPECT_EQ(r2.stallCycles, 0u);
    EXPECT_EQ(r2.data, 42u);
}

TEST(MemSys, UnalignedCostsSecondReference)
{
    obs::CounterRegistry n;
    MemorySubsystem ms(n);
    // Warm both longwords.
    ms.read(0x1000, 4, 0);
    ms.read(0x1004, 4, 10);
    auto r = ms.read(0x1002, 4, 100);
    EXPECT_TRUE(r.unaligned);
    EXPECT_EQ(n.total(Ev::MemUnalignedRefs), 1u);
    EXPECT_EQ(n.total(Ev::CacheDReads), 4u);  // 2 + 2 refs
}

TEST(MemSys, WriteStallWithinSixCycles)
{
    obs::CounterRegistry n;
    MemorySubsystem ms(n);
    auto w1 = ms.write(0x2000, 4, 1, 0);
    EXPECT_EQ(w1.stallCycles, 0u);
    auto w2 = ms.write(0x2004, 4, 2, 2);
    EXPECT_EQ(w2.stallCycles, 4u);  // drain at 6, issued at 2
    EXPECT_EQ(ms.memory().read(0x2000, 4), 1u);
    EXPECT_EQ(ms.memory().read(0x2004, 4), 2u);
}

TEST(MemSys, QuadReadMakesTwoReferences)
{
    obs::CounterRegistry n;
    MemorySubsystem ms(n);
    ms.memory().write(0x3000, 8, 0x1122334455667788ull);
    ms.read(0x3000, 8, 0);
    EXPECT_EQ(n.total(Ev::CacheDReads), 2u);
    auto r = ms.read(0x3000, 8, 100);
    EXPECT_EQ(r.data, 0x1122334455667788ull);
    EXPECT_FALSE(r.unaligned);  // aligned quad is not "unaligned"
}

TEST(MemSys, IfetchDoesNotBlock)
{
    obs::CounterRegistry n;
    MemorySubsystem ms(n);
    ms.memory().write(0x4000, 4, 0xABCD1234);
    uint64_t ready = 0;
    uint32_t lw = ms.ifetch(0x4002, 50, ready);
    EXPECT_EQ(lw, 0xABCD1234u);  // aligned longword containing the VA
    EXPECT_EQ(ready, 56u);       // miss: available after SBI latency
    ms.ifetch(0x4002, 100, ready);
    EXPECT_EQ(ready, 100u);      // hit: available immediately
    EXPECT_EQ(n.total(Ev::CacheIReads), 2u);
}
