/**
 * @file
 * Cross-validation: the UPC histogram analyzer's event frequencies
 * (derived, as in the paper, purely from micro-address counts) are
 * checked against ground truth reconstructed by the instruction
 * tracer from the same run. This validates the entire measurement
 * chain: if the microcode sharing structure, the annotations or the
 * dispatch were wrong, these numbers would diverge.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "arch/decoder.hh"
#include "cpu/trace.hh"
#include "cpu/vax780.hh"
#include "os/kernel.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "workload/codegen.hh"

using namespace upc780;

namespace
{

struct GroundTruth
{
    uint64_t instructions = 0;
    std::array<uint64_t, size_t(arch::Group::NumGroups)> groups{};
    uint64_t firstSpecs = 0;
    uint64_t otherSpecs = 0;
    uint64_t branchDisps = 0;
};

/** Decode every traced instruction and tally the paper's events. */
GroundTruth
tally(const std::vector<cpu::TraceRecord> &records)
{
    GroundTruth g;
    for (const auto &r : records) {
        const auto &info = arch::opcodeInfo(r.opcode);
        if (!info.valid())
            continue;
        ++g.instructions;
        ++g.groups[size_t(info.group)];
        bool first = true;
        for (const auto &spec : info.specs()) {
            if (isBranchDisp(spec.access)) {
                ++g.branchDisps;
            } else if (first) {
                ++g.firstSpecs;
                first = false;
            } else {
                ++g.otherSpecs;
            }
        }
    }
    return g;
}

} // namespace

TEST(CrossCheck, AnalyzerAgreesWithTracedStream)
{
    // Full system, monitor ungated (idle included) so the two probes
    // observe exactly the same instruction stream.
    cpu::Vax780 machine;
    os::VmsLite vms(machine);
    auto profile = wkl::timesharing1Profile();
    profile.users = 6;
    for (auto &img : wkl::buildWorkload(profile))
        vms.addProcess(img);

    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    cpu::InstrTracer tracer(machine, 1 << 18, /*disassemble=*/false);
    machine.attachProbe(&tracer);

    vms.boot();
    monitor.start();
    machine.run(400000);
    monitor.stop();

    upc::HistogramAnalyzer an(monitor.histogram(),
                              ucode::microcodeImage());
    GroundTruth g = tally(tracer.records());

    // Instruction counts match exactly.
    ASSERT_EQ(an.instructions(), g.instructions);
    ASSERT_EQ(an.instructions(), tracer.retired());

    // Table 1: group counts match exactly, except that the run may
    // stop between the final instruction's decode and its execute
    // entry (one event in flight).
    auto counts = an.groupCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
        EXPECT_LE(counts[i], g.groups[i]) << "group " << i;
        EXPECT_GE(counts[i] + 1, g.groups[i]) << "group " << i;
    }

    // Table 3: specifier and branch-displacement counts match to
    // within the same single in-flight instruction.
    double instr = static_cast<double>(g.instructions);
    double slack = 6.0 / instr;
    EXPECT_NEAR(an.firstSpecsPerInstr(), g.firstSpecs / instr, slack);
    EXPECT_NEAR(an.otherSpecsPerInstr(), g.otherSpecs / instr, slack);
    EXPECT_NEAR(an.branchDispsPerInstr(), g.branchDisps / instr,
                slack);
}

TEST(CrossCheck, AbortCyclesEqualTbMissEntries)
{
    // "One abort cycle per microcode trap": the Abort bucket count
    // must equal the total entries into the two miss routines.
    cpu::Vax780 machine;
    os::VmsLite vms(machine);
    auto profile = wkl::timesharing2Profile();
    profile.users = 6;
    for (auto &img : wkl::buildWorkload(profile))
        vms.addProcess(img);

    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    vms.boot();
    monitor.start();
    machine.run(300000);
    monitor.stop();

    const auto &marks = ucode::microcodeImage().marks;
    const auto &h = monitor.histogram();
    // One in-flight trap (abort reported, service entry not yet
    // executed) can straddle the end of the run.
    uint64_t aborts = h.count(marks.abort);
    uint64_t entries = h.count(marks.tbMissD) + h.count(marks.tbMissI);
    EXPECT_GE(aborts, entries);
    EXPECT_LE(aborts, entries + 1);
    EXPECT_GT(aborts, 0u);
}

TEST(CrossCheck, TbMissBucketsMatchHardwareCounters)
{
    // The histogram's miss-routine entries equal the TB hardware's
    // miss counters (same events, seen from both sides).
    cpu::Vax780 machine;
    const obs::CounterRegistry &n = machine.counters();
    os::VmsLite vms(machine);
    auto profile = wkl::educationalProfile();
    profile.users = 6;
    for (auto &img : wkl::buildWorkload(profile))
        vms.addProcess(img);

    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    vms.boot();

    // Snapshot hardware counters exactly at monitor start/stop.
    monitor.start();
    uint64_t d0 = n.total(obs::Ev::TbDMisses);
    uint64_t i0 = n.total(obs::Ev::TbIMisses);
    machine.run(300000);
    monitor.stop();
    uint64_t d1 = n.total(obs::Ev::TbDMisses);
    uint64_t i1 = n.total(obs::Ev::TbIMisses);

    const auto &marks = ucode::microcodeImage().marks;
    const auto &h = monitor.histogram();
    // D-side: every miss microtraps and is serviced, one for one.
    EXPECT_EQ(h.count(marks.tbMissD), d1 - d0);
    // I-side: the IB prefetches speculatively; a miss raised beyond a
    // taken branch is discarded by the redirect and never serviced,
    // so the histogram (serviced misses, which is what the paper
    // measures) is a lower bound on the hardware count.
    EXPECT_LE(h.count(marks.tbMissI), i1 - i0);
    EXPECT_GE(h.count(marks.tbMissI), (i1 - i0) * 6 / 10);
}

TEST(CrossCheck, ReadsSeenByCacheMatchHistogram)
{
    // D-stream reads visible to the analyzer == cache D-read probes
    // minus the extra physical references (unaligned/quad splits and
    // PTE fetches are ReadP, also cache probes). Verify the
    // inequality direction and closeness.
    cpu::Vax780 machine;
    const obs::CounterRegistry &n = machine.counters();
    os::VmsLite vms(machine);
    auto profile = wkl::commercialProfile();
    profile.users = 6;
    for (auto &img : wkl::buildWorkload(profile))
        vms.addProcess(img);

    upc::UpcMonitor monitor(machine.counters());
    machine.attachProbe(&monitor);
    vms.boot();
    monitor.start();
    uint64_t c0 = n.total(obs::Ev::CacheDReads);
    machine.run(300000);
    monitor.stop();
    uint64_t c1 = n.total(obs::Ev::CacheDReads);

    upc::HistogramAnalyzer an(monitor.histogram(),
                              ucode::microcodeImage());
    double per_instr_hw = static_cast<double>(c1 - c0) /
                          static_cast<double>(an.instructions());
    double per_instr_upc = an.refsTotal().reads;
    EXPECT_GE(per_instr_hw, per_instr_upc * 0.95);
    EXPECT_LT(per_instr_hw, per_instr_upc * 1.6);
}

TEST(CrossCheck, UnpickedProcessesAreUntouched)
{
    // Images are generated and loaded at a process's first dispatch.
    // That is only invisible if nothing references a process before
    // then: no byte of its P0 frames, no cache tag and no TB entry.
    for (const wkl::WorkloadProfile &profile : wkl::paperWorkloads()) {
        SCOPED_TRACE(profile.name);
        cpu::Vax780 machine;
        os::VmsLite vms(machine);
        const os::ProcessShape shape = wkl::programShape(profile);
        for (uint32_t u = 0; u < profile.users; ++u) {
            vms.addProcess(shape, [&profile, u] {
                return wkl::generateProgram(profile, u);
            });
        }
        std::set<int> picked;
        vms.setSwitchHook([&](int pid, bool is_idle) {
            if (!is_idle)
                picked.insert(pid);
        });
        vms.boot();
        while (machine.ebox().instructions() < 6000)
            machine.run(1000);

        const std::vector<int> done = vms.materializedPids();
        EXPECT_EQ(std::set<int>(done.begin(), done.end()), picked);
        ASSERT_LT(picked.size(), profile.users)
            << "every process ran; the check below would be vacuous";

        const mem::PhysicalMemory &memory = machine.memsys().memory();
        const mem::Cache &cache = machine.memsys().cache();
        const std::vector<uint32_t> tbFrames = machine.tb().validFrames();
        const uint32_t block = cache.config().blockBytes;
        for (int pid = 1; pid <= static_cast<int>(profile.users); ++pid) {
            if (picked.count(pid))
                continue;
            const os::VmsLite::Frames f = vms.p0Frames(pid);
            const uint32_t bytes = f.pages * mmu::PageBytes;
            for (uint32_t off = 0; off < bytes; off += 8)
                ASSERT_EQ(memory.read(f.base + off, 8), 0u)
                    << "pid " << pid << " frame byte " << off;
            for (uint32_t off = 0; off < bytes; off += block)
                ASSERT_FALSE(cache.probe(f.base + off))
                    << "pid " << pid << " cached at byte " << off;
            const uint32_t first = f.base >> mmu::PageShift;
            for (uint32_t pfn : tbFrames)
                ASSERT_FALSE(pfn >= first && pfn < first + f.pages)
                    << "pid " << pid << " has a TB entry for frame " << pfn;
        }
    }
}
