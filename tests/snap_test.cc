/**
 * @file
 * Snapshot layer tests: container round-trip and the integrity ladder
 * (corrupt files are typed failures, never crashes or silent
 * mis-restores), bit-exact midpoint save/restore for all five paper
 * workloads (reports, counters, and trace streams byte-identical),
 * checkpointing as a pure observer, watchdog-trip retry from the
 * newest checkpoint, retry-budget exhaustion as a clean partial
 * result, resumable composites (serial and parallel), checkpoint
 * context in watchdog diagnostics, and replay-from-snapshot fault
 * sweeps. The payload readers are held to their own contract as
 * well: checkpoint section bytes pinned across serializer changes,
 * every truncated section a typed failure, and restored indices
 * bounded by the structures they index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/serial.hh"
#include "cpu/trace.hh"
#include "cpu/vax780.hh"
#include "fault/fault.hh"
#include "mem/sbi.hh"
#include "mem/writebuffer.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "os/kernel.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/replay.hh"
#include "sim/run.hh"
#include "sim/watchdog.hh"
#include "snap/snapshot.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/monitor.hh"
#include "upc/report.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

sim::ExperimentConfig
smallConfig()
{
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 8000;
    cfg.warmupInstructions = 1600;
    return cfg;
}

/** A fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("upc780_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Canonical bytes of a result with the non-deterministic and
 * bookkeeping fields masked: host wall-clock can never match across
 * runs, and attempts/resumedFromCycle intentionally differ between an
 * uninterrupted run and a recovered one. Everything else — histogram,
 * counters, trace stream, fault log — must match to the byte.
 */
std::vector<uint8_t>
fingerprint(sim::WorkloadResult r)
{
    r.host = obs::HostProfile{};
    r.attempts = 1;
    r.resumedFromCycle = 0;
    ByteWriter w;
    r.serialize(w);
    return w.take();
}

std::string
reportText(const sim::WorkloadResult &r)
{
    upc::HistogramAnalyzer an(r.histogram, ucode::microcodeImage());
    return upc::writeReport(an, {});
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

size_t
countCheckpoints(const fs::path &dir)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".ckpt")
            ++n;
    return n;
}

/**
 * A run whose checkpoints carry every optional section: an event
 * tracer recording instruction events (so the `instr` probe exists
 * too) and a fault injector. One checkpoint at cycle 30000.
 */
sim::ExperimentConfig
allSectionsConfig(const fs::path &dir)
{
    sim::ExperimentConfig cfg = smallConfig();
    cfg.obs.counters = true;
    cfg.obs.traceDepth = 256;
    cfg.obs.traceMask = static_cast<uint32_t>(obs::Cat::Instr);
    cfg.fault.memEccSingleRate = 2e-3;
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.atCycles = {30000};
    return cfg;
}

std::vector<uint8_t>
sectionBytes(const snap::SnapshotReader &s, const std::string &name)
{
    ByteReader r = s.open(name);
    std::vector<uint8_t> v(r.remaining());
    r.bytes(v.data(), v.size());
    return v;
}

} // namespace

TEST(SnapContainer, RoundTrip)
{
    snap::SnapshotMeta meta;
    meta.kind = snap::SnapshotKind::Checkpoint;
    meta.workload = "ts1";
    meta.configHash = 0x1234567890abcdefull;
    meta.cycle = 42;
    meta.instructions = 7;
    meta.attempt = 3;

    ByteWriter alpha;
    alpha.u32(0xdeadbeef);
    alpha.str("payload");
    ByteWriter beta;
    beta.u64(99);

    snap::SnapshotWriter w(meta);
    w.add("alpha", std::move(alpha));
    w.add("beta", std::move(beta));

    snap::SnapshotReader r(w.finish());
    EXPECT_EQ(r.meta().kind, snap::SnapshotKind::Checkpoint);
    EXPECT_EQ(r.meta().workload, "ts1");
    EXPECT_EQ(r.meta().configHash, 0x1234567890abcdefull);
    EXPECT_EQ(r.meta().cycle, 42u);
    EXPECT_EQ(r.meta().instructions, 7u);
    EXPECT_EQ(r.meta().attempt, 3u);

    ASSERT_EQ(r.names(), (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_TRUE(r.has("alpha"));
    EXPECT_FALSE(r.has("gamma"));

    ByteReader a = r.open("alpha");
    EXPECT_EQ(a.u32(), 0xdeadbeefu);
    EXPECT_EQ(a.str(), "payload");
    a.expectEnd("alpha");
    ByteReader b = r.open("beta");
    EXPECT_EQ(b.u64(), 99u);
    b.expectEnd("beta");

    // writeFile streams the very bytes finish() assembles.
    const std::string path = (scratchDir("roundtrip") / "rt.ckpt").string();
    w.writeFile(path);
    EXPECT_EQ(readFile(path), w.finish());
}

TEST(SnapContainer, IntegrityLadderIsTyped)
{
    snap::SnapshotMeta meta;
    meta.workload = "ts1";
    snap::SnapshotWriter w(meta);
    ByteWriter payload;
    payload.str("some section bytes");
    w.add("machine", std::move(payload));
    const std::vector<uint8_t> good = w.finish();
    ASSERT_NO_THROW(snap::SnapshotReader{good});

    // Truncations at every interesting boundary are typed failures.
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                     size_t{15}, size_t{16}, good.size() / 2,
                     good.size() - 1}) {
        std::vector<uint8_t> cut(good.begin(), good.begin() + n);
        EXPECT_THROW(snap::SnapshotReader{std::move(cut)},
                     SnapshotError)
            << "truncated to " << n << " bytes";
    }

    // Bad magic names the problem.
    std::vector<uint8_t> magic = good;
    magic[0] ^= 0xff;
    try {
        snap::SnapshotReader r(std::move(magic));
        FAIL() << "bad magic accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("not a snapshot"),
                  std::string::npos);
    }

    // Unsupported version is distinguished from corruption.
    std::vector<uint8_t> vers = good;
    vers[8] = 0xfe;
    try {
        snap::SnapshotReader r(std::move(vers));
        FAIL() << "bad version accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(SnapContainer, EveryBitFlipIsRejected)
{
    snap::SnapshotMeta meta;
    meta.workload = "fuzz";
    snap::SnapshotWriter w(meta);
    ByteWriter payload;
    for (uint32_t i = 0; i < 64; ++i)
        payload.u32(i * 2654435761u);
    w.add("machine", std::move(payload));
    const std::vector<uint8_t> good = w.finish();

    // Flip every bit of the container in turn: each lands on some
    // rung of the ladder (magic, version, CRC), never a crash and
    // never a silent acceptance.
    for (size_t byte = 0; byte < good.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = good;
            bad[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_THROW(snap::SnapshotReader{std::move(bad)},
                         SnapshotError)
                << "flip at byte " << byte << " bit " << bit;
        }
    }
}

TEST(SnapMachine, MidpointRestoreBitExactAllWorkloads)
{
    const fs::path dir = scratchDir("snap_midpoint");
    for (const auto &profile : wkl::paperWorkloads()) {
        sim::ExperimentConfig cfg = smallConfig();
        cfg.obs.traceDepth = 2048; // trace stream joins the contract
        cfg.checkpoint.dir = (dir / profile.name).string();
        cfg.checkpoint.atCycles = {30000};

        sim::WorkloadRun full(cfg, profile);
        const sim::WorkloadResult a = full.run();
        ASSERT_TRUE(a.ok) << profile.name;

        const std::string ckpt = snap::latestCheckpoint(
            cfg.checkpoint.dir, full.taskId());
        ASSERT_FALSE(ckpt.empty()) << profile.name;

        sim::WorkloadRun resumed(cfg, profile);
        resumed.restore(ckpt);
        const sim::WorkloadResult b = resumed.run();
        ASSERT_TRUE(b.ok) << profile.name;
        EXPECT_GE(b.resumedFromCycle, 30000u);

        // The whole measurement — histogram, counters, fault log, and
        // the structured trace — must come out byte-identical, and so
        // must the rendered report.
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << profile.name;
        EXPECT_EQ(reportText(a), reportText(b)) << profile.name;
    }
}

TEST(SnapMachine, RestoreAcrossDispatchModes)
{
    // A checkpoint records architected state only — decoded rows and
    // the micro-trace cache are derived from the (config-owned)
    // microcode image at construction and again on restore, never
    // serialized — so a snapshot taken mid-kernel under one
    // dispatcher must resume byte-identically under the other, in
    // both directions. MachineConfig::dispatch is deliberately
    // excluded from the snapshot config hash for the same reason.
    using Dispatch = ucode::DispatchMode;
    const fs::path dir = scratchDir("snap_dispatch");
    const auto profile = wkl::scientificProfile();
    const std::pair<Dispatch, Dispatch> directions[] = {
        {Dispatch::Switch, Dispatch::Threaded},
        {Dispatch::Threaded, Dispatch::Switch},
    };
    int round = 0;
    for (const auto &[taker, resumer] : directions) {
        sim::ExperimentConfig cfg = smallConfig();
        cfg.obs.traceDepth = 2048;
        cfg.machine.dispatch = taker;
        cfg.checkpoint.dir = (dir / std::to_string(round++)).string();
        cfg.checkpoint.atCycles = {30000};

        sim::WorkloadRun full(cfg, profile);
        const sim::WorkloadResult a = full.run();
        ASSERT_TRUE(a.ok);

        const std::string ckpt = snap::latestCheckpoint(
            cfg.checkpoint.dir, full.taskId());
        ASSERT_FALSE(ckpt.empty());

        sim::ExperimentConfig rcfg = cfg;
        rcfg.machine.dispatch = resumer;
        sim::WorkloadRun resumed(rcfg, profile);
        resumed.restore(ckpt);
        const sim::WorkloadResult b = resumed.run();
        ASSERT_TRUE(b.ok);
        EXPECT_GE(b.resumedFromCycle, 30000u);

        EXPECT_EQ(fingerprint(a), fingerprint(b));
        EXPECT_EQ(reportText(a), reportText(b));
    }
}

TEST(SnapMachine, CheckpointingDoesNotPerturbTheRun)
{
    const fs::path dir = scratchDir("snap_observer");
    const auto profile = wkl::timesharing1Profile();

    sim::ExperimentConfig plain = smallConfig();
    sim::ExperimentConfig ck = smallConfig();
    ck.checkpoint.dir = dir.string();
    ck.checkpoint.everyCycles = 15000;

    const auto a = sim::ExperimentRunner(plain).runWorkload(profile);
    const auto b = sim::ExperimentRunner(ck).runWorkload(profile);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_GE(countCheckpoints(dir), 2u);
}

TEST(SnapMachine, DefaultConfigHashPinned)
{
    // The fingerprint every checkpoint and persisted result carries,
    // pinned for the default config so a refactor of its field list
    // cannot orphan the files a resume would load. Re-pinned when the
    // cycle audit became unconditional: the deleted
    // ExperimentConfig::auditCycleAccounting no longer writes its byte.
    // Re-pinned again when four settings no caller changed were
    // deleted (the cycle cap now always derives from the instruction
    // budget, the watchdog takes its own default interval, startup
    // lint and the attribution audit always run): their four fields
    // no longer write their bytes.
    EXPECT_EQ(sim::configHash(sim::ExperimentConfig{},
                              wkl::paperWorkloads()[0]),
              0xf266d93908fa5495ull);
}

TEST(SnapMachine, RestoreRefusesWrongConfigAndWorkload)
{
    const fs::path dir = scratchDir("snap_refuse");
    const auto ts1 = wkl::timesharing1Profile();

    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.atCycles = {30000};
    sim::WorkloadRun run(cfg, ts1);
    run.run();
    const std::string ckpt =
        snap::latestCheckpoint(cfg.checkpoint.dir, run.taskId());
    ASSERT_FALSE(ckpt.empty());

    // A different measurement budget is a different experiment.
    sim::ExperimentConfig other = cfg;
    other.instructionsPerWorkload += 1000;
    sim::WorkloadRun wrongCfg(other, ts1);
    try {
        wrongCfg.restore(ckpt);
        FAIL() << "config-hash mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("configuration"),
                  std::string::npos);
    }

    // So is a different workload.
    sim::WorkloadRun wrongWkl(cfg, wkl::educationalProfile());
    EXPECT_THROW(wrongWkl.restore(ckpt), SnapshotError);
}

TEST(SnapMachine, CorruptCheckpointFileNeverMisRestores)
{
    const fs::path dir = scratchDir("snap_fuzz");
    const auto profile = wkl::timesharing1Profile();
    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.atCycles = {30000};
    sim::WorkloadRun run(cfg, profile);
    run.run();
    const std::string ckpt =
        snap::latestCheckpoint(cfg.checkpoint.dir, run.taskId());
    ASSERT_FALSE(ckpt.empty());

    const std::vector<uint8_t> good = readFile(ckpt);
    ASSERT_GT(good.size(), 64u);
    const fs::path bad = dir / "mutant.ckpt";

    auto expectRejected = [&](const std::vector<uint8_t> &bytes,
                              const char *what) {
        std::ofstream(bad, std::ios::binary)
            .write(reinterpret_cast<const char *>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
        sim::WorkloadRun victim(cfg, profile);
        EXPECT_THROW(victim.restore(bad.string()), SnapshotError)
            << what;
    };

    // Truncations, including mid-section.
    for (size_t n :
         {size_t{0}, size_t{10}, good.size() / 4, good.size() / 2,
          good.size() - 5, good.size() - 1})
        expectRejected({good.begin(), good.begin() + n}, "truncation");

    // Single-bit flips striding the whole file (magic, meta, section
    // table, payloads, CRC field): every one must be caught.
    const size_t stride = std::max<size_t>(1, good.size() / 37);
    for (size_t pos = 0; pos < good.size(); pos += stride) {
        std::vector<uint8_t> flipped = good;
        flipped[pos] ^= static_cast<uint8_t>(1u << (pos % 8));
        expectRejected(flipped, "bit flip");
    }
}

TEST(SnapMachine, CheckpointSectionBytesPinned)
{
    // The checkpoint bytes are part of the determinism contract: a
    // refactor of any serializer must leave every section payload
    // byte-identical. Values recorded from the hand-written
    // serializers, except "machine" and "counters", re-recorded when
    // the component counters moved into the registry (FormatVersion
    // 2), and "kernel" and "machine", re-recorded when images moved
    // to first dispatch (FormatVersion 3): the kernel section gained
    // each process's materialized bit, and memory holds only the
    // images that have run, and "kernel" again when the kernel stopped
    // counting context switches, syscalls and resched requests beside
    // the registry (FormatVersion 4): its section lost those three
    // words, which the "counters" section already holds. The runner's
    // trailing host-time words and the result's host profile are
    // wall-clock and left out.
    // Keys are "w<index in paperWorkloads()>/<section>".
    static const std::map<std::string, uint64_t> pinned = {
        {"w0/counters", 0x47b097cfc23f7026ull},
        {"w0/injector", 0x1d7ff6199cadc13eull},
        {"w0/instr", 0xe0db8af95365f9f2ull},
        {"w0/kernel", 0xb5eee959f015371eull},
        {"w0/machine", 0x1210429f6cf50a28ull},
        {"w0/monitor", 0xb3d9a743edf93dedull},
        {"w0/result", 0x405ae2e64ac3501eull},
        {"w0/runner", 0x8ec83ef6cdeae6a7ull},
        {"w0/tracer", 0xc37148d94401c31bull},
        {"w0/watchdog", 0x8267374e8f28a240ull},
        {"w1/counters", 0xf6961865ee455363ull},
        {"w1/injector", 0x8d487d67a8ff3b70ull},
        {"w1/instr", 0xedf1de58b390c677ull},
        {"w1/kernel", 0xacf06dc60abb88b7ull},
        {"w1/machine", 0x8bf01a66fdd4b5a4ull},
        {"w1/monitor", 0x4c04c8c63362ea28ull},
        {"w1/result", 0x516bdc31e6dc97cfull},
        {"w1/runner", 0x4d912a27687353dcull},
        {"w1/tracer", 0xec2674a6383d1d11ull},
        {"w1/watchdog", 0x9b35edec1b741418ull},
        {"w2/counters", 0x4cb2285c0e066c89ull},
        {"w2/injector", 0x40d93c59a3e9a969ull},
        {"w2/instr", 0x58e52b73e38e3391ull},
        {"w2/kernel", 0x3080d91ce654d47eull},
        {"w2/machine", 0x72088344ffc24cf0ull},
        {"w2/monitor", 0x598a17d48557e4b4ull},
        {"w2/result", 0xdf354fe4d765618eull},
        {"w2/runner", 0x980b185a65a720adull},
        {"w2/tracer", 0x7e744438a3f3caf0ull},
        {"w2/watchdog", 0xd04051b551c29aeaull},
        {"w3/counters", 0xc4885dec3a0aca1eull},
        {"w3/injector", 0xa80585ce76879494ull},
        {"w3/instr", 0x3038cec018b22b87ull},
        {"w3/kernel", 0x2cce14aae9da90faull},
        {"w3/machine", 0xf462e84125393804ull},
        {"w3/monitor", 0xf73e9b1ee58b752bull},
        {"w3/result", 0x67b478d7475bd16bull},
        {"w3/runner", 0x04872c2214968711ull},
        {"w3/tracer", 0xbc3be0bb2952657dull},
        {"w3/watchdog", 0x0992bea8b54392f0ull},
        {"w4/counters", 0x91865b9c8e74ac28ull},
        {"w4/injector", 0x4b390614712fd79cull},
        {"w4/instr", 0x6f1afda6593b069full},
        {"w4/kernel", 0x87a15a2eac71346full},
        {"w4/machine", 0x5b9cadde04089e95ull},
        {"w4/monitor", 0x33583b7448bb53deull},
        {"w4/result", 0x797d1bdde3798321ull},
        {"w4/runner", 0xd72d692e67d717f8ull},
        {"w4/tracer", 0xd242bf18f6b4a137ull},
        {"w4/watchdog", 0x45a7862e6cad77feull},
    };

    const fs::path dir = scratchDir("snap_pinned");
    std::map<std::string, uint64_t> got;
    const auto profiles = wkl::paperWorkloads();
    for (size_t i = 0; i < profiles.size(); ++i) {
        const auto &profile = profiles[i];
        const std::string tag = "w" + std::to_string(i) + "/";
        const sim::ExperimentConfig cfg =
            allSectionsConfig(dir / tag);
        sim::WorkloadRun run(cfg, profile);
        const sim::WorkloadResult res = run.run();
        const std::string ckpt =
            snap::latestCheckpoint(cfg.checkpoint.dir, run.taskId());
        ASSERT_FALSE(ckpt.empty()) << profile.name;

        const auto s = snap::SnapshotReader::fromFile(ckpt);
        for (const std::string &name : s.names()) {
            const std::vector<uint8_t> b = sectionBytes(s, name);
            size_t n = b.size();
            if (name == "runner") {
                const size_t host = sizeof(obs::HostProfile{}.ns);
                ASSERT_GE(n, host);
                n -= host;
            }
            got[tag + name] = fnv1a(b.data(), n);
        }
        got[tag + "result"] = fnv1a(fingerprint(res));
    }

    EXPECT_EQ(got.size(), 5u * 10u);
    for (const auto &[key, hash] : got) {
        const auto it = pinned.find(key);
        EXPECT_TRUE(it != pinned.end() && it->second == hash)
            << key << " hashes to 0x" << std::hex << hash;
    }
    if (::testing::Test::HasFailure()) {
        for (const auto &[key, hash] : got)
            std::printf("        {\"%s\", 0x%016llxull},\n", key.c_str(),
                        static_cast<unsigned long long>(hash));
    }
}

TEST(SnapPayload, EveryTruncatedSectionIsRejected)
{
    // The container CRC rejects a damaged file before any payload is
    // parsed, so the component readers themselves are exercised here:
    // every strict prefix of every section of a real checkpoint must
    // be a SnapshotError, never a crash (the snap label runs this
    // under ASan and UBSan) and never a silent success.
    const fs::path dir = scratchDir("snap_prefix");
    const auto profile = wkl::timesharing1Profile();
    const sim::ExperimentConfig cfg = allSectionsConfig(dir);
    sim::WorkloadRun run(cfg, profile);
    const sim::WorkloadResult result = run.run();
    const std::string ckpt =
        snap::latestCheckpoint(cfg.checkpoint.dir, run.taskId());
    ASSERT_FALSE(ckpt.empty());
    const auto snap = snap::SnapshotReader::fromFile(ckpt);

    std::map<std::string, std::vector<uint8_t>> sections;
    for (const std::string &name : snap.names())
        sections[name] = sectionBytes(snap, name);
    ASSERT_EQ(sections.size(), 9u);
    {
        ByteWriter w;
        result.serialize(w);
        sections["result"] = w.take();
    }

    // Stand-alone instruments shaped like the run's, one per section.
    cpu::Vax780 machine(cfg.machine);
    os::VmsLite kernel(machine, cfg.os);
    for (os::ProcessImage &image : wkl::buildWorkload(profile))
        kernel.addProcess(std::move(image));
    kernel.boot();
    obs::CounterRegistry counters;
    upc::UpcMonitor monitor(counters);
    obs::EventTracer tracer(cfg.obs.traceDepth, cfg.obs.traceMask);
    cpu::InstrTracer instr(machine, 1, /*disassemble=*/false);
    fault::FaultInjector injector(cfg.fault);
    sim::Watchdog watchdog(machine.microcode());
    sim::WorkloadResult loaded;
    // The SBI and write buffer have no mutable accessors on the
    // machine; stand-alone twins of the same shape stand in.
    mem::Sbi sbi(cfg.machine.mem.sbi);
    mem::WriteBuffer writeBuffer(counters, sbi,
                                 cfg.machine.mem.writeBufferDepth);

    using Restore = std::function<void(ByteReader &)>;
    const std::map<std::string, Restore> direct = {
        {"machine", [&](ByteReader &r) { machine.deserialize(r); }},
        {"machine.cache",
         [&](ByteReader &r) { machine.memsys().cache().deserialize(r); }},
        {"machine.sbi", [&](ByteReader &r) { sbi.deserialize(r); }},
        {"machine.writebuffer",
         [&](ByteReader &r) { writeBuffer.deserialize(r); }},
        {"machine.tb", [&](ByteReader &r) { machine.tb().deserialize(r); }},
        {"machine.ibox",
         [&](ByteReader &r) { machine.ibox().deserialize(r); }},
        {"machine.ebox",
         [&](ByteReader &r) { machine.ebox().deserialize(r); }},
        {"kernel", [&](ByteReader &r) { kernel.deserialize(r); }},
        {"monitor", [&](ByteReader &r) { monitor.deserialize(r); }},
        {"counters", [&](ByteReader &r) { counters.deserialize(r); }},
        {"tracer", [&](ByteReader &r) { tracer.deserialize(r); }},
        {"instr", [&](ByteReader &r) { instr.deserialize(r); }},
        {"injector", [&](ByteReader &r) { injector.deserialize(r); }},
        {"watchdog", [&](ByteReader &r) { watchdog.deserialize(r); }},
        {"result", [&](ByteReader &r) { loaded.deserialize(r); }},
    };

    // The machine section restores an 8 MB memory image, so it is
    // swept by stride; its fixed-layout parts are swept prefix by
    // prefix on their own, from a re-serialization of the restored
    // machine.
    {
        ByteReader r(sections.at("machine"));
        machine.deserialize(r);
    }
    auto part = [&](const char *name, const auto &component) {
        ByteWriter w;
        component.serialize(w);
        sections[name] = w.take();
    };
    part("machine.cache", machine.memsys().cache());
    part("machine.sbi", machine.memsys().sbi());
    part("machine.writebuffer", machine.memsys().writeBuffer());
    part("machine.tb", machine.tb());
    part("machine.ibox", machine.ibox());
    part("machine.ebox", machine.ebox());

    // The runner section is private to WorkloadRun, so it goes through
    // the full restore path with only that section cut short.
    const std::string cut = (dir / "cut.ckpt").string();
    sim::WorkloadRun victim(cfg, profile);
    auto restoreRunner = [&](size_t n) {
        snap::SnapshotWriter w(snap.meta());
        for (const std::string &name : snap.names()) {
            const std::vector<uint8_t> &b = sections.at(name);
            ByteWriter payload;
            payload.bytes(b.data(), name == "runner" ? n : b.size());
            w.add(name, std::move(payload));
        }
        w.writeFile(cut);
        victim.restore(cut);
    };

    auto restore = [&](const std::string &name,
                       const std::vector<uint8_t> &bytes, size_t n) {
        if (name == "runner")
            return restoreRunner(n);
        ByteReader r(bytes.data(), n);
        direct.at(name)(r);
        r.expectEnd(name.c_str());
    };

    for (const auto &[name, bytes] : sections) {
        ASSERT_NO_THROW(restore(name, bytes, bytes.size())) << name;
        const size_t stride =
            name == "machine" ? bytes.size() / 256 + 1 : 1;
        for (size_t n = 0; n < bytes.size(); n += stride)
            EXPECT_THROW(restore(name, bytes, n), SnapshotError)
                << name << " truncated to " << n << " of "
                << bytes.size() << " bytes";
    }
}

TEST(SnapPayload, EboxRejectsOutOfRangeIndices)
{
    // A restored micro-address indexes the 16K-word control store on
    // the next cycle, and a restored specifier index or register
    // number indexes opnd_[6] or gpr_[16]: the reader must refuse a
    // value past the end of each.
    cpu::Vax780 machine(cpu::MachineConfig{});
    ByteWriter w;
    machine.ebox().serialize(w);
    const std::vector<uint8_t> good = w.take();
    {
        ByteReader r(good);
        ASSERT_NO_THROW(machine.ebox().deserialize(r));
    }

    // Offsets in a fresh EBOX's payload (empty micro-stack and
    // machine-check queue): gpr[16], psl, pc, prRegs[64], six map
    // registers and mapEnabled precede upc_.
    constexpr size_t Upc = 16 * 4 + 4 + 4 + 64 * 4 + 6 * 4 + 1;
    constexpr size_t TrappedUpc = Upc + 36;
    constexpr size_t CurSpecIdx = Upc + 99;
    constexpr size_t SpecReg = Upc + 104;
    const struct
    {
        size_t offset;
        std::vector<uint8_t> bytes;
    } patches[] = {
        {Upc, {0xff, 0xff}},
        {Upc, {0x00, 0x40}},       // 0x4000: one past the last word
        {TrappedUpc, {0x00, 0x40}},
        {CurSpecIdx, {6, 0, 0, 0}},
        {SpecReg, {16}},
    };
    for (const auto &p : patches) {
        std::vector<uint8_t> bad = good;
        std::copy(p.bytes.begin(), p.bytes.end(), bad.begin() + p.offset);
        ByteReader r(bad);
        EXPECT_THROW(machine.ebox().deserialize(r), SnapshotError)
            << "patch at offset " << p.offset;
    }
}

TEST(SnapPayload, KernelRejectsOutOfRangeTerminalPid)
{
    // A queued terminal event's pid indexes the process table when it
    // falls due, so it must name one of the booted processes.
    const sim::ExperimentConfig cfg = smallConfig();
    const auto profile = wkl::educationalProfile();
    cpu::Vax780 machine(cfg.machine);
    os::VmsLite kernel(machine, cfg.os);
    for (os::ProcessImage &image : wkl::buildWorkload(profile))
        kernel.addProcess(std::move(image));
    kernel.boot();
    kernel.terminal().scheduleInput(5000, 1);

    ByteWriter w;
    kernel.serialize(w);
    std::vector<uint8_t> bytes = w.take();
    {
        ByteReader r(bytes);
        ASSERT_NO_THROW(kernel.deserialize(r));
    }

    // The section ends with the queued event's pid, then the
    // terminal's clock (u64), service flag (u8) and counter (u64).
    const size_t pid = bytes.size() - 17 - 4;
    ASSERT_EQ(bytes[pid], 1u);
    bytes[pid] = 0x7f;
    ByteReader r(bytes);
    EXPECT_THROW(kernel.deserialize(r), SnapshotError);
}

TEST(SnapPayload, CounterGateIsZeroOrOne)
{
    // The gate says whether the registry's marks hold the window or
    // its opening totals, so a restored gate of 2 would misread them.
    obs::CounterRegistry reg;
    reg.setEnabled(true);
    ByteWriter w;
    reg.serialize(w);
    std::vector<uint8_t> bytes = w.take();
    {
        ByteReader r(bytes);
        ASSERT_NO_THROW(reg.deserialize(r));
    }
    bytes[bytes.size() - 8] = 2;
    ByteReader r(bytes);
    EXPECT_THROW(reg.deserialize(r), SnapshotError);
}

TEST(SnapRetry, SimulatedCrashRecoversFromCheckpoint)
{
    const fs::path dir = scratchDir("snap_retry");
    const auto profile = wkl::timesharing1Profile();

    sim::ExperimentConfig plain = smallConfig();
    const auto baseline =
        sim::ExperimentRunner(plain).runWorkload(profile);

    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.everyCycles = 15000;
    cfg.checkpoint.maxRetries = 2;
    cfg.checkpoint.simulatedCrashCycles = {40000};

    const auto recovered = sim::runWorkloadRecoverable(cfg, profile);
    ASSERT_TRUE(recovered.ok);
    EXPECT_EQ(recovered.attempts, 2u);
    EXPECT_GE(recovered.resumedFromCycle, 15000u);

    // The crash-and-recover trajectory reproduces the uninterrupted
    // measurement to the byte.
    EXPECT_EQ(fingerprint(baseline), fingerprint(recovered));

    // The completed workload persisted a loadable .result.
    const std::string rpath = snap::resultPath(
        cfg.checkpoint.dir,
        snap::taskId(profile.name, profile.seed));
    ASSERT_TRUE(fs::exists(rpath));
    const auto loaded = sim::loadResultFile(
        rpath, sim::configHash(cfg, profile));
    EXPECT_EQ(fingerprint(loaded), fingerprint(baseline));
}

TEST(SnapRetry, ExhaustedBudgetYieldsCleanPartialResult)
{
    const fs::path dir = scratchDir("snap_exhaust");
    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.everyCycles = 10000;
    cfg.checkpoint.maxRetries = 1;
    // Every allowed attempt has a scripted crash waiting for it.
    cfg.checkpoint.simulatedCrashCycles = {30000, 35000, 40000};

    EXPECT_THROW(
        sim::runWorkloadRecoverable(cfg, wkl::timesharing1Profile()),
        WatchdogError);

    // Through the composite runner the same failure becomes a clean
    // not-ok partial result instead of an aborted campaign.
    const auto composite = sim::ExperimentRunner(cfg).runComposite(
        {wkl::timesharing1Profile()});
    ASSERT_EQ(composite.workloads.size(), 1u);
    EXPECT_FALSE(composite.allOk());
    EXPECT_FALSE(composite.workloads[0].ok);
    EXPECT_NE(composite.workloads[0].error.find("simulated crash"),
              std::string::npos);
}

TEST(SnapResume, CompositeResumesByteIdenticalSerialAndParallel)
{
    const fs::path dir = scratchDir("snap_resume");
    const auto profiles = wkl::paperWorkloads();

    sim::ExperimentConfig plain = smallConfig();
    std::vector<std::vector<uint8_t>> want;
    for (const auto &p : profiles)
        want.push_back(
            fingerprint(sim::ExperimentRunner(plain).runWorkload(p)));

    // "Interrupted" composite: the first two workloads completed and
    // persisted results before the harness died.
    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.everyCycles = 20000;
    sim::runWorkloadRecoverable(cfg, profiles[0]);
    sim::runWorkloadRecoverable(cfg, profiles[1]);

    // Watermark the first persisted result so the test can prove the
    // resumed composite loaded it instead of re-running.
    const uint64_t hash0 = sim::configHash(cfg, profiles[0]);
    const std::string rpath0 = snap::resultPath(
        cfg.checkpoint.dir,
        snap::taskId(profiles[0].name, profiles[0].seed));
    sim::WorkloadResult marked = sim::loadResultFile(rpath0, hash0);
    marked.attempts = 99;
    sim::saveResultFile(rpath0, marked, hash0);

    // Serial resume: completed results are reused, the rest run
    // fresh, and the composite matches the uninterrupted one.
    sim::ExperimentConfig resume = cfg;
    resume.checkpoint.resume = true;
    const auto serial =
        sim::ExperimentRunner(resume).runComposite(profiles);
    ASSERT_EQ(serial.workloads.size(), profiles.size());
    EXPECT_EQ(serial.workloads[0].attempts, 99u)
        << "persisted result was re-run, not loaded";
    for (size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(fingerprint(serial.workloads[i]), want[i])
            << profiles[i].name;

    // Parallel resume over the same directory (now fully populated)
    // must merge to the identical composite.
    sim::EngineConfig ecfg;
    ecfg.jobs = 4;
    const auto parallel =
        sim::ParallelEngine(resume, ecfg).runComposite(profiles);
    ASSERT_EQ(parallel.workloads.size(), profiles.size());
    EXPECT_EQ(parallel.workloads[0].attempts, 99u);
    for (size_t i = 0; i < profiles.size(); ++i)
        EXPECT_EQ(fingerprint(parallel.workloads[i]), want[i])
            << profiles[i].name;
    for (uint32_t b = 0; b < upc::Histogram::NumBuckets; ++b) {
        ASSERT_EQ(serial.histogram.count(b), parallel.histogram.count(b));
        ASSERT_EQ(serial.histogram.stall(b), parallel.histogram.stall(b));
    }
}

TEST(SnapResume, UnreadableSpoolFileRunsFromTheStart)
{
    // A spool file written by an older format version, or damaged on
    // disk, must cost one re-run, not fail the task on every resume.
    const fs::path dir = scratchDir("snap_unreadable");
    const auto profile = wkl::timesharing1Profile();
    const auto want = fingerprint(
        sim::ExperimentRunner(smallConfig()).runWorkload(profile));

    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.everyCycles = 20000;
    cfg.checkpoint.resume = true;
    const std::string tid = snap::taskId(profile.name, profile.seed);
    const std::string result = snap::resultPath(cfg.checkpoint.dir, tid);

    using Damage = void (*)(std::vector<uint8_t> &);
    const std::pair<const char *, Damage> damages[] = {
        {"previous version word",
         [](std::vector<uint8_t> &b) {
             b[sizeof(snap::Magic)] = uint8_t(snap::FormatVersion - 1);
         }},
        {"flipped bit",
         [](std::vector<uint8_t> &b) { b[b.size() / 2] ^= 0x10; }},
    };
    for (const bool inResult : {true, false}) {
        for (const auto &[what, damage] : damages) {
            SCOPED_TRACE(std::string(what) +
                         (inResult ? " in the result" : " in a checkpoint"));
            // Fill the spool (or reuse it) with readable files first.
            ASSERT_EQ(fingerprint(sim::runWorkloadRecoverable(cfg, profile)),
                      want);
            std::string victim = result;
            if (!inResult) {
                fs::remove(result);
                victim = snap::latestCheckpoint(cfg.checkpoint.dir, tid);
                ASSERT_FALSE(victim.empty());
            }
            std::vector<uint8_t> bytes = readFile(victim);
            damage(bytes);
            std::ofstream(victim, std::ios::binary | std::ios::trunc)
                .write(reinterpret_cast<const char *>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size()));

            sim::WorkloadResult got;
            ASSERT_NO_THROW(got = sim::runWorkloadRecoverable(cfg, profile));
            EXPECT_EQ(fingerprint(got), want);
            if (!inResult) {
                EXPECT_EQ(got.resumedFromCycle, 0u);
            }
        }
    }

    std::ifstream manifest(dir / "manifest.txt");
    const std::string log((std::istreambuf_iterator<char>(manifest)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(log.find("unreadable " + fs::path(result).filename().string() +
                       "; running the workload"),
              std::string::npos);
    EXPECT_NE(log.find(".ckpt; running from the start"), std::string::npos);
}

TEST(SnapWatchdog, DiagnosticsCarryCheckpointContext)
{
    const fs::path dir = scratchDir("snap_diag");
    const auto profile = wkl::timesharing1Profile();

    // With checkpointing: the crash diagnostic names the last
    // committed micro-address and the checkpoint a retry would use.
    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.everyCycles = 10000;
    cfg.checkpoint.simulatedCrashCycles = {30000};
    sim::WorkloadRun run(cfg, profile);
    try {
        run.run();
        FAIL() << "scripted crash did not fire";
    } catch (const WatchdogError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("last committed upc"), std::string::npos);
        EXPECT_NE(what.find("nearest checkpoint:   cycle"),
                  std::string::npos);
        EXPECT_NE(what.find("cycles observed"), std::string::npos);
    }

    // Without a checkpoint directory there is nothing to rewind to,
    // and the diagnostic says so rather than inventing one.
    sim::ExperimentConfig bare = smallConfig();
    bare.checkpoint.simulatedCrashCycles = {30000};
    sim::WorkloadRun naked(bare, profile);
    try {
        naked.run();
        FAIL() << "scripted crash did not fire";
    } catch (const WatchdogError &e) {
        EXPECT_NE(std::string(e.what()).find("nearest checkpoint:   none"),
                  std::string::npos);
    }
}

TEST(SnapReplay, FaultSweepIsDeterministic)
{
    const fs::path dir = scratchDir("snap_replay");
    const auto profile = wkl::timesharing1Profile();
    sim::ExperimentConfig cfg = smallConfig();
    cfg.checkpoint.dir = dir.string();

    auto runSweep = [&] {
        return sim::replayFaultSweep(cfg, profile,
                                     fault::FaultKind::MemEccSingle,
                                     30000, {0, 1, 5});
    };
    const auto a = runSweep();
    const auto b = runSweep();

    ASSERT_EQ(a.outcomes.size(), 3u);
    EXPECT_GE(a.baselineCycle, 30000u);
    EXPECT_EQ(a.baselineCycle, b.baselineCycle);
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const auto &oa = a.outcomes[i];
        const auto &ob = b.outcomes[i];
        EXPECT_TRUE(oa.ok) << "replay " << i << ": " << oa.error;
        EXPECT_EQ(oa.injectionCycle, a.baselineCycle + (i == 2 ? 5 : i));
        // Bit-for-bit repeatable: same injection point, same fate.
        EXPECT_EQ(oa.ok, ob.ok);
        EXPECT_EQ(oa.machineChecks, ob.machineChecks);
        EXPECT_EQ(oa.faultsCorrected, ob.faultsCorrected);
        EXPECT_EQ(oa.processesTerminated, ob.processesTerminated);
        EXPECT_EQ(oa.cycles, ob.cycles);
        // The fault actually landed and was survived.
        EXPECT_GE(oa.machineChecks, 1u);
    }
}

TEST(SnapResume, RestoreAcrossFirstDispatch)
{
    // A process's image is generated at its first dispatch. A
    // checkpoint taken before pid k's first pick must leave k to be
    // generated after the resume; one taken after k has run holds k's
    // frames as k left them, which the resume must not generate anew.
    const fs::path dir = scratchDir("snap_first_dispatch");
    const auto profile = wkl::timesharing1Profile();
    sim::ExperimentConfig cfg = smallConfig();
    cfg.instructionsPerWorkload = 20000;
    cfg.obs.traceDepth = 1 << 14;
    cfg.obs.traceMask = static_cast<uint32_t>(obs::Cat::Os);
    const sim::WorkloadResult whole = sim::WorkloadRun(cfg, profile).run();
    const auto want = fingerprint(whole);

    // Every dispatch as (cycle, pid): boot picks pid 1, the trace
    // records the rest.
    std::vector<std::pair<uint64_t, int>> picks = {{0, 1}};
    for (const obs::TraceEvent &e : whole.trace) {
        if (e.cat == static_cast<uint32_t>(obs::Cat::Os) &&
            e.code == static_cast<uint16_t>(obs::Code::CtxSwitch))
            picks.emplace_back(e.ts, static_cast<int>(e.arg0));
    }
    std::sort(picks.begin(), picks.end());
    auto pickedBy = [&](uint64_t cycle) {
        std::set<int> s;
        for (const auto &[ts, pid] : picks)
            if (ts < cycle && pid != 0)
                s.insert(pid);
        return std::vector<int>(s.begin(), s.end());
    };

    // Pid k: the first user process after pid 1 to be picked, and a
    // checkpoint on either side of its first pick.
    size_t i = 1;
    while (i + 1 < picks.size() && picks[i].second <= 1)
        ++i;
    ASSERT_LT(i + 1, picks.size()) << "no second user process ran";
    const int k = picks[i].second;
    const uint64_t beforeK = (picks[i - 1].first + picks[i].first) / 2;
    const uint64_t afterK = (picks[i].first + picks[i + 1].first) / 2;

    sim::ExperimentConfig saving = cfg;
    saving.checkpoint.dir = dir.string();
    saving.checkpoint.atCycles = {beforeK, afterK};
    sim::WorkloadRun saver(saving, profile);
    ASSERT_EQ(fingerprint(saver.run()), want);

    for (const uint64_t cycle : {beforeK, afterK}) {
        SCOPED_TRACE("checkpoint at cycle " + std::to_string(cycle));
        const std::string path =
            snap::checkpointPath(saving.checkpoint.dir, saver.taskId(), cycle);
        ASSERT_TRUE(fs::exists(path));
        sim::WorkloadRun resumed(cfg, profile);
        resumed.restore(path);
        const std::vector<int> set = resumed.kernel().materializedPids();
        EXPECT_EQ(set, pickedBy(cycle));
        const bool hasK = std::binary_search(set.begin(), set.end(), k);
        EXPECT_EQ(hasK, cycle == afterK);

        if (cycle == afterK) {
            // Pid k has written its data since its image was loaded,
            // so generating it again would change the run.
            cpu::Vax780 machine(cfg.machine);
            const auto file = snap::SnapshotReader::fromFile(path);
            ByteReader r = file.open("machine");
            machine.deserialize(r);
            const os::ProcessImage image =
                wkl::generateProgram(profile, static_cast<uint32_t>(k - 1));
            const os::VmsLite::Frames f = resumed.kernel().p0Frames(k);
            std::vector<uint8_t> frames(image.p0Image.size());
            for (size_t b = 0; b < frames.size(); ++b)
                frames[b] = machine.memsys().memory().readByte(
                    f.base + static_cast<uint32_t>(b));
            EXPECT_NE(frames, image.p0Image);
        }
        EXPECT_EQ(fingerprint(resumed.run()), want);
    }
}

TEST(SnapResume, TerminalEventQueuedAcrossCheckpoint)
{
    // A checkpoint taken after a process asked for terminal input and
    // before that input falls due holds the queued event. The machine
    // caches when its devices next fall due, so a restore must drop the
    // cached cycle: here the run restores into a machine that already
    // ran past the event, whose cache points beyond it.
    const fs::path dir = scratchDir("snap_term_queued");
    // Short sessions, so processes wait for input within the run.
    auto profile = wkl::timesharing1Profile();
    profile.codeBlocks = 24;
    profile.thinkMeanCycles = 4000;
    sim::ExperimentConfig cfg = smallConfig();
    cfg.obs.traceDepth = 1 << 14;
    cfg.obs.traceMask = static_cast<uint32_t>(obs::Cat::Os);
    const sim::WorkloadResult whole = sim::WorkloadRun(cfg, profile).run();
    const auto want = fingerprint(whole);

    // The first terminal wait: its input is due at least 1000 cycles
    // later (the think-time floor), so one cycle after it the event is
    // queued and not due.
    uint64_t cycle = 0;
    for (const obs::TraceEvent &e : whole.trace) {
        if (e.cat == static_cast<uint32_t>(obs::Cat::Os) &&
            e.code == static_cast<uint16_t>(obs::Code::Syscall) &&
            e.arg0 == os::sys::TermWait) {
            cycle = e.ts + 1;
            break;
        }
    }
    ASSERT_GT(cycle, 0u) << "no process waited for terminal input";

    sim::ExperimentConfig saving = cfg;
    saving.checkpoint.dir = dir.string();
    saving.checkpoint.atCycles = {cycle};
    sim::WorkloadRun saver(saving, profile);
    ASSERT_EQ(fingerprint(saver.run()), want);
    const std::string path =
        snap::checkpointPath(saving.checkpoint.dir, saver.taskId(), cycle);
    ASSERT_TRUE(fs::exists(path));

    sim::WorkloadRun fresh(cfg, profile);
    fresh.restore(path);
    const uint64_t due = fresh.kernel().terminal().nextEventAt();
    EXPECT_GT(due, cycle);
    EXPECT_NE(due, ~uint64_t{0}) << "no terminal event queued and waiting";
    EXPECT_EQ(fingerprint(fresh.run()), want);

    sim::WorkloadRun ranAhead(cfg, profile);
    ASSERT_EQ(fingerprint(ranAhead.run()), want);
    ranAhead.restore(path);
    EXPECT_EQ(fingerprint(ranAhead.run()), want);
}
