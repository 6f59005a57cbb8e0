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
 * sweeps.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/serial.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/replay.hh"
#include "sim/run.hh"
#include "snap/snapshot.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"
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
