/**
 * @file
 * Snapshot container: the on-disk format for machine-state checkpoints
 * and completed workload results.
 *
 * A snapshot file is a versioned, checksummed envelope around named
 * sections:
 *
 *     "UPC780SN"                     8-byte magic
 *     u32 version                    format revision (currently 1)
 *     u32 kind                       checkpoint | result
 *     meta                           workload name, config hash,
 *                                    cycle, instruction count, attempt
 *     u32 section count
 *     per section:  str name, u64 size, payload bytes
 *     u32 CRC-32                     over every preceding byte
 *
 * Each section payload is one component's ByteWriter stream (the CPU,
 * the memory image, the kernel, ...). The container knows nothing
 * about payload contents; it guarantees only that what the reader
 * hands out is byte-for-byte what the writer put in, or a typed
 * SnapshotError — never a crash, never a silent mis-restore. The
 * integrity ladder a corrupted file falls down: short file / bad magic
 * / unsupported version / CRC mismatch / structural parse failure, in
 * that order, each a distinct message.
 *
 * The config hash in the meta block fingerprints everything that
 * shapes a run's trajectory (machine geometry, OS config, workload
 * profile, budgets, observability config). Restore refuses a snapshot
 * whose hash differs from the run's — resuming under a different
 * configuration would not be the same experiment. Deliberately
 * excluded: cycle-scheduled fault injections, the simulated-crash
 * chaos knob, and the checkpoint policy itself, so one baseline
 * checkpoint serves a whole replay sweep and a retry can resume the
 * run that crashed.
 */

#ifndef UPC780_SNAP_SNAPSHOT_HH
#define UPC780_SNAP_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.hh"

namespace upc780::snap
{

/** Current container format revision. */
constexpr uint32_t FormatVersion = 1;

/** The 8-byte file magic. */
constexpr char Magic[8] = {'U', 'P', 'C', '7', '8', '0', 'S', 'N'};

/** What a snapshot file holds. */
enum class SnapshotKind : uint32_t
{
    Checkpoint = 1, //!< mid-run machine state, resumable
    Result = 2,     //!< a completed WorkloadResult
    CacheEntry = 3, //!< a daemon result-cache entry (svc/cache.hh)
};

/** Identifying metadata carried in every snapshot file. */
struct SnapshotMeta
{
    SnapshotKind kind = SnapshotKind::Checkpoint;
    std::string workload;      //!< profile name
    uint64_t configHash = 0;   //!< see configHash() at the run layer
    uint64_t cycle = 0;        //!< machine cycle at capture
    uint64_t instructions = 0; //!< instructions retired at capture
    uint32_t attempt = 0;      //!< retry attempt that wrote it
};

/** Assembles and writes one snapshot file. */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(SnapshotMeta meta) : meta_(std::move(meta)) {}

    /** Append a named section (payload bytes are taken verbatim). */
    void
    add(const std::string &name, ByteWriter payload)
    {
        sections_.emplace_back(name, payload.take());
    }

    /** Serialize the container, CRC included. */
    std::vector<uint8_t> finish() const;

    /**
     * Write the container to @p path atomically (temp file + rename),
     * creating parent directories as needed, so a crash mid-write
     * never leaves a half-written snapshot under the final name. The
     * bytes are those of finish(), streamed without assembling a copy.
     */
    void writeFile(const std::string &path) const;

  private:
    using Sink = std::function<void(const uint8_t *, size_t)>;

    /**
     * The one definition of the byte layout: hand the container to
     * @p sink piece by piece, header first, with the CRC chained
     * across the pieces and emitted last.
     */
    void emit(const Sink &sink) const;

    SnapshotMeta meta_;
    std::vector<std::pair<std::string, std::vector<uint8_t>>> sections_;
};

/** Validates and indexes one snapshot file; throws SnapshotError. */
class SnapshotReader
{
  public:
    /** Parse from bytes: magic, version, CRC, structure all checked. */
    explicit SnapshotReader(std::vector<uint8_t> bytes);

    /** Read and parse @p path (I/O failures are SnapshotErrors too). */
    static SnapshotReader fromFile(const std::string &path);

    const SnapshotMeta &meta() const { return meta_; }

    bool has(const std::string &name) const;

    /** Bounds-checked reader over one section; throws if missing. */
    ByteReader open(const std::string &name) const;

    /** Section names, in file order. */
    std::vector<std::string> names() const;

  private:
    struct Section
    {
        std::string name;
        size_t offset;
        size_t size;
    };

    std::vector<uint8_t> buf_;
    SnapshotMeta meta_;
    std::vector<Section> sections_;
};

// ----- config fingerprinting -------------------------------------------

constexpr uint64_t Fnv1aOffset = 1469598103934665603ull;
constexpr uint64_t Fnv1aPrime = 1099511628211ull;

/** FNV-1a over a byte stream (used for the snapshot config hash). */
inline uint64_t
fnv1a(const uint8_t *p, size_t n, uint64_t h = Fnv1aOffset)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= Fnv1aPrime;
    }
    return h;
}

inline uint64_t
fnv1a(const std::vector<uint8_t> &v, uint64_t h = Fnv1aOffset)
{
    return fnv1a(v.data(), v.size(), h);
}

// ----- checkpoint policy -----------------------------------------------

/**
 * When and where to checkpoint, and how hard to retry. An empty
 * directory disables the whole apparatus; everything else is inert
 * without it.
 */
struct CheckpointPolicy
{
    /** Checkpoint/result directory; empty disables checkpointing. */
    std::string dir;

    /** Periodic checkpoint interval in machine cycles (0: none). */
    uint64_t everyCycles = 0;

    /** Explicit checkpoint cycles (ascending), besides the period. */
    std::vector<uint64_t> atCycles;

    /** Watchdog-trip retries before giving up on a workload. */
    uint32_t maxRetries = 2;

    /** Sleep between retries (doubles per attempt; 0 disables). */
    uint32_t retryBackoffMs = 0;

    /**
     * Resume mode: completed `.result` files in `dir` are loaded
     * instead of re-run, and interrupted workloads restart from their
     * newest checkpoint.
     */
    bool resume = false;

    /**
     * Chaos knob for the retry tests: attempt i (0-based) throws a
     * WatchdogError when the machine reaches simulatedCrashCycles[i].
     * Attempts beyond the list run to completion.
     */
    std::vector<uint64_t> simulatedCrashCycles;

    bool enabled() const { return !dir.empty(); }
    bool periodic() const { return everyCycles || !atCycles.empty(); }
};

// ----- checkpoint file naming ------------------------------------------

/** Map an arbitrary profile name into a safe file-name stem. */
std::string sanitizeTaskId(const std::string &name);

/** Task identity on disk: sanitized profile name + "-s" + seed. */
std::string taskId(const std::string &profileName, uint64_t seed);

/** `<dir>/<taskId>-c<cycle>.ckpt` */
std::string
checkpointPath(const std::string &dir, const std::string &taskId,
               uint64_t cycle);

/** `<dir>/<taskId>.result` */
std::string resultPath(const std::string &dir, const std::string &taskId);

/**
 * Newest checkpoint file for @p taskId in @p dir (highest cycle), or
 * empty when none (or the directory is absent).
 */
std::string
latestCheckpoint(const std::string &dir, const std::string &taskId);

/**
 * Append one human-readable line to `<dir>/manifest.txt`. The
 * manifest is advisory — resume authority is the snapshot files
 * themselves — but it tells an operator what a checkpoint directory
 * contains.
 */
void appendManifest(const std::string &dir, const std::string &line);

} // namespace upc780::snap

#endif // UPC780_SNAP_SNAPSHOT_HH
