/**
 * @file
 * The experiment daemon: a long-running service that accepts
 * experiment jobs, validates them at admission, queues them with
 * per-tenant fairness under bounded depth, runs them on the parallel
 * engine, and serves results from a content-addressed cache.
 *
 * Everything transport-shaped lives one layer up (svc/server.hh); the
 * Daemon itself is an in-process object, which is what makes the
 * service testable the way the rest of the simulator is: the
 * integration tests construct a Daemon directly, pump its queue by
 * hand (workers = 0), drive timeouts with a ManualClock, and assert
 * on its stats counters — no sockets, no sleeps, no races.
 *
 * The determinism contract carries through unchanged: a reply is a
 * pure function of the job spec (DESIGN.md §10), so the cache stores
 * reply bodies verbatim and a cache hit is byte-identical to the cold
 * run it replaces. Single-flight makes concurrent identical
 * submissions share one simulation; the engineRuns counter is the
 * observable proof.
 *
 * Graceful drain: drain() stops workers from claiming queued jobs and
 * raises the engine's cooperative stop flag, so workloads already
 * running finish (and, with a spool directory, persist their
 * `.result` files) while everything else is cut short with a typed
 * "draining" error. A restarted daemon pointed at the same spool
 * directory resumes an interrupted composite from those results via
 * the recoverable-run path.
 */

#ifndef UPC780_SVC_DAEMON_HH
#define UPC780_SVC_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/cache.hh"
#include "svc/clock.hh"
#include "svc/job.hh"
#include "common/json.hh"

namespace upc780::svc
{

/** Daemon configuration (none of it enters the cache key). */
struct DaemonConfig
{
    /** Result-cache directory (required). */
    std::string cacheDir;
    uint64_t cacheBudgetBytes = 256ull << 20;

    /**
     * Spool directory for in-flight jobs: each job checkpoints into
     * `<spoolDir>/<cacheKey>` and resumes from it after a drain or a
     * crash. Empty disables checkpoint/resume entirely.
     */
    std::string spoolDir;

    /** Checkpoint cadence (machine cycles) inside the spool. */
    uint64_t spoolEveryCycles = 20000;

    /**
     * Job-level worker threads. 0 means no threads: the owner pumps
     * the queue with runQueuedOnce(), which is how the deterministic
     * tests serialize scheduling decisions.
     */
    unsigned workers = 0;

    /** Engine threads per job (EngineConfig::jobs semantics). */
    unsigned engineJobs = 1;

    /** Queue bounds; admission fails closed when either is hit. */
    size_t maxQueuedPerTenant = 8;
    size_t maxQueuedTotal = 32;

    /**
     * Queue-wait deadline in clock milliseconds; a job still queued
     * past it is answered with a timeout error instead of running.
     * 0 disables.
     */
    uint64_t requestTimeoutMs = 0;

    /** Admission limits (see svc/job.hh). */
    AdmissionLimits limits;

    /** Time source (not owned); null uses the steady system clock. */
    Clock *clock = nullptr;

    /**
     * Chaos knob for the recovery tests: per-attempt simulated-crash
     * cycles handed to every job's checkpoint policy as a crash drill
     * (snap::CheckpointPolicy::scriptCrashes). Daemon-side
     * only — deliberately outside the cache key, so a chaos-ridden
     * run must still produce the clean run's bytes.
     */
    std::vector<uint64_t> chaosCrashCycles;
};

/** Daemon observability (all monotonic). */
struct DaemonStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;    //!< parse/validate/queue-full failures
    uint64_t completed = 0;   //!< replies served, hit or cold
    uint64_t failed = 0;      //!< error replies after admission
    uint64_t engineRuns = 0;  //!< simulations actually executed
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t singleFlightJoins = 0;
    uint64_t timeouts = 0;
    uint64_t drained = 0;     //!< jobs cut short by drain()
};

/** Progress-event observer (called on daemon/worker threads). */
using EventFn = std::function<void(const json::Value &event)>;

namespace detail
{

/** Shared completion state behind a JobHandle (single-flight unit). */
struct JobState
{
    std::string key;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::string reply;
    std::vector<EventFn> observers;

    void emit(const json::Value &event);
    void finish(std::string replyText);
    std::string wait();
};

} // namespace detail

/** A submitted job: wait() blocks for the final reply line. */
class JobHandle
{
  public:
    JobHandle() = default;
    explicit JobHandle(std::shared_ptr<detail::JobState> st)
        : st_(std::move(st))
    {}

    /** Cache key; empty for requests rejected before keying. */
    const std::string &key() const { return st_->key; }

    /** Block until the reply is ready and return it (one line). */
    std::string wait() { return st_->wait(); }

    bool valid() const { return st_ != nullptr; }

  private:
    std::shared_ptr<detail::JobState> st_;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig cfg);

    /** Drains and joins workers. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Submit one request document (the JSON text a client writes).
     * Never throws on bad input: every failure becomes a structured
     * error reply on the returned handle. Progress events go to
     * @p onEvent (optional), including the joined-in-flight case.
     */
    JobHandle submit(const std::string &requestText, EventFn onEvent = {});

    /**
     * Manual queue pump (workers = 0): run the next queued job on the
     * calling thread, honoring tenant fairness and timeouts. Returns
     * false when the queue is empty.
     */
    bool runQueuedOnce();

    /**
     * Graceful drain: refuse new submissions, stop claiming queued
     * jobs (each gets a "draining" error reply), and raise the engine
     * stop flag so running composites finish their in-flight
     * workloads — persisting spool `.result` files — and cut the
     * rest short. Idempotent; returns when workers have stopped.
     */
    void drain();

    bool draining() const { return drain_.load(); }

    DaemonStats stats() const;
    CacheStats cacheStats() const { return cache_.stats(); }
    const DaemonConfig &config() const { return cfg_; }

    /** The cache key a request text would be filed under (admission
     *  included); throws like parseJobSpec. Exposed for tests/tools. */
    std::string keyFor(const std::string &requestText) const;

  private:
    struct Queued
    {
        std::shared_ptr<detail::JobState> state;
        JobSpec spec;
        uint64_t enqueuedMs = 0;
    };

    uint64_t nowMs() const;
    void workerLoop();
    /** Pop the next job round-robin across tenants (locked). */
    bool popLocked(Queued &out);
    void runJob(const Queued &q);
    std::string buildReply(const JobSpec &spec, const std::string &key);
    void finishJob(const std::shared_ptr<detail::JobState> &st,
                   std::string reply, bool ok);

    DaemonConfig cfg_;
    SystemClock sysClock_;
    ResultCache cache_;

    mutable std::mutex mu_;
    std::condition_variable queueCv_;
    /** Tenant id -> FIFO of queued jobs (fairness unit). */
    std::map<std::string, std::deque<Queued>> queues_;
    size_t queuedTotal_ = 0;
    /** Round-robin cursor: the tenant to serve next. */
    std::string rrCursor_;
    /** Single-flight: cache key -> in-flight (queued or running) job. */
    std::map<std::string, std::shared_ptr<detail::JobState>> inflight_;
    DaemonStats stats_;

    std::atomic<bool> drain_{false};
    std::vector<std::thread> workers_;
};

/** Structured error reply (also used by the server for I/O errors). */
std::string errorReply(const std::string &type, const std::string &message);

/** Map a SimError subclass to its wire type name. */
std::string errorTypeName(const SimError &e);

} // namespace upc780::svc

#endif // UPC780_SVC_DAEMON_HH
