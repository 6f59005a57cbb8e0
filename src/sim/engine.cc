#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/run.hh"
#include "ucode/controlstore.hh"

namespace upc780::sim
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    if (const char *e = std::getenv("UPC780_JOBS")) {
        unsigned long v = std::strtoul(e, nullptr, 0);
        if (v >= 1)
            return static_cast<unsigned>(v);
        warn("ignoring UPC780_JOBS='%s' (want an integer >= 1)", e);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

/**
 * Run one task exactly as the serial composite does: a SimError
 * becomes a not-ok stub result so a campaign always yields partial
 * results, and the failure is warned about (the logger serializes
 * concurrent lines).
 */
WorkloadResult
runOne(const ExperimentConfig &cfg, const wkl::WorkloadProfile &profile,
       const std::atomic<bool> *cancel)
{
    ExperimentConfig task_cfg = cfg;
    task_cfg.cancel = cancel;
    try {
        // The recoverable path: identical to a plain run when the
        // checkpoint policy is disabled, and the per-task retry/resume
        // behavior of the serial composite when it is enabled (task
        // IDs are per profile+seed, so concurrent workers never
        // collide in the checkpoint directory).
        return runWorkloadRecoverable(task_cfg, profile);
    } catch (const SimError &e) {
        warn("workload '%s' failed: %s", profile.name.c_str(), e.what());
        WorkloadResult r;
        r.name = profile.name;
        r.ok = false;
        r.error = e.what();
        return r;
    }
}

/** Per-worker supervision state (heap-pinned: atomics don't move). */
struct WorkerState
{
    std::atomic<bool> cancel{false};
    /** Nanosecond timestamp of the running task's start; -1 idle. */
    std::atomic<int64_t> taskStartNs{-1};
    /** Bumped at every task start, so the supervisor can tell the
     *  task it timed apart from a successor that reused the slot. */
    std::atomic<uint64_t> epoch{0};
};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Not-ok stub for a task skipped by the cooperative stop flag. */
WorkloadResult
cancelledStub(const wkl::WorkloadProfile &profile)
{
    WorkloadResult r;
    r.name = profile.name;
    r.ok = false;
    r.error = "cancelled: engine stop requested before task start";
    return r;
}

} // namespace

std::vector<WorkloadResult>
ParallelEngine::runTasks(const std::vector<wkl::WorkloadProfile> &tasks)
{
    std::vector<WorkloadResult> results(tasks.size());
    if (tasks.empty())
        return results;

    const unsigned jobs = static_cast<unsigned>(
        std::min<size_t>(resolveJobs(ecfg_.jobs), tasks.size()));

    // Force the shared microcode image (a lazily built const
    // singleton) into existence before any worker needs it, so the
    // workers only ever read immutable state.
    ucode::microcodeImage();

    const auto stopped = [&] {
        return ecfg_.stop &&
               ecfg_.stop->load(std::memory_order_relaxed);
    };

    if (jobs <= 1) {
        // Degenerate pool: same per-task code path, no threads at all,
        // so a --jobs 1 run is trivially identical to the serial one.
        for (size_t i = 0; i < tasks.size(); ++i) {
            results[i] = stopped() ? cancelledStub(tasks[i])
                                   : runOne(cfg_, tasks[i], nullptr);
            if (ecfg_.onTaskDone)
                ecfg_.onTaskDone(i, results[i]);
        }
        return results;
    }

    std::vector<std::unique_ptr<WorkerState>> states(jobs);
    for (auto &s : states)
        s = std::make_unique<WorkerState>();

    std::atomic<size_t> next{0};
    auto worker = [&](unsigned id) {
        WorkerState &st = *states[id];
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                break;
            if (stopped()) {
                results[i] = cancelledStub(tasks[i]);
                if (ecfg_.onTaskDone)
                    ecfg_.onTaskDone(i, results[i]);
                continue;
            }
            st.cancel.store(false, std::memory_order_relaxed);
            st.epoch.fetch_add(1, std::memory_order_relaxed);
            st.taskStartNs.store(nowNs(), std::memory_order_relaxed);
            results[i] = runOne(cfg_, tasks[i], &st.cancel);
            st.taskStartNs.store(-1, std::memory_order_relaxed);
            if (ecfg_.onTaskDone)
                ecfg_.onTaskDone(i, results[i]);
        }
    };

    // Optional per-task wall-clock deadline: the supervisor cancels
    // only the overrunning worker's task; the rest of the pool keeps
    // draining the queue.
    std::mutex sup_mutex;
    std::condition_variable sup_cv;
    bool done = false;
    std::thread supervisor;
    if (ecfg_.taskDeadlineSeconds > 0) {
        const auto deadline_ns = static_cast<int64_t>(
            ecfg_.taskDeadlineSeconds * 1e9);
        // Poll a few times per deadline (clamped to [1, 50] ms) so even
        // sub-50ms deadlines are enforced promptly.
        const auto poll = std::chrono::microseconds(
            std::clamp<int64_t>(deadline_ns / 4000, 1000, 50000));
        // deadline_ns and poll die with this block; the thread does
        // not, so it takes its own copies.
        supervisor = std::thread([&, deadline_ns, poll] {
            std::unique_lock<std::mutex> lock(sup_mutex);
            while (!sup_cv.wait_for(lock, poll, [&] { return done; })) {
                for (auto &sp : states) {
                    WorkerState &st = *sp;
                    const uint64_t epoch =
                        st.epoch.load(std::memory_order_relaxed);
                    const int64_t start =
                        st.taskStartNs.load(std::memory_order_relaxed);
                    if (start < 0 || nowNs() - start < deadline_ns)
                        continue;
                    // Only cancel the task we actually timed: if the
                    // slot moved on to a new task meanwhile, skip it.
                    if (st.epoch.load(std::memory_order_relaxed) == epoch)
                        st.cancel.store(true, std::memory_order_relaxed);
                }
            }
        });
    }

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned id = 0; id < jobs; ++id)
        pool.emplace_back(worker, id);
    for (auto &t : pool)
        t.join();

    if (supervisor.joinable()) {
        {
            std::lock_guard<std::mutex> lock(sup_mutex);
            done = true;
        }
        sup_cv.notify_one();
        supervisor.join();
    }
    return results;
}

CompositeResult
ParallelEngine::runComposite(
    const std::vector<wkl::WorkloadProfile> &profiles)
{
    std::vector<WorkloadResult> results = runTasks(profiles);
    // The deterministic join: fold in profile order, never completion
    // order, through the exact merge path the serial runner uses.
    CompositeResult c;
    for (auto &r : results)
        c.add(std::move(r));
    return c;
}

std::vector<CompositeResult>
ParallelEngine::runReplicated(
    const std::vector<wkl::WorkloadProfile> &profiles,
    unsigned replications)
{
    std::vector<wkl::WorkloadProfile> tasks;
    tasks.reserve(size_t(replications) * profiles.size());
    for (unsigned r = 0; r < replications; ++r) {
        for (const auto &p : profiles) {
            wkl::WorkloadProfile t = p;
            t.seed = deriveSeed(p.seed, r);
            tasks.push_back(std::move(t));
        }
    }

    std::vector<WorkloadResult> results = runTasks(tasks);

    std::vector<CompositeResult> reps(replications);
    for (unsigned r = 0; r < replications; ++r)
        for (size_t w = 0; w < profiles.size(); ++w)
            reps[r].add(std::move(results[r * profiles.size() + w]));
    return reps;
}

RunningStat
cpiAcrossReplications(const std::vector<CompositeResult> &replications)
{
    RunningStat s;
    for (const CompositeResult &c : replications) {
        const uint64_t instr = c.instructions();
        if (instr == 0)
            continue;
        s.sample(static_cast<double>(c.histogram.totalCycles()) /
                 static_cast<double>(instr));
    }
    return s;
}

} // namespace upc780::sim
