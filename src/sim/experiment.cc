#include "sim/experiment.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "sim/run.hh"
#include "ucode/controlstore.hh"

namespace upc780::sim
{

void
HwCounters::accumulate(const HwCounters &o)
{
    for (const HwField &f : HwFields)
        this->*f.member += o.*f.member;
}

void
CompositeResult::add(WorkloadResult r)
{
    if (r.ok) {
        histogram.merge(r.histogram);
        hw.accumulate(r.hw);
        osStats.accumulate(r.osStats);
        faultStats.accumulate(r.faultStats);
        obs.accumulate(r.obs);
        host.accumulate(r.host);
        timerInterrupts += r.timerInterrupts;
        terminalInterrupts += r.terminalInterrupts;
    }
    workloads.push_back(std::move(r));
}

uint64_t
CompositeResult::instructions() const
{
    return histogram.count(ucode::microcodeImage().marks.decode);
}

bool
CompositeResult::allOk() const
{
    for (const WorkloadResult &w : workloads)
        if (!w.ok)
            return false;
    return true;
}

template <class Self, class Ar>
void
WorkloadResult::walk(Self &s, Ar &ar)
{
    ar.str(s.name, 1 << 10);
    ar.nested(s.histogram);
    ar.u64(s.cycles);
    for (const HwField &f : HwFields)
        ar.u64(s.hw.*f.member);
    os::OsStats::walk(s.osStats, ar);
    ar.u64(s.timerInterrupts);
    ar.u64(s.terminalInterrupts);
    for (auto &v : s.faultStats.injected)
        ar.u64(v);
    for (auto &v : s.obs.counters)
        ar.u64(v);
    for (auto &ns : s.host.ns)
        ar.u64(ns);
    ar.vec64(s.trace, 1 << 24, [&](auto &e) { obs::TraceEvent::walk(e, ar); });
    ar.vec64(s.errorLog, 1 << 20,
             [&](auto &e) { os::ErrorLogEntry::walk(e, ar); });
    ar.b(s.ok);
    ar.str(s.error, 1 << 16);
    ar.u32(s.attempts);
    ar.u64(s.resumedFromCycle);
}

void
WorkloadResult::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
WorkloadResult::deserialize(ByteReader &r)
{
    walk(*this, r);
}

WorkloadResult
ExperimentRunner::runWorkload(const wkl::WorkloadProfile &profile)
{
    // One plain attempt, checkpointing per policy but no retries: the
    // historical semantics. Retry/resume orchestration lives in
    // runWorkloadRecoverable (sim/run.hh), which runComposite uses.
    return WorkloadRun(cfg_, profile).run();
}

CompositeResult
ExperimentRunner::runComposite(
    const std::vector<wkl::WorkloadProfile> &profiles)
{
    CompositeResult c;
    for (const auto &p : profiles) {
        WorkloadResult r;
        try {
            r = runWorkloadRecoverable(cfg_, p);
        } catch (const SimError &e) {
            // Partial results: record the failure and keep going, as
            // an overnight measurement campaign must.
            warn("workload '%s' failed: %s", p.name.c_str(), e.what());
            r.name = p.name;
            r.ok = false;
            r.error = e.what();
        }
        c.add(std::move(r));
    }
    return c;
}

} // namespace upc780::sim
