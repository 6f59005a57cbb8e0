#include "sim/run.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "ucode/controlstore.hh"
#include "ulint/verified.hh"
#include "workload/codegen.hh"

namespace upc780::sim
{

namespace
{

/** The hardware counters' running totals, gate ignored. */
HwCounters
snapshotHw(const obs::CounterRegistry &reg)
{
    HwCounters c;
    for (const HwField &f : HwFields)
        c.*f.member = reg.total(f.ev);
    return c;
}

HwCounters
delta(const HwCounters &a, const HwCounters &b)
{
    HwCounters d;
    for (const HwField &f : HwFields)
        d.*f.member = b.*f.member - a.*f.member;
    return d;
}

} // namespace

uint64_t
configHash(const ExperimentConfig &cfg, const wkl::WorkloadProfile &p)
{
    // Everything that shapes the run's trajectory, serialized into a
    // canonical byte stream and hashed. Deliberately absent:
    // cfg.fault.cycleInjections, cfg.checkpoint (cadence, crash knob,
    // retries), and cfg.cancel — none of them change what a restored
    // machine *is*, only what the harness does around it. Also absent:
    // cfg.machine.dispatch — every dispatch mode runs the one EBOX
    // cycle body (the dual-dispatch differential suite checks the
    // trajectories agree), so a snapshot taken under one resumes under
    // the other.
    ByteWriter w;

    cpu::writeCanonical(w, cfg.machine);
    // A custom image pointer cannot be hashed by value; record its
    // presence so a lint-test machine never resumes a stock snapshot.
    w.b(cfg.machine.image != nullptr);

    w.u64(cfg.os.timerPeriodCycles);
    w.u32(cfg.os.quantumTicks);
    w.u64(cfg.os.seed);

    wkl::writeCanonical(w, p);

    w.u64(cfg.instructionsPerWorkload);
    w.u64(cfg.warmupInstructions);
    w.b(cfg.excludeIdle);
    w.u64(cfg.maxCycles);

    w.b(cfg.obs.counters);
    w.u32(cfg.obs.traceDepth);
    w.u32(cfg.obs.traceMask);

    const fault::FaultConfig &f = cfg.fault;
    w.u64(f.seed);
    w.f64(f.memEccSingleRate);
    w.f64(f.memEccDoubleRate);
    w.f64(f.sbiTimeoutRate);
    w.f64(f.tbParityRate);
    w.f64(f.csParityRate);
    w.u32(f.sbiTimeoutPenaltyCycles);
    w.u32(static_cast<uint32_t>(f.schedule.size()));
    for (const fault::FaultSchedule &s : f.schedule) {
        w.u8(static_cast<uint8_t>(s.kind));
        w.u64(s.access);
    }

    w.u64(cfg.watchdogIntervalCycles);
    w.b(cfg.auditCycleAccounting);
    w.b(cfg.lintMicrocode);
    w.b(cfg.auditAttribution);

    return fnv1a(w.data());
}

void
auditAttribution(const ucode::MicrocodeImage &img,
                 const upc::Histogram &hist,
                 const obs::Snapshot &counters, bool countersEnabled,
                 const std::string &workload)
{
    using ulint::CycleClass;
    // A shipped image's CFG and effects map are built once per
    // process; any other image is analysed afresh.
    const ulint::VerifiedImage *shipped = ulint::shippedVerified(img);
    std::optional<ulint::MicroCfg> ownCfg;
    std::optional<ulint::EffectMap> ownFx;
    if (!shipped) {
        ownCfg.emplace(img);
        ownFx.emplace(img);
    }
    const ulint::MicroCfg &cfg = shipped ? shipped->cfg : *ownCfg;
    const ulint::EffectMap &fx = shipped ? shipped->effects : *ownFx;

    // ---- histogram membership: every bucket holding cycles must be
    // an allocated, reachable, rowed word with exactly one cycle
    // class, and stall cycles may only accrue where the word has a
    // memory function to stall on.
    std::array<uint64_t, size_t(CycleClass::NumClasses)> classCount{};
    uint64_t decodeCount = 0;
    for (uint32_t a = 0; a < upc::Histogram::NumBuckets; ++a) {
        const uint64_t c = hist.count(ucode::UAddr(a));
        const uint64_t s = hist.stall(ucode::UAddr(a));
        if (c == 0 && s == 0)
            continue;
        if (a == 0 || a >= img.allocated) {
            sim_throw(AuditError,
                      "workload '%s': histogram holds %llu cycles at "
                      "0x%04x, outside the allocated control store",
                      workload.c_str(),
                      static_cast<unsigned long long>(c + s), a);
        }
        const ucode::UAddr ua = ucode::UAddr(a);
        if (!cfg.reachable(ua)) {
            sim_throw(AuditError,
                      "workload '%s': histogram holds %llu cycles at "
                      "0x%04x, which is statically unreachable from "
                      "uDECODE", workload.c_str(),
                      static_cast<unsigned long long>(c + s), a);
        }
        const ulint::WordEffects &w = fx.at(ua);
        int ncand = 0;
        for (size_t cc = 0; cc < size_t(CycleClass::NumClasses); ++cc)
            if (w.candidates & ulint::classBit(CycleClass(cc)))
                ++ncand;
        if (img.rowOf(ua) == ucode::Row::None || ncand != 1 ||
            !(ulint::classBit(w.cls) &
              ulint::EffectMap::allowedClasses(img.rowOf(ua)))) {
            sim_throw(AuditError,
                      "workload '%s': histogram attributes %llu cycles "
                      "to 0x%04x, whose row/class mapping is not "
                      "well-formed (row %s, class %s)", workload.c_str(),
                      static_cast<unsigned long long>(c + s), a,
                      std::string(ucode::rowName(img.rowOf(ua))).c_str(),
                      std::string(
                          ulint::cycleClassName(w.cls)).c_str());
        }
        if (s != 0 && !w.canStall) {
            sim_throw(AuditError,
                      "workload '%s': histogram holds %llu stall "
                      "cycles at 0x%04x, a word with no memory "
                      "function to stall on", workload.c_str(),
                      static_cast<unsigned long long>(s), a);
        }
        classCount[size_t(w.cls)] += c;
        if (w.counters & ulint::counterBit(obs::Ev::IboxDecodes))
            decodeCount += c;
    }

    // ---- counter equalities: each obs total must equal the count the
    // static matrix predicts from the histogram. The dispatch-entry
    // counters use landmark identities (their masks over-approximate).
    if (!countersEnabled)
        return;
    auto cls = [&](CycleClass c) { return classCount[size_t(c)]; };
    struct Check
    {
        obs::Ev ev;
        uint64_t expect;
    };
    const Check checks[] = {
        {obs::Ev::EboxUops, cls(CycleClass::Compute) +
                                cls(CycleClass::Read) +
                                cls(CycleClass::Write)},
        {obs::Ev::IboxDecodes, decodeCount},
        {obs::Ev::EboxMemReadCycles, cls(CycleClass::Read)},
        {obs::Ev::EboxMemWriteCycles, cls(CycleClass::Write)},
        {obs::Ev::EboxIbStallCycles, cls(CycleClass::IbStall)},
        {obs::Ev::EboxAborts, cls(CycleClass::Abort)},
        {obs::Ev::EboxHaltCycles, cls(CycleClass::Halt)},
        {obs::Ev::EboxStallCycles, hist.totalStalls()},
        {obs::Ev::TbMissServicesD, hist.count(img.marks.tbMissD)},
        {obs::Ev::TbMissServicesI, hist.count(img.marks.tbMissI)},
        {obs::Ev::IrqDispatches, hist.count(img.marks.intDispatch)},
        {obs::Ev::MachineChecks, hist.count(img.marks.machineCheck)},
    };
    for (const Check &k : checks) {
        if (counters.value(k.ev) != k.expect) {
            sim_throw(AuditError,
                      "workload '%s': counter %s is %llu, but the "
                      "static attribution matrix allows exactly %llu "
                      "from this histogram", workload.c_str(),
                      std::string(obs::evName(k.ev)).c_str(),
                      static_cast<unsigned long long>(
                          counters.value(k.ev)),
                      static_cast<unsigned long long>(k.expect));
        }
    }
}

WorkloadRun::WorkloadRun(const ExperimentConfig &cfg,
                         const wkl::WorkloadProfile &profile,
                         uint32_t attempt)
    : cfg_(cfg), profile_(profile), attempt_(attempt),
      configHash_(sim::configHash(cfg, profile)),
      taskId_(snap::taskId(profile.name, profile.seed))
{
    // The body below is the historical runWorkload preamble, member
    // for member, in the same order — construction must stay
    // deterministic and consume no randomness beyond what the seeds
    // drive, or a restored run would diverge from the original.
    if (cfg_.obs.traceDepth > 0) {
        tracer_ = std::make_unique<obs::EventTracer>(cfg_.obs.traceDepth,
                                                     cfg_.obs.traceMask);
    }
    obs::ObsScope scope(&registry_, tracer_.get());
    obs::ScopedTimer build_timer(host_, obs::Phase::Build);

    machine_ = std::make_unique<cpu::Vax780>(cfg_.machine);
    vms_ = std::make_unique<os::VmsLite>(*machine_, cfg_.os);

    if (tracer_ &&
        (cfg_.obs.traceMask & static_cast<uint32_t>(obs::Cat::Instr))) {
        instrEvents_ = std::make_unique<cpu::InstrTracer>(
            *machine_, 1, /*disassemble=*/false);
        instrEvents_->setEventSink(tracer_.get());
        machine_->attachProbe(instrEvents_.get());
    }

    lintReport_ = ulint::lint(machine_->microcode());
    if (cfg_.lintMicrocode && !lintReport_.clean()) {
        sim_throw(LintError,
                  "workload '%s': refusing to measure on a defective "
                  "microprogram; ulint reports:\n%s",
                  profile_.name.c_str(), lintReport_.toText().c_str());
    }

    if (cfg_.fault.any()) {
        injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault);
        machine_->attachFaultInjector(injector_.get());
    }

    // Each program is generated at its process's first dispatch, not
    // here: a short run picks only a few of the users.
    const os::ProcessShape shape = wkl::programShape(profile_);
    for (uint32_t u = 0; u < profile_.users; ++u) {
        vms_->addProcess(shape, [this, u] {
            return wkl::generateProgram(profile_, u);
        });
    }

    // The monitor and the watchdog are not attached: run() fuses them
    // into the machine's run loop (RunProbes).
    watchdog_ = std::make_unique<Watchdog>(machine_->microcode(),
                                           cfg_.watchdogIntervalCycles);

    vms_->setSwitchHook([this](int, bool is_idle) {
        inIdle_ = is_idle;
        if (!measuring_)
            return;
        if (cfg_.excludeIdle && is_idle) {
            monitor_.stop();
            registry_.setEnabled(false);
        } else {
            monitor_.start();
            registry_.setEnabled(true);
        }
    });

    vms_->boot();

    decodeAddr_ = machine_->microcode().marks.decode;
    maxCycles_ = cfg_.maxCycles
                     ? cfg_.maxCycles
                     : 80 * (cfg_.instructionsPerWorkload +
                             cfg_.warmupInstructions) +
                           10000000;

    atCycles_ = cfg_.checkpoint.atCycles;
    std::sort(atCycles_.begin(), atCycles_.end());
    periodicNext_ = cfg_.checkpoint.everyCycles;
    injections_ = cfg_.fault.cycleInjections;
    std::stable_sort(injections_.begin(), injections_.end(),
                     [](const fault::CycleInjection &a,
                        const fault::CycleInjection &b) {
                         return a.cycle < b.cycle;
                     });
}

void
WorkloadRun::checkStuck(const char *where)
{
    if (cfg_.cancel && cfg_.cancel->load(std::memory_order_relaxed)) {
        sim_throw(WatchdogError,
                  "workload '%s' cancelled during %s (engine "
                  "deadline exceeded)\n%s",
                  profile_.name.c_str(), where,
                  watchdog_->diagnostic().c_str());
    }
    if (watchdog_->expired()) {
        sim_throw(WatchdogError, "workload '%s' stuck during %s\n%s",
                  profile_.name.c_str(), where,
                  watchdog_->diagnostic().c_str());
    }
    if (machine_->cycles() >= livenessCheckAt_) {
        constexpr uint64_t LivenessStride = 8192;
        livenessCheckAt_ = machine_->cycles() + LivenessStride;
        if (vms_->liveUserProcesses() == 0) {
            sim_throw(GuestError,
                      "workload '%s': all user processes terminated "
                      "by uncorrectable faults during %s",
                      profile_.name.c_str(), where);
        }
    }
}

void
WorkloadRun::loopTop(const char *where)
{
    const uint64_t now = machine_->cycles();

    // 1. Checkpoint triggers. Saving is pure observation — it touches
    //    no machine or RNG state — so a run with checkpointing on is
    //    bit-identical to one without (a snap-labeled test pins this).
    if (cfg_.checkpoint.enabled()) {
        bool due = false;
        if (cfg_.checkpoint.everyCycles && now >= periodicNext_)
            due = true;
        if (atIdx_ < atCycles_.size() && now >= atCycles_[atIdx_])
            due = true;
        if (due)
            saveCheckpoint();
    }

    // 2. Simulated crash (chaos knob): attempt i dies when it reaches
    //    simulatedCrashCycles[i]; attempts past the list run free.
    if (attempt_ < cfg_.checkpoint.simulatedCrashCycles.size() &&
        now >= cfg_.checkpoint.simulatedCrashCycles[attempt_]) {
        sim_throw(WatchdogError,
                  "workload '%s': simulated crash at cycle %llu "
                  "(attempt %u, during %s)\n%s",
                  profile_.name.c_str(),
                  static_cast<unsigned long long>(now), attempt_, where,
                  watchdog_->diagnostic().c_str());
    }

    // 3. Cycle-scheduled machine checks: delivered here, after the
    //    checkpoint trigger, so a checkpoint at the injection cycle
    //    captures the pre-fault machine — the state a replay sweep
    //    rewinds to.
    while (injectIdx_ < injections_.size() &&
           now >= injections_[injectIdx_].cycle) {
        machine_->ebox().raiseMachineCheck(
            fault::mcheckCode(injections_[injectIdx_].kind));
        ++injectIdx_;
    }
}

uint64_t
WorkloadRun::batchBudget() const
{
    // 4096 cycles ≈ the liveness stride: long enough to amortize the
    // batch plumbing, short enough that cancellation and the watchdog
    // stay responsive. Batches end on a fixed grid of its multiples,
    // not 4096 cycles after the last loopTop, so the cycle a wedge is
    // caught at does not depend on when instructions last retired.
    constexpr uint64_t MaxBatch = 4096;
    const uint64_t now = machine_->cycles();
    uint64_t next = (now / MaxBatch + 1) * MaxBatch;
    auto cap = [&](uint64_t c) {
        if (c > now && c < next)
            next = c;
    };
    // The cycle-limit checks in run() fire at the first cycle past the
    // limit.
    cap((phase_ == Phase::Warmup ? 0 : cyclesAtStart_) + maxCycles_ + 1);
    if (cfg_.checkpoint.enabled()) {
        if (cfg_.checkpoint.everyCycles)
            cap(periodicNext_);
        if (atIdx_ < atCycles_.size())
            cap(atCycles_[atIdx_]);
    }
    if (attempt_ < cfg_.checkpoint.simulatedCrashCycles.size())
        cap(cfg_.checkpoint.simulatedCrashCycles[attempt_]);
    if (injectIdx_ < injections_.size())
        cap(injections_[injectIdx_].cycle);
    cap(livenessCheckAt_);
    return next - now;
}

uint64_t
WorkloadRun::retireBudget(uint64_t remaining) const
{
    // A liveness probe is overdue only before a run's first check. The
    // per-instruction loop made that check at the first retire, and
    // the probe schedule it starts is checkpointed state, so the first
    // batch stops there too.
    return machine_->cycles() >= livenessCheckAt_ ? 1 : remaining;
}

void
WorkloadRun::saveCheckpoint()
{
    const uint64_t now = machine_->cycles();

    // Advance the schedule past this trigger first, so one trigger
    // produces exactly one file. (Restore recomputes the schedule from
    // the clock, so none of this is serialized.)
    if (cfg_.checkpoint.everyCycles)
        while (periodicNext_ <= now)
            periodicNext_ += cfg_.checkpoint.everyCycles;
    while (atIdx_ < atCycles_.size() && atCycles_[atIdx_] <= now)
        ++atIdx_;

    snap::SnapshotMeta meta;
    meta.kind = snap::SnapshotKind::Checkpoint;
    meta.workload = profile_.name;
    meta.configHash = configHash_;
    meta.cycle = now;
    meta.instructions = machine_->ebox().instructions();
    meta.attempt = attempt_;
    snap::SnapshotWriter sw(meta);

    {
        ByteWriter w;
        machine_->serialize(w);
        sw.add("machine", std::move(w));
    }
    {
        ByteWriter w;
        vms_->serialize(w);
        sw.add("kernel", std::move(w));
    }
    {
        ByteWriter w;
        monitor_.serialize(w);
        sw.add("monitor", std::move(w));
    }
    {
        ByteWriter w;
        registry_.serialize(w);
        sw.add("counters", std::move(w));
    }
    if (tracer_) {
        ByteWriter w;
        tracer_->serialize(w);
        sw.add("tracer", std::move(w));
    }
    if (instrEvents_) {
        ByteWriter w;
        instrEvents_->serialize(w);
        sw.add("instr", std::move(w));
    }
    if (injector_) {
        ByteWriter w;
        injector_->serialize(w);
        sw.add("injector", std::move(w));
    }
    {
        ByteWriter w;
        watchdog_->serialize(w);
        sw.add("watchdog", std::move(w));
    }
    {
        ByteWriter w;
        walkRunner(*this, w);
        sw.add("runner", std::move(w));
    }

    sw.writeFile(
        snap::checkpointPath(cfg_.checkpoint.dir, taskId_, now));
    lastCheckpoint_ = now;
    watchdog_->noteCheckpoint(now);
}

template <class Self, class Ar>
void
WorkloadRun::walkRunner(Self &s, Ar &ar)
{
    ar.enum8(s.phase_, Phase::Measure, "runner phase");
    ar.b(s.measuring_);
    ar.b(s.inIdle_);
    for (const HwField &f : HwFields)
        ar.u64(s.before_.*f.member);
    ar.u64(s.cyclesAtStart_);
    ar.u64(s.livenessCheckAt_);
    // Host wall-clock, for completeness only: nondeterministic, never
    // part of an equality check.
    for (auto &ns : s.host_.ns)
        ar.u64(ns);
}

void
WorkloadRun::restore(const std::string &path)
{
    snap::SnapshotReader snap = snap::SnapshotReader::fromFile(path);
    const snap::SnapshotMeta &m = snap.meta();
    if (m.kind != snap::SnapshotKind::Checkpoint)
        sim_throw(SnapshotError, "'%s' is not a checkpoint snapshot",
                  path.c_str());
    if (m.workload != profile_.name)
        sim_throw(SnapshotError,
                  "checkpoint '%s' belongs to workload '%s', not '%s'",
                  path.c_str(), m.workload.c_str(),
                  profile_.name.c_str());
    if (m.configHash != configHash_)
        sim_throw(SnapshotError,
                  "checkpoint '%s' was taken under a different "
                  "configuration (hash %016llx, this run %016llx); "
                  "resuming it would not be the same experiment",
                  path.c_str(),
                  static_cast<unsigned long long>(m.configHash),
                  static_cast<unsigned long long>(configHash_));

    // Optional sections must mirror this run's optional instruments.
    // The config hash already covers the knobs that create them, so a
    // mismatch here means a malformed file, not a config difference.
    auto expect_section = [&](const char *name, bool want) {
        if (want && !snap.has(name))
            sim_throw(SnapshotError,
                      "checkpoint '%s' lacks the '%s' section this run "
                      "needs", path.c_str(), name);
        if (!want && snap.has(name))
            sim_throw(SnapshotError,
                      "checkpoint '%s' carries a '%s' section this run "
                      "has no instrument for", path.c_str(), name);
    };
    expect_section("tracer", tracer_ != nullptr);
    expect_section("instr", instrEvents_ != nullptr);
    expect_section("injector", injector_ != nullptr);

    auto load = [&](const char *name, auto &target) {
        ByteReader r = snap.open(name);
        target.deserialize(r);
        r.expectEnd(name);
    };
    load("machine", *machine_);
    load("kernel", *vms_);
    load("monitor", monitor_);
    load("counters", registry_);
    if (tracer_)
        load("tracer", *tracer_);
    if (instrEvents_)
        load("instr", *instrEvents_);
    if (injector_)
        load("injector", *injector_);
    load("watchdog", *watchdog_);
    {
        ByteReader r = snap.open("runner");
        walkRunner(*this, r);
        r.expectEnd("runner");
    }

    // Re-derive the checkpoint/injection schedules against the
    // restored clock: strictly past events are skipped, events at or
    // after the restore point fire exactly as the uninterrupted run
    // fired them (the checkpoint was written before same-cycle
    // delivery, see loopTop).
    const uint64_t now = machine_->cycles();
    if (cfg_.checkpoint.everyCycles) {
        periodicNext_ =
            (now / cfg_.checkpoint.everyCycles + 1) *
            cfg_.checkpoint.everyCycles;
    }
    atIdx_ = 0;
    while (atIdx_ < atCycles_.size() && atCycles_[atIdx_] <= now)
        ++atIdx_;
    injectIdx_ = 0;
    while (injectIdx_ < injections_.size() &&
           injections_[injectIdx_].cycle < now)
        ++injectIdx_;

    resumedFrom_ = m.cycle;
    lastCheckpoint_ = m.cycle;
    watchdog_->noteCheckpoint(m.cycle);
}

void
WorkloadRun::beginMeasurement()
{
    phase_ = Phase::Measure;
    measuring_ = true;
    if (!(cfg_.excludeIdle && inIdle_)) {
        monitor_.start();
        registry_.setEnabled(true);
    }
    obs::event(obs::Cat::Sim, obs::Code::MeasureStart,
               machine_->cycles());
    before_ = snapshotHw(registry_);
    cyclesAtStart_ = machine_->cycles();
}

WorkloadResult
WorkloadRun::run()
{
    obs::ObsScope scope(&registry_, tracer_.get());
    RunProbes probes{monitor_, *watchdog_};
    // Both loops advance the machine through runBatch with the monitor
    // and watchdog fused in. Each batch stops at the retire that could
    // first end its loop: the warm-up count moves by one per retire,
    // and the decode bucket by at most one (none while the monitor is
    // gated off), so neither loop can end before `remaining` retires.
    // Every cycle-scheduled trigger is a batch boundary (batchBudget),
    // and pads and stall windows batch inside the machine — so the
    // trajectory is bit-identical to the historical
    // one-tick-per-iteration loop while the harness runs a few times
    // per 4096 cycles instead of once per cycle.
    if (phase_ == Phase::Warmup) {
        obs::ScopedTimer t(host_, obs::Phase::Warmup);
        while (machine_->ebox().instructions() <
               cfg_.warmupInstructions) {
            loopTop("warm-up");
            machine_->runBatch(probes, batchBudget(),
                     retireBudget(cfg_.warmupInstructions -
                                  machine_->ebox().instructions()));
            if (machine_->ebox().halted())
                sim_throw(GuestError, "machine halted during warm-up");
            if (machine_->cycles() > maxCycles_)
                sim_throw(WatchdogError,
                          "machine hung during warm-up\n%s",
                          watchdog_->diagnostic().c_str());
            checkStuck("warm-up");
        }
        beginMeasurement();
    }

    {
        obs::ScopedTimer t(host_, obs::Phase::Measure);
        while (monitor_.histogram().count(decodeAddr_) <
               cfg_.instructionsPerWorkload) {
            loopTop("measurement");
            machine_->runBatch(probes, batchBudget(),
                     retireBudget(cfg_.instructionsPerWorkload -
                                  monitor_.histogram().count(decodeAddr_)));
            if (machine_->ebox().halted())
                sim_throw(GuestError,
                          "machine halted during measurement");
            if (machine_->cycles() - cyclesAtStart_ > maxCycles_) {
                sim_throw(WatchdogError,
                          "measurement did not reach its instruction "
                          "budget (%llu cycles elapsed)\n%s",
                          static_cast<unsigned long long>(maxCycles_),
                          watchdog_->diagnostic().c_str());
            }
            checkStuck("measurement");
        }
    }
    monitor_.stop();
    registry_.setEnabled(false);
    obs::event(obs::Cat::Sim, obs::Code::MeasureStop,
               machine_->cycles());

    WorkloadResult r;
    r.name = profile_.name;
    r.histogram = monitor_.histogram();
    r.cycles = monitor_.observedCycles();
    r.hw = delta(before_, snapshotHw(registry_));
    r.osStats = vms_->stats();
    r.timerInterrupts = vms_->timer().interrupts();
    r.terminalInterrupts = vms_->terminal().interrupts();
    if (injector_)
        r.faultStats = injector_->stats();
    r.errorLog = vms_->errorLog();
    if (cfg_.obs.counters)
        r.obs = registry_.snapshot();
    r.host = host_;
    if (tracer_)
        r.trace = tracer_->events();
    r.attempts = attempt_ + 1;
    r.resumedFromCycle = resumedFrom_;

    if (cfg_.auditCycleAccounting &&
        r.histogram.totalCycles() != r.cycles) {
        sim_throw(AuditError,
                  "cycle accounting mismatch in workload '%s': "
                  "histogram holds %llu cycles, monitor observed %llu",
                  profile_.name.c_str(),
                  static_cast<unsigned long long>(
                      r.histogram.totalCycles()),
                  static_cast<unsigned long long>(r.cycles));
    }

    if (!lintReport_.clean()) {
        uint64_t touched_cycles = 0;
        std::string rules;
        for (ucode::UAddr a : ulint::flaggedAddresses(lintReport_)) {
            uint64_t n = r.histogram.count(a) + r.histogram.stall(a);
            if (n == 0)
                continue;
            touched_cycles += n;
            for (const ulint::Finding &f : lintReport_.findings) {
                if (f.addr == a &&
                    rules.find(f.rule) == std::string::npos) {
                    if (!rules.empty())
                        rules += ", ";
                    rules += f.rule;
                }
            }
        }
        if (touched_cycles) {
            sim_throw(LintError,
                      "workload '%s': histogram attributes %llu cycles "
                      "to micro-addresses flagged by ulint (%s); the "
                      "derived tables would be silently corrupt",
                      profile_.name.c_str(),
                      static_cast<unsigned long long>(touched_cycles),
                      rules.c_str());
        }
    }

    if (cfg_.auditAttribution && lintReport_.clean()) {
        auditAttribution(machine_->microcode(), r.histogram, r.obs,
                         cfg_.obs.counters, profile_.name);
    }
    return r;
}

// ----- result persistence ----------------------------------------------

void
saveResultFile(const std::string &path, const WorkloadResult &r,
               uint64_t configHash)
{
    snap::SnapshotMeta meta;
    meta.kind = snap::SnapshotKind::Result;
    meta.workload = r.name;
    meta.configHash = configHash;
    meta.cycle = r.cycles;
    meta.instructions =
        r.histogram.count(ucode::microcodeImage().marks.decode);
    meta.attempt = r.attempts ? r.attempts - 1 : 0;
    snap::SnapshotWriter sw(meta);
    ByteWriter w;
    r.serialize(w);
    sw.add("result", std::move(w));
    sw.writeFile(path);
}

WorkloadResult
loadResultFile(const std::string &path, uint64_t expectHash)
{
    snap::SnapshotReader snap = snap::SnapshotReader::fromFile(path);
    if (snap.meta().kind != snap::SnapshotKind::Result)
        sim_throw(SnapshotError, "'%s' is not a result snapshot",
                  path.c_str());
    if (snap.meta().configHash != expectHash)
        sim_throw(SnapshotError,
                  "result '%s' was produced under a different "
                  "configuration (hash %016llx, this run %016llx)",
                  path.c_str(),
                  static_cast<unsigned long long>(
                      snap.meta().configHash),
                  static_cast<unsigned long long>(expectHash));
    WorkloadResult r;
    ByteReader br = snap.open("result");
    r.deserialize(br);
    br.expectEnd("result");
    return r;
}

// ----- retry / resume orchestration ------------------------------------

WorkloadResult
runWorkloadRecoverable(const ExperimentConfig &cfg,
                       const wkl::WorkloadProfile &profile)
{
    const snap::CheckpointPolicy &p = cfg.checkpoint;
    const std::string tid = snap::taskId(profile.name, profile.seed);

    // A damaged file, or one another format version wrote, must not
    // fail the task on every resume: the run is deterministic, so
    // running without it gives the answer the file would have.
    auto unreadable = [&](const std::string &path, const SnapshotError &e,
                          const char *instead) {
        warn("workload '%s': ignoring unreadable '%s', %s: %s",
             profile.name.c_str(), path.c_str(), instead, e.what());
        snap::appendManifest(
            p.dir, tid + ": unreadable " +
                       std::filesystem::path(path).filename().string() +
                       "; " + instead);
    };

    if (p.enabled() && p.resume) {
        const std::string done = snap::resultPath(p.dir, tid);
        std::error_code ec;
        if (std::filesystem::exists(done, ec)) {
            try {
                return loadResultFile(done, sim::configHash(cfg, profile));
            } catch (const SnapshotError &e) {
                unreadable(done, e, "running the workload");
            }
        }
    }

    uint32_t attempt = 0;
    for (;;) {
        try {
            std::optional<WorkloadRun> run(std::in_place, cfg, profile,
                                           attempt);
            std::string ckpt;
            if (p.enabled() && (attempt > 0 || p.resume))
                ckpt = snap::latestCheckpoint(p.dir, tid);
            if (!ckpt.empty()) {
                try {
                    run->restore(ckpt);
                } catch (const SnapshotError &e) {
                    // restore() may have overwritten part of the run.
                    unreadable(ckpt, e, "running from the start");
                    run.emplace(cfg, profile, attempt);
                }
            }
            WorkloadResult r = run->run();
            if (p.enabled()) {
                saveResultFile(snap::resultPath(p.dir, tid), r,
                               run->configHash());
                snap::appendManifest(
                    p.dir, tid + ": complete (attempts " +
                               std::to_string(r.attempts) + ")");
            }
            return r;
        } catch (const WatchdogError &e) {
            // Only watchdog trips retry: they are the nondeterministic
            // failure class (wall-clock cancellation, livelock, the
            // chaos knob). Deterministic SimErrors would fail the same
            // way again and propagate immediately.
            if (!p.enabled() || attempt >= p.maxRetries) {
                if (p.enabled())
                    snap::appendManifest(
                        p.dir, tid + ": failed after " +
                                   std::to_string(attempt + 1) +
                                   " attempt(s)");
                throw;
            }
            warn("workload '%s' attempt %u tripped the watchdog; "
                 "retrying from the newest checkpoint: %s",
                 profile.name.c_str(), attempt, e.what());
            snap::appendManifest(p.dir,
                                 tid + ": attempt " +
                                     std::to_string(attempt) +
                                     " tripped the watchdog; retrying");
            if (p.retryBackoffMs) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    static_cast<uint64_t>(p.retryBackoffMs) << attempt));
            }
            ++attempt;
        }
    }
}

} // namespace upc780::sim
