/**
 * @file
 * Kernel execution and steady-state measurement. The runner builds the
 * kernel's machine with the paper's full instrumentation attached —
 * counter registry, UPC histogram board, event tracer — runs it to
 * HALT, and extracts one steady-state period by differencing two runs
 * at different loop counts (the delta cancels the cold-start prologue
 * and the halt tail exactly).
 */

#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "obs/counters.hh"
#include "ubench/ubench.hh"
#include "upc/monitor.hh"

namespace upc780::ubench
{

namespace
{

cpu::MachineConfig
configFor(const Kernel &k, const RunOverrides &ov)
{
    cpu::MachineConfig mc;
    mc.fpa = k.fpa;
    mc.mem.cache.enabled = k.cacheEnabled;
    mc.mem.writeBufferDepth = k.wbDepth;
    if (ov.sbiReadLatency >= 0)
        mc.mem.sbi.readLatency = uint32_t(ov.sbiReadLatency);
    if (ov.sbiWriteLatency >= 0)
        mc.mem.sbi.writeLatency = uint32_t(ov.sbiWriteLatency);
    mc.dispatch = ov.dispatch;
    return mc;
}

/** Load images, backdoor words, PRs and GPRs, then reset to the loop. */
void
loadKernel(cpu::Vax780 &m, const Kernel &k, uint32_t iters)
{
    for (const Kernel::Image &img : k.images) {
        arch::PAddr pa = img.base & 0x3FFFFFFF;
        for (size_t i = 0; i < img.bytes.size(); ++i)
            m.memsys().memory().writeByte(pa + uint32_t(i), img.bytes[i]);
    }
    for (auto [pa, v] : k.memWords)
        m.memsys().memory().write(pa, 4, v);
    for (auto [idx, v] : k.prWrites)
        m.ebox().writePr(idx, v);
    for (auto [rn, v] : k.gprWrites)
        m.ebox().gpr(rn) = v;
    m.ebox().gpr(k.loopReg) = iters;
    m.ebox().reset(k.entryPc, k.mapped);
}

uint64_t
cycleLimit(uint32_t iters)
{
    return 200000 + uint64_t(iters) * 2000;
}

Measurement
extract(cpu::Vax780 &m, const upc::UpcMonitor &mon)
{
    Measurement meas;
    meas.obs = m.counters().snapshot();
    meas.hist = mon.histogram();
    meas.machineCycles = m.cycles();
    meas.monitorCycles = mon.observedCycles();
    meas.instructions = m.ebox().instructions();
    return meas;
}

} // namespace

Measurement
runKernel(const Kernel &k, uint32_t iters, const RunOverrides &ov)
{
    cpu::Vax780 m(configFor(k, ov));
    loadKernel(m, k, iters);

    upc::UpcMonitor mon(m.counters());
    m.attachProbe(&mon);
    mon.start();
    m.counters().setEnabled(true);

    m.run(cycleLimit(iters));
    if (!m.ebox().halted())
        panic("ubench %s: did not halt in %llu cycles", k.name.c_str(),
              static_cast<unsigned long long>(cycleLimit(iters)));
    return extract(m, mon);
}

Measurement
runKernelCheckpointed(const Kernel &k, uint32_t iters, uint64_t checkpoint_at)
{
    const cpu::MachineConfig mc = configFor(k, {});
    std::vector<uint8_t> snap_machine, snap_monitor, snap_counters;
    {
        cpu::Vax780 m(mc);
        loadKernel(m, k, iters);
        upc::UpcMonitor mon(m.counters());
        m.attachProbe(&mon);
        mon.start();
        m.counters().setEnabled(true);
        while (m.cycles() < checkpoint_at && m.tick()) {
        }
        ByteWriter wm, wp, wc;
        m.serialize(wm);
        mon.serialize(wp);
        m.counters().serialize(wc);
        snap_machine = wm.data();
        snap_monitor = wp.data();
        snap_counters = wc.data();
    }

    // Everything from before the cut is discarded; only the snapshot
    // bytes cross into the second half.
    cpu::Vax780 m(mc);
    ByteReader rm(snap_machine);
    m.deserialize(rm);
    upc::UpcMonitor mon(m.counters());
    ByteReader rp(snap_monitor);
    mon.deserialize(rp);
    m.attachProbe(&mon);
    ByteReader rc(snap_counters);
    m.counters().deserialize(rc);

    m.run(cycleLimit(iters));
    if (!m.ebox().halted())
        panic("ubench %s: restored run did not halt", k.name.c_str());
    return extract(m, mon);
}

PerIteration
measuredPerPeriod(const Kernel &k, uint32_t period, const RunOverrides &ov)
{
    if (period == 0 || (k.n2 - k.n1) % period != 0)
        panic("ubench %s: period %u does not divide %u", k.name.c_str(),
              period, k.n2 - k.n1);
    const uint64_t q = (k.n2 - k.n1) / period;

    Measurement m1 = runKernel(k, k.n1, ov);
    Measurement m2 = runKernel(k, k.n2, ov);

    auto div = [&](uint64_t hi, uint64_t lo, const char *what) -> uint64_t {
        uint64_t d = hi - lo;
        if (hi < lo || d % q != 0)
            panic("ubench %s: %s delta %lld not %llu-periodic",
                  k.name.c_str(), what,
                  static_cast<long long>(hi - lo),
                  static_cast<unsigned long long>(q));
        return d / q;
    };

    PerIteration out;
    out.period = period;
    out.cycles = div(m2.machineCycles, m1.machineCycles, "cycle");
    for (size_t i = 0; i < obs::NumEvents; ++i)
        out.ev[i] = div(m2.obs.counters[i], m1.obs.counters[i],
                        std::string(obs::evName(obs::Ev(i))).c_str());
    for (uint32_t b = 0; b < upc::Histogram::NumBuckets; ++b) {
        uint64_t dc = div(m2.hist.count(b), m1.hist.count(b), "bucket count");
        uint64_t ds = div(m2.hist.stall(b), m1.hist.stall(b), "bucket stall");
        if (dc || ds)
            out.hist[b] = {dc, ds};
    }
    return out;
}

} // namespace upc780::ubench
