/**
 * @file
 * Property tests for the structured event tracer: ring-buffer
 * wraparound accounting, category masking, Chrome-trace export, and —
 * under the parallel experiment engine — that merging per-worker
 * streams preserves global event-count totals and per-category
 * timestamp monotonicity. Also the counter registry's two views: the
 * ungated totals and the gated window.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "common/json.hh"
#include "common/random.hh"
#include "common/serial.hh"
#include "cpu/vax780.hh"
#include "obs/hostprof.hh"
#include "obs/trace.hh"
#include "os/kernel.hh"
#include "sim/engine.hh"
#include "workload/codegen.hh"
#include "workload/profile.hh"

using namespace upc780;
using obs::Cat;
using obs::Code;
using obs::EventTracer;
using obs::TraceEvent;

TEST(EventTracer, NamesAreStableAndTotal)
{
    // Every enumerator renders a real name; out-of-range values fall
    // back to "?" instead of reading past the switch. (upctrace and
    // the JSON exporter print these unconditionally.)
    for (uint32_t bit = 1; bit <= obs::AllCats; bit <<= 1)
        EXPECT_NE(obs::catName(static_cast<Cat>(bit)), "?");
    EXPECT_EQ(obs::catName(static_cast<Cat>(1u << 30)), "?");

    for (uint16_t c = 0;
         c <= static_cast<uint16_t>(Code::MeasureStop); ++c)
        EXPECT_NE(obs::codeName(static_cast<Code>(c)), "?");
    EXPECT_EQ(obs::codeName(static_cast<Code>(0xffff)), "?");

    for (size_t e = 0; e < obs::NumEvents; ++e)
        EXPECT_NE(obs::evName(static_cast<obs::Ev>(e)), "?");
    EXPECT_EQ(obs::evName(obs::Ev::NumEvents), "?");

    for (size_t p = 0; p < obs::NumPhases; ++p)
        EXPECT_NE(obs::phaseName(static_cast<obs::Phase>(p)), "?");
    EXPECT_EQ(obs::phaseName(obs::Phase::NumPhases), "?");
}

TEST(EventTracer, CounterTableListsNonZeroRows)
{
    obs::CounterRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::Ev::EboxUops, 42);
    std::string table = obs::writeCounterTable(reg.snapshot());
    EXPECT_NE(table.find("ebox.uops"), std::string::npos);
    EXPECT_NE(table.find("42"), std::string::npos);
    EXPECT_EQ(table.find("tb.d_hits"), std::string::npos);
}

TEST(EventTracer, EmitCycleClassifiesByPriority)
{
    cpu::Vax780 machine;
    obs::CounterRegistry &reg = machine.counters();
    reg.setEnabled(true);

    obs::CycleEvents ev;
    ev.halt = true;
    reg.emitCycle(ev, /*stalled=*/true);  // stall outranks halt
    EXPECT_EQ(reg.value(obs::Ev::EboxStallCycles), 1u);
    EXPECT_EQ(reg.value(obs::Ev::EboxHaltCycles), 0u);

    reg.emitCycle(ev, false);
    EXPECT_EQ(reg.value(obs::Ev::EboxHaltCycles), 1u);

    ev = obs::CycleEvents{};
    ev.decode = true;
    ev.mcheck = true;
    reg.emitCycle(ev, false);
    EXPECT_EQ(reg.value(obs::Ev::EboxUops), 1u);
    EXPECT_EQ(reg.value(obs::Ev::IboxDecodes), 1u);
    EXPECT_EQ(reg.value(obs::Ev::MachineChecks), 1u);

    // A closed gate freezes the window, matching a stopped monitor;
    // the total keeps counting.
    reg.setEnabled(false);
    reg.emitCycle(ev, false);
    EXPECT_EQ(reg.value(obs::Ev::EboxUops), 1u);
    EXPECT_EQ(reg.total(obs::Ev::EboxUops), 2u);
}

TEST(CounterRegistry, ClosedGateMovesTotalsNotWindow)
{
    obs::CounterRegistry reg;
    reg.add(obs::Ev::CacheDReads, 5);  // before the window opens
    EXPECT_EQ(reg.snapshot(), obs::Snapshot{});

    reg.setEnabled(true);
    reg.add(obs::Ev::CacheDReads, 3);
    reg.setEnabled(false);
    const obs::Snapshot window = reg.snapshot();
    EXPECT_EQ(window.value(obs::Ev::CacheDReads), 3u);

    // The Null process runs with the gate closed: the hardware view
    // (totals) sees it, the window does not.
    reg.add(obs::Ev::CacheDReads, 7);
    reg.bump(obs::Ev::IbFills);
    EXPECT_EQ(reg.snapshot(), window);
    EXPECT_EQ(reg.total(obs::Ev::CacheDReads), 15u);
    EXPECT_EQ(reg.total(obs::Ev::IbFills), 1u);

    // A second open interval adds to the first.
    reg.setEnabled(true);
    reg.bump(obs::Ev::CacheDReads);
    EXPECT_EQ(reg.value(obs::Ev::CacheDReads), 4u);
    EXPECT_EQ(reg.value(obs::Ev::IbFills), 0u);
}

TEST(CounterRegistry, ReopeningAnOpenGateKeepsCounts)
{
    // The kernel's switch hook calls setEnabled(true) on every
    // non-idle switch, whether or not the gate is already open.
    obs::CounterRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::Ev::EboxUops, 10);
    reg.setEnabled(true);
    reg.add(obs::Ev::EboxUops, 2);
    reg.setEnabled(true);
    EXPECT_EQ(reg.value(obs::Ev::EboxUops), 12u);

    // Closing twice is as harmless as opening twice.
    reg.setEnabled(false);
    reg.bump(obs::Ev::EboxUops);
    reg.setEnabled(false);
    EXPECT_EQ(reg.value(obs::Ev::EboxUops), 12u);
    EXPECT_EQ(reg.total(obs::Ev::EboxUops), 13u);
}

TEST(CounterRegistry, MidWindowRoundTripRestoresTotalsAndWindow)
{
    obs::CounterRegistry reg;
    reg.add(obs::Ev::TbDMisses, 4);
    reg.setEnabled(true);
    reg.add(obs::Ev::TbDMisses, 6);
    reg.setEnabled(false);
    reg.add(obs::Ev::TbDMisses, 100);
    reg.setEnabled(true);
    reg.add(obs::Ev::TbDMisses, 1);  // window 7, total 111, gate open

    for (bool closeFirst : {false, true}) {
        SCOPED_TRACE(closeFirst ? "gate closed" : "gate open");
        obs::CounterRegistry src = reg;
        if (closeFirst)
            src.setEnabled(false);
        ByteWriter w;
        src.serialize(w);
        const std::vector<uint8_t> bytes = w.take();
        obs::CounterRegistry dst;
        ByteReader r(bytes);
        dst.deserialize(r);
        r.expectEnd("counters");

        EXPECT_EQ(dst.enabled(), src.enabled());
        EXPECT_EQ(dst.snapshot(), src.snapshot());
        EXPECT_EQ(dst.total(obs::Ev::TbDMisses), 111u);
        EXPECT_EQ(dst.value(obs::Ev::TbDMisses), 7u);

        // Both go on counting identically after the restore.
        for (obs::CounterRegistry *x : {&src, &dst}) {
            x->add(obs::Ev::TbDMisses, 2);
            x->setEnabled(!x->enabled());
            x->bump(obs::Ev::TbDMisses);
        }
        EXPECT_EQ(dst.snapshot(), src.snapshot());
        EXPECT_EQ(dst.total(obs::Ev::TbDMisses),
                  src.total(obs::Ev::TbDMisses));
    }
}

TEST(EventTracer, ClearResetsRingAndAccounting)
{
    EventTracer t(4, static_cast<uint32_t>(Cat::Os));
    t.emit(Cat::Os, Code::Syscall, 1);
    t.emit(Cat::Tb, Code::TbMissD, 2);  // filtered
    EXPECT_EQ(t.emitted(), 1u);
    EXPECT_EQ(t.filtered(), 1u);

    t.clear();
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_EQ(t.filtered(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.mask(), static_cast<uint32_t>(Cat::Os));  // kept
}

TEST(EventTracer, RingWraparoundKeepsNewestAndCountsDrops)
{
    EventTracer t(8);
    for (uint64_t i = 0; i < 20; ++i)
        t.emit(Cat::Sim, Code::MeasureStart, /*ts=*/100 + i, i);

    EXPECT_EQ(t.emitted(), 20u);
    EXPECT_EQ(t.dropped(), 12u);
    EXPECT_EQ(t.filtered(), 0u);

    auto ev = t.events();
    ASSERT_EQ(ev.size(), 8u);
    // Oldest-first, and exactly the 8 newest emits survive.
    for (size_t i = 0; i < ev.size(); ++i) {
        EXPECT_EQ(ev[i].ts, 100 + 12 + i);
        EXPECT_EQ(ev[i].arg0, 12 + i);
    }
}

TEST(EventTracer, PartialFillReturnsOnlyEmitted)
{
    EventTracer t(16);
    t.emit(Cat::Os, Code::Syscall, 5);
    t.emit(Cat::Os, Code::Syscall, 6);
    EXPECT_EQ(t.dropped(), 0u);
    auto ev = t.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].ts, 5u);
    EXPECT_EQ(ev[1].ts, 6u);
}

TEST(EventTracer, CategoryMaskFiltersAndAccounts)
{
    uint32_t mask = 0;
    ASSERT_TRUE(obs::parseCategories("tb,os", mask));
    EXPECT_EQ(mask, static_cast<uint32_t>(Cat::Tb) |
                        static_cast<uint32_t>(Cat::Os));

    EventTracer t(64, mask);
    t.emit(Cat::Tb, Code::TbMissD, 1);
    t.emit(Cat::Instr, Code::InstrRetired, 2);
    t.emit(Cat::Os, Code::CtxSwitch, 3);
    t.emit(Cat::Irq, Code::IrqDispatch, 4);

    EXPECT_EQ(t.emitted(), 2u);
    EXPECT_EQ(t.filtered(), 2u);
    auto ev = t.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].cat, static_cast<uint32_t>(Cat::Tb));
    EXPECT_EQ(ev[1].cat, static_cast<uint32_t>(Cat::Os));
}

TEST(EventTracer, ParseCategoriesRejectsUnknown)
{
    uint32_t mask = 0xdead;
    EXPECT_FALSE(obs::parseCategories("tb,bogus", mask));
    EXPECT_EQ(mask, 0xdeadu);  // unchanged on failure
    EXPECT_TRUE(obs::parseCategories("all", mask));
    EXPECT_EQ(mask, obs::AllCats);
}

TEST(EventTracer, MergePreservesTotalsAndMonotonicity)
{
    // Synthetic per-worker streams with deterministic, monotone
    // timestamps (as real streams are: each workload's machine time
    // only moves forward).
    Rng rng(42);
    std::vector<std::vector<TraceEvent>> streams(4);
    size_t total = 0;
    for (auto &s : streams) {
        uint64_t ts = 0;
        size_t n = 50 + rng.below(50);
        for (size_t i = 0; i < n; ++i) {
            ts += rng.below(3);  // ties within and across streams
            TraceEvent e;
            e.ts = ts;
            e.cat = 1u << rng.below(7);
            e.code = static_cast<uint16_t>(rng.below(10));
            s.push_back(e);
        }
        total += n;
    }

    auto merged = obs::mergeStreams(streams);
    EXPECT_EQ(merged.size(), total);

    // Global monotonicity (hence also per-category monotonicity).
    for (size_t i = 1; i < merged.size(); ++i)
        EXPECT_LE(merged[i - 1].ts, merged[i].ts);

    // Per-stream event counts survive, and relative order within each
    // stream is preserved (stable merge).
    std::map<uint16_t, size_t> per_stream;
    std::map<uint16_t, uint64_t> last_ts;
    for (const TraceEvent &e : merged) {
        ++per_stream[e.stream];
        EXPECT_LE(last_ts[e.stream], e.ts);
        last_ts[e.stream] = e.ts;
    }
    for (size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(per_stream[static_cast<uint16_t>(i)],
                  streams[i].size());
}

TEST(EventTracer, ChromeJsonExport)
{
    EventTracer t(8);
    t.emit(Cat::Tb, Code::TbMissD, 10, 0x80001234, 1);
    t.emit(Cat::Irq, Code::IrqDispatch, 20, 0xc0);
    const std::string text = obs::toChromeJson(t.events());
    EXPECT_EQ(text.back(), '\n');

    const json::Value doc = json::parse(text);
    ASSERT_TRUE(doc.find("traceEvents"));
    const json::Array &events = doc.find("traceEvents")->asArray();
    ASSERT_EQ(events.size(), 2u);
    auto field = [](const json::Value &o,
                    const char *key) -> const json::Value & {
        const json::Value *v = o.find(key);
        if (!v)
            throw std::runtime_error(std::string("no member ") + key);
        return *v;
    };

    const json::Value &tb = events[0];
    EXPECT_EQ(field(tb, "name").asString(), "tbmiss.d");
    EXPECT_EQ(field(tb, "cat").asString(), "tb");
    EXPECT_EQ(field(tb, "ph").asString(), "i");
    // 10 cycles x 200 ns = 2 µs.
    EXPECT_EQ(field(tb, "ts").asDouble(), 2.0);
    EXPECT_EQ(field(field(tb, "args"), "arg0").asUint(), 0x80001234u);
    EXPECT_EQ(field(field(tb, "args"), "arg1").asUint(), 1u);
    EXPECT_EQ(field(field(tb, "args"), "cycle").asUint(), 10u);

    const json::Value &irq = events[1];
    EXPECT_EQ(field(irq, "cat").asString(), "irq");
    EXPECT_EQ(field(irq, "ts").asDouble(), 4.0);
    EXPECT_EQ(field(field(irq, "args"), "arg0").asUint(), 0xc0u);
}

TEST(EventTracerEngine, ParallelStreamsMergeConsistently)
{
    // Run the five workloads under the parallel engine with per-run
    // tracers, then treat each workload's trace as one stream.
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 3000;
    cfg.warmupInstructions = 500;
    cfg.obs.traceDepth = 1u << 16;

    auto profiles = wkl::paperWorkloads();
    sim::EngineConfig four;
    four.jobs = 4;
    sim::ParallelEngine engine(cfg, four);
    sim::CompositeResult par = engine.runComposite(profiles);
    ASSERT_TRUE(par.allOk());

    std::vector<std::vector<TraceEvent>> streams;
    size_t total = 0;
    for (const auto &w : par.workloads) {
        EXPECT_GT(w.trace.size(), 0u) << w.name;
        streams.push_back(w.trace);
        total += w.trace.size();
    }

    auto merged = obs::mergeStreams(streams);
    EXPECT_EQ(merged.size(), total);

    // Per-category AND per-stream monotone timestamps after merge.
    std::map<std::pair<uint16_t, uint32_t>, uint64_t> last;
    for (const TraceEvent &e : merged) {
        auto key = std::make_pair(e.stream, e.cat);
        auto it = last.find(key);
        if (it != last.end()) {
            EXPECT_LE(it->second, e.ts);
        }
        last[key] = e.ts;
    }

    // Determinism: the same workloads serially produce byte-identical
    // per-workload streams (trace events carry machine time only).
    sim::EngineConfig one;
    one.jobs = 1;
    sim::ParallelEngine serial(cfg, one);
    sim::CompositeResult ser = serial.runComposite(profiles);
    ASSERT_TRUE(ser.allOk());
    ASSERT_EQ(ser.workloads.size(), par.workloads.size());
    for (size_t i = 0; i < ser.workloads.size(); ++i) {
        const auto &a = ser.workloads[i].trace;
        const auto &b = par.workloads[i].trace;
        ASSERT_EQ(a.size(), b.size()) << ser.workloads[i].name;
        for (size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].ts, b[j].ts);
            EXPECT_EQ(a[j].cat, b[j].cat);
            EXPECT_EQ(a[j].code, b[j].code);
            EXPECT_EQ(a[j].arg0, b[j].arg0);
            EXPECT_EQ(a[j].arg1, b[j].arg1);
        }
    }

    // The measurement markers bracket every run.
    for (const auto &w : par.workloads) {
        size_t starts = 0, stops = 0;
        for (const TraceEvent &e : w.trace) {
            if (e.code == static_cast<uint16_t>(Code::MeasureStart))
                ++starts;
            if (e.code == static_cast<uint16_t>(Code::MeasureStop))
                ++stops;
        }
        EXPECT_EQ(starts, 1u) << w.name;
        EXPECT_EQ(stops, 1u) << w.name;
    }
}

namespace
{

/** A booted machine running @p profile with a few users. */
struct Booted
{
    explicit Booted(wkl::WorkloadProfile profile) : vms(machine)
    {
        profile.users = 3;
        for (os::ProcessImage &img : wkl::buildWorkload(profile))
            vms.addProcess(std::move(img));
        vms.boot();
    }

    cpu::Vax780 machine;
    os::VmsLite vms;
};

obs::Snapshot
totals(const cpu::Vax780 &m)
{
    obs::Snapshot s;
    for (size_t i = 0; i < obs::NumEvents; ++i)
        s.counters[i] = m.counters().total(obs::Ev(i));
    return s;
}

} // namespace

TEST(Obs, MachinesCountApart)
{
    // Each machine's events land in its own registry, whatever else
    // runs on the thread: two machines stepped alternately end with the
    // totals each reaches alone.
    constexpr uint64_t Slice = 1000, Slices = 400;
    auto alone = [&](const wkl::WorkloadProfile &p) {
        Booted b(p);
        for (uint64_t i = 0; i < Slices; ++i)
            b.machine.run(Slice);
        return totals(b.machine);
    };
    const obs::Snapshot a1 = alone(wkl::timesharing1Profile());
    const obs::Snapshot b1 = alone(wkl::educationalProfile());

    Booted a(wkl::timesharing1Profile());
    Booted b(wkl::educationalProfile());
    for (uint64_t i = 0; i < Slices; ++i) {
        a.machine.run(Slice);
        b.machine.run(Slice);
    }
    EXPECT_EQ(totals(a.machine), a1);
    EXPECT_EQ(totals(b.machine), b1);
    EXPECT_GT(a1.value(obs::Ev::EboxUops), 0u);
    EXPECT_GT(b1.value(obs::Ev::OsContextSwitches) +
                  a1.value(obs::Ev::OsContextSwitches),
              0u);
    EXPECT_NE(a1, b1);
}
