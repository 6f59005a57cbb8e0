/**
 * @file
 * PMU-style event counters for the simulator itself.
 *
 * The paper's instrument (the UPC histogram board) is one bookkeeping
 * of where cycles go; this registry is a second, independent one,
 * incremented live at the component that produced each event (EBOX,
 * IBOX, TB, cache, write buffer, OS, monitor). Where both paths count
 * the same physical quantity the two must agree exactly — the
 * CounterPoint-style refutation check that tests/obs_crosscheck_test.cc
 * performs. Styled after a per-component HPM counter fabric: every
 * counter is a named 64-bit event count, snapshot/accumulate are
 * order-independent sums.
 *
 * The registry is the only place the hardware events are counted: the
 * cache, TB, IBOX, write buffer and memory subsystem keep no counters
 * of their own. It has two views of each count. The running total is
 * never gated; the hardware counters of a measurement
 * (sim::HwCounters, Table 6) are before/after deltas of it. The window
 * (snapshot()) covers only the cycles the gate was open, the same
 * cycles the UPC monitor saw.
 *
 * Threading model: counters are delivered through a thread-local
 * "current scope" pointer (ObsScope). The parallel experiment engine
 * runs each workload wholly on one worker thread, so a scope installed
 * for the duration of a run observes exactly that run and nothing
 * else, with no atomics on the hot path.
 */

#ifndef UPC780_OBS_COUNTERS_HH
#define UPC780_OBS_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

/** Always 1: the layer cannot be compiled out. Kept for consumers that
 *  still test it. */
#define UPC780_OBS_ENABLED 1

namespace upc780
{
class ByteWriter;
class ByteReader;
}

namespace upc780::obs
{

/** Every event the fabric counts, one per instrumentation point. */
enum class Ev : uint32_t
{
    // EBOX per-cycle classification (deferred to end of cycle so the
    // counts see exactly the cycles the UPC monitor's probe sees).
    IboxDecodes,        //!< I-Decode opcode dispatches (instructions)
    EboxUops,           //!< executed (counted) microinstructions
    EboxIbStallCycles,  //!< cycles at the four IB-stall addresses
    EboxStallCycles,    //!< read/write-stalled cycles
    EboxAborts,         //!< ABORT-row cycles (microtraps, CS parity)
    EboxHaltCycles,     //!< cycles while halted
    EboxMemReadCycles,  //!< counted cycles at ReadV/ReadP words
    EboxMemWriteCycles, //!< counted cycles at WriteV words
    TbMissServicesD,    //!< D-stream TB microtraps taken
    TbMissServicesI,    //!< I-stream TB microtraps taken
    IrqDispatches,      //!< interrupt dispatches at end-of-instruction
    MachineChecks,      //!< machine checks dispatched

    // IBOX.
    IbFills,            //!< instruction-buffer fill requests
    IbRedirects,        //!< fill-stream redirects (PC changes)

    // Translation buffer (raw hardware lookups; includes speculative
    // I-stream misses that a redirect discards before service).
    TbDHits,
    TbDMisses,
    TbIHits,
    TbIMisses,
    TbFills,
    TbFlushes,

    // Cache / write buffer / memory.
    CacheDReads,
    CacheDReadMisses,
    CacheIReads,
    CacheIReadMisses,
    CacheWrites,
    CacheWriteHits,
    WbWrites,
    WbStallCycles,
    MemUnalignedRefs,

    // OS substrate.
    OsContextSwitches,
    OsSyscalls,
    OsReschedRequests,

    // UPC monitor board (what the instrument itself observed).
    UpcCycles,
    UpcStallCycles,

    NumEvents
};

constexpr size_t NumEvents = static_cast<size_t>(Ev::NumEvents);

/** Stable dotted name, e.g. "ebox.uops" (metrics tables, upctrace). */
std::string_view evName(Ev e);

/**
 * A value-type snapshot of the registry: what lands in a
 * WorkloadResult and is folded into the composite. Plain uint64_t
 * element-wise sums, so accumulation is order-independent — the same
 * contract Histogram::merge gives the parallel engine.
 */
struct Snapshot
{
    std::array<uint64_t, NumEvents> counters{};

    uint64_t value(Ev e) const { return counters[size_t(e)]; }

    void
    accumulate(const Snapshot &o)
    {
        for (size_t i = 0; i < NumEvents; ++i)
            counters[i] += o.counters[i];
    }

    bool operator==(const Snapshot &o) const = default;
};

/**
 * The counter fabric for one run: one running total per event, and the
 * gated window taken from the gate's edges.
 */
class CounterRegistry
{
  public:
    void bump(Ev e) { ++totals_[size_t(e)]; }
    void add(Ev e, uint64_t n) { totals_[size_t(e)] += n; }

    /** Every event since construction, open gate or not. */
    uint64_t total(Ev e) const { return totals_[size_t(e)]; }

    /** The events counted while the gate was open. */
    uint64_t
    value(Ev e) const
    {
        const size_t i = size_t(e);
        return enabled_ ? totals_[i] - mark_[i] : mark_[i];
    }

    /**
     * Open or close the window, mirroring the UPC monitor's start/stop:
     * the experiment runner flips this together with the monitor so
     * both bookkeepings cover the identical cycle window. Setting the
     * gate to its current state is a no-op.
     */
    void
    setEnabled(bool on)
    {
        if (on == enabled())
            return;
        // While closed, mark_ holds the window so far; while open, the
        // total at which the window would have been empty. Each edge
        // maps one into the other with the same subtraction.
        for (size_t i = 0; i < NumEvents; ++i)
            mark_[i] = totals_[i] - mark_[i];
        enabled_ = on ? 1 : 0;
    }
    bool enabled() const { return enabled_ != 0; }

    /** The window, every event. */
    Snapshot
    snapshot() const
    {
        Snapshot s;
        for (size_t i = 0; i < NumEvents; ++i)
            s.counters[i] = value(Ev(i));
        return s;
    }

    /** Checkpoint totals, window and gate (counters.cc). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    std::array<uint64_t, NumEvents> totals_{};
    std::array<uint64_t, NumEvents> mark_{};
    uint64_t enabled_ = 0;
};

/** Render non-zero counters as an aligned two-column table. */
std::string writeCounterTable(const Snapshot &s);

/**
 * End-of-cycle event summary the EBOX hands to the registry. Flags are
 * raised at the decision points inside the cycle (decode consumption,
 * trap entry, interrupt dispatch, memory-function classification) and
 * emitted once, after the cycle's CycleOut is final — the same moment
 * the monitor's passive probe observes the cycle, so monitor gating
 * that flips mid-cycle (the OS-assist switch hook) can never put one
 * bookkeeping inside the measurement window and the other outside.
 */
struct CycleEvents
{
    bool halt = false;
    bool abort = false;
    bool ibStall = false;
    bool decode = false;
    bool memRead = false;
    bool memWrite = false;
    bool tbMissD = false;
    bool tbMissI = false;
    bool irq = false;
    bool mcheck = false;
};

class EventTracer;

namespace detail
{

struct Tls
{
    CounterRegistry *reg = nullptr;
    EventTracer *tracer = nullptr;
};

inline thread_local Tls tls;

} // namespace detail

/** The registry events on this thread currently land in (may be null). */
inline CounterRegistry *
counters()
{
    return detail::tls.reg;
}

/** The tracer events on this thread currently land in (may be null). */
inline EventTracer *
tracer()
{
    return detail::tls.tracer;
}

/** Count one event into the current scope, if any. */
inline void
count(Ev e)
{
    if (CounterRegistry *r = counters())
        r->bump(e);
}

/** Count @p n events into the current scope, if any. */
inline void
count(Ev e, uint64_t n)
{
    if (CounterRegistry *r = counters())
        r->add(e, n);
}

/** Classify one finished EBOX cycle into the current scope, if any. */
inline void
emitCycle(const CycleEvents &ev, bool stalled)
{
    CounterRegistry *r = counters();
    if (!r)
        return;
    if (stalled) {
        r->bump(Ev::EboxStallCycles);
        return;
    }
    if (ev.halt) {
        r->bump(Ev::EboxHaltCycles);
        return;
    }
    if (ev.abort) {
        r->bump(Ev::EboxAborts);
        if (ev.tbMissD)
            r->bump(Ev::TbMissServicesD);
        if (ev.tbMissI)
            r->bump(Ev::TbMissServicesI);
        return;
    }
    if (ev.ibStall) {
        r->bump(Ev::EboxIbStallCycles);
        return;
    }
    // A counted (executed) microinstruction.
    r->bump(Ev::EboxUops);
    if (ev.decode)
        r->bump(Ev::IboxDecodes);
    if (ev.memRead)
        r->bump(Ev::EboxMemReadCycles);
    if (ev.memWrite)
        r->bump(Ev::EboxMemWriteCycles);
    if (ev.irq)
        r->bump(Ev::IrqDispatches);
    if (ev.mcheck)
        r->bump(Ev::MachineChecks);
}

/**
 * Classify @p n pad cycles (executed nop microinstructions, no flags,
 * not stalled) at once: exactly n emitCycle({}, false) calls.
 */
inline void
emitPadCycles(uint64_t n)
{
    if (CounterRegistry *r = counters())
        r->add(Ev::EboxUops, n);
}

/**
 * RAII installation of the thread-local scope: the experiment runner
 * holds one for the duration of a workload run. Nests (restores the
 * previous scope on destruction) so probes and tests can stack.
 */
class ObsScope
{
  public:
    ObsScope(CounterRegistry *reg, EventTracer *tr) : prev_(detail::tls)
    {
        detail::tls.reg = reg;
        detail::tls.tracer = tr;
    }

    ~ObsScope() { detail::tls = prev_; }

    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

  private:
    detail::Tls prev_;
};

/**
 * Runtime observability level for an experiment. The registry always
 * counts; `counters` only decides whether a run reports its window
 * (false: an all-zero WorkloadResult::obs). `traceDepth` > 0 attaches a
 * ring-buffer event tracer of that capacity, filtered by `traceMask`
 * (see trace.hh).
 */
struct Config
{
    bool counters = true;
    uint32_t traceDepth = 0;
    uint32_t traceMask = 0xffffffffu;
};

} // namespace upc780::obs

#endif // UPC780_OBS_COUNTERS_HH
