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
 * order-independent sums, and the whole layer compiles away when
 * UPC780_OBS is off.
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

#ifndef UPC780_OBS_ENABLED
#define UPC780_OBS_ENABLED 1
#endif

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

/** The counter fabric for one measurement. */
class CounterRegistry
{
  public:
    void bump(Ev e) { counters_[size_t(e)] += enabled_; }
    void add(Ev e, uint64_t n) { counters_[size_t(e)] += enabled_ ? n : 0; }

    uint64_t value(Ev e) const { return counters_[size_t(e)]; }

    /**
     * Gate counting, mirroring the UPC monitor's start/stop: the
     * experiment runner flips this together with the monitor so both
     * bookkeepings cover the identical cycle window.
     */
    void setEnabled(bool on) { enabled_ = on ? 1 : 0; }
    bool enabled() const { return enabled_ != 0; }

    void clear() { counters_.fill(0); }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.counters = counters_;
        return s;
    }

    /** Checkpoint counter values + gate (counters.cc). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    std::array<uint64_t, NumEvents> counters_{};
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
#if UPC780_OBS_ENABLED
    return detail::tls.reg;
#else
    return nullptr;
#endif
}

/** The tracer events on this thread currently land in (may be null). */
inline EventTracer *
tracer()
{
#if UPC780_OBS_ENABLED
    return detail::tls.tracer;
#else
    return nullptr;
#endif
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
void emitCycle(const CycleEvents &ev, bool stalled);

/**
 * Classify @p n pad cycles (executed nop microinstructions, no flags,
 * not stalled) at once: exactly n emitCycle({}, false) calls. Sound to
 * batch because the counter gate (setEnabled) only flips from within
 * executed microinstructions, never inside a pad run.
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
    ObsScope(CounterRegistry *reg, EventTracer *tr)
    {
#if UPC780_OBS_ENABLED
        prev_ = detail::tls;
        detail::tls.reg = reg;
        detail::tls.tracer = tr;
#else
        (void)reg;
        (void)tr;
#endif
    }

    ~ObsScope()
    {
#if UPC780_OBS_ENABLED
        detail::tls = prev_;
#endif
    }

    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

  private:
#if UPC780_OBS_ENABLED
    detail::Tls prev_;
#endif
};

/**
 * Runtime observability level for an experiment. `counters` defaults
 * from the UPC780_OBS environment variable ("off"/"0" disables), so a
 * deployed binary can drop to the near-zero-cost path without a
 * rebuild; `traceDepth` > 0 additionally attaches a ring-buffer event
 * tracer of that capacity, filtered by `traceMask` (see trace.hh).
 */
struct Config
{
    bool counters = defaultCountersOn();
    uint32_t traceDepth = 0;
    uint32_t traceMask = 0xffffffffu;

    static bool defaultCountersOn();
};

} // namespace upc780::obs

#endif // UPC780_OBS_COUNTERS_HH
