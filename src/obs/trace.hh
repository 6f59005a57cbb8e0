/**
 * @file
 * Structured event tracing: a ring-buffered, category-filtered stream
 * of timestamped simulator events, exportable in the Chrome
 * `trace_event` JSON format so a whole workload run opens directly in
 * Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Timestamps are machine cycles (one cycle = 200 ns of simulated
 * time); the exporter converts to microseconds of simulated time.
 * Each workload run produces one stream; the parallel engine's
 * per-worker streams are combined with mergeStreams(), which preserves
 * global event totals and per-category timestamp monotonicity — the
 * properties tests/obs_trace_test.cc pins.
 */

#ifndef UPC780_OBS_TRACE_HH
#define UPC780_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hh"

namespace upc780::obs
{

/** Event categories, one bit each (trace masks are ORs of these). */
enum class Cat : uint32_t
{
    Instr = 1u << 0,  //!< retired instructions (from the InstrTracer)
    Mem = 1u << 1,    //!< memory-system events
    Tb = 1u << 2,     //!< translation-buffer microtraps
    Os = 1u << 3,     //!< context switches, syscalls
    Irq = 1u << 4,    //!< interrupt and machine-check dispatches
    Fault = 1u << 5,  //!< injected faults
    Sim = 1u << 6,    //!< harness markers (measurement start/stop)
};

constexpr uint32_t AllCats = 0x7fu;

std::string_view catName(Cat c);

/**
 * Parse a comma-separated category list ("instr,tb,os") into a mask.
 * @retval false (and mask unchanged) on an unknown name.
 */
bool parseCategories(std::string_view csv, uint32_t &mask);

/** What happened (the `name` field of the exported trace event). */
enum class Code : uint16_t
{
    InstrRetired,
    TbMissD,
    TbMissI,
    CtxSwitch,
    Syscall,
    IrqDispatch,
    MachineCheck,
    FaultInjected,
    MeasureStart,
    MeasureStop,
};

std::string_view codeName(Code c);

/** One trace event: POD, 32 bytes, cheap to ring-buffer. */
struct TraceEvent
{
    uint64_t ts = 0;      //!< machine cycles (200 ns each)
    uint64_t arg0 = 0;
    uint32_t arg1 = 0;
    uint32_t cat = 0;     //!< single Cat bit
    uint16_t code = 0;    //!< Code
    uint16_t stream = 0;  //!< source stream id (set by mergeStreams)
    uint32_t pad = 0;

    /** Checkpoint field list (common/serial.hh): tracer and results. */
    template <class Self, class Ar>
    static void
    walk(Self &e, Ar &ar)
    {
        ar.u64(e.ts);
        ar.u64(e.arg0);
        ar.u32(e.arg1);
        ar.u32(e.cat);
        ar.u16(e.code);
        ar.u16(e.stream);
    }
};

/**
 * Fixed-capacity ring buffer of trace events with a category mask.
 * Oldest events are overwritten once full; `emitted` / `filtered` /
 * `dropped` account for every emit() call, so totals survive both
 * masking and wraparound.
 */
class EventTracer
{
  public:
    explicit EventTracer(size_t depth, uint32_t mask = AllCats);

    void
    emit(Cat c, Code code, uint64_t ts, uint64_t a0 = 0, uint32_t a1 = 0)
    {
        if (!(mask_ & static_cast<uint32_t>(c))) {
            ++filtered_;
            return;
        }
        TraceEvent &e = ring_[next_];
        e.ts = ts;
        e.arg0 = a0;
        e.arg1 = a1;
        e.cat = static_cast<uint32_t>(c);
        e.code = static_cast<uint16_t>(code);
        e.stream = 0;
        next_ = (next_ + 1) % ring_.size();
        ++emitted_;
    }

    /** Events accepted into the ring (including later-overwritten). */
    uint64_t emitted() const { return emitted_; }
    /** Events rejected by the category mask. */
    uint64_t filtered() const { return filtered_; }
    /** Accepted events lost to wraparound. */
    uint64_t
    dropped() const
    {
        return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
    }

    size_t capacity() const { return ring_.size(); }
    uint32_t mask() const { return mask_; }
    void setMask(uint32_t m) { mask_ = m; }

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> events() const;

    void clear();

    /** Checkpoint ring contents + totals (trace.cc). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);

  private:
    /** The checkpoint field list, both directions (common/serial.hh). */
    template <class Self, class Ar>
    static void walk(Self &s, Ar &ar);

    std::vector<TraceEvent> ring_;
    uint32_t mask_ = AllCats;
    size_t next_ = 0;
    uint64_t emitted_ = 0;
    uint64_t filtered_ = 0;
};

/**
 * Merge per-worker streams into one globally time-ordered stream.
 * Events keep their relative order within a stream (each stream is
 * already monotone in ts); ties across streams break by stream index,
 * so the merge is deterministic. Every input event appears exactly
 * once in the output, tagged with its stream id.
 */
std::vector<TraceEvent>
mergeStreams(const std::vector<std::vector<TraceEvent>> &streams);

/**
 * Export as a Chrome trace_event JSON document (instant events, one
 * pid per capture, one tid per stream) in the codec's canonical
 * single-line form. Load in Perfetto to see each workload's events on
 * its own track.
 */
std::string toChromeJson(const std::vector<TraceEvent> &events);

} // namespace upc780::obs

#endif // UPC780_OBS_TRACE_HH
