#include "obs/trace.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/serial.hh"

namespace upc780::obs
{

std::string_view
catName(Cat c)
{
    switch (c) {
      case Cat::Instr:
        return "instr";
      case Cat::Mem:
        return "mem";
      case Cat::Tb:
        return "tb";
      case Cat::Os:
        return "os";
      case Cat::Irq:
        return "irq";
      case Cat::Fault:
        return "fault";
      case Cat::Sim:
        return "sim";
      default:
        return "?";
    }
}

bool
parseCategories(std::string_view csv, uint32_t &mask)
{
    if (csv == "all") {
        mask = AllCats;
        return true;
    }
    uint32_t out = 0;
    while (!csv.empty()) {
        size_t comma = csv.find(',');
        std::string_view tok = csv.substr(0, comma);
        bool found = false;
        for (uint32_t bit = 1; bit <= AllCats; bit <<= 1) {
            if (tok == catName(static_cast<Cat>(bit))) {
                out |= bit;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
        csv = comma == std::string_view::npos ? std::string_view{}
                                              : csv.substr(comma + 1);
    }
    mask = out;
    return true;
}

std::string_view
codeName(Code c)
{
    switch (c) {
      case Code::InstrRetired:
        return "instr";
      case Code::TbMissD:
        return "tbmiss.d";
      case Code::TbMissI:
        return "tbmiss.i";
      case Code::CtxSwitch:
        return "ctxswitch";
      case Code::Syscall:
        return "syscall";
      case Code::IrqDispatch:
        return "irq";
      case Code::MachineCheck:
        return "mcheck";
      case Code::FaultInjected:
        return "fault";
      case Code::MeasureStart:
        return "measure.start";
      case Code::MeasureStop:
        return "measure.stop";
      default:
        return "?";
    }
}

EventTracer::EventTracer(size_t depth, uint32_t mask)
    : ring_(depth ? depth : 1), mask_(mask)
{}

std::vector<TraceEvent>
EventTracer::events() const
{
    std::vector<TraceEvent> out;
    size_t n = emitted_ < ring_.size() ? static_cast<size_t>(emitted_)
                                       : ring_.size();
    out.reserve(n);
    // With fewer emits than capacity the valid region is [0, next_);
    // after wraparound the oldest surviving event sits at next_.
    size_t start = emitted_ < ring_.size() ? 0 : next_;
    for (size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void
EventTracer::clear()
{
    std::fill(ring_.begin(), ring_.end(), TraceEvent{});
    next_ = 0;
    emitted_ = 0;
    filtered_ = 0;
}

std::vector<TraceEvent>
mergeStreams(const std::vector<std::vector<TraceEvent>> &streams)
{
    std::vector<TraceEvent> out;
    size_t total = 0;
    for (const auto &s : streams)
        total += s.size();
    out.reserve(total);
    for (size_t i = 0; i < streams.size(); ++i) {
        for (TraceEvent e : streams[i]) {
            e.stream = static_cast<uint16_t>(i);
            out.push_back(e);
        }
    }
    // Each input stream is monotone in ts, so a stable sort on (ts,
    // stream) is a deterministic k-way merge: relative order within a
    // stream is preserved and cross-stream ties break by stream index.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.stream < b.stream;
                     });
    return out;
}

std::string
toChromeJson(const std::vector<TraceEvent> &events)
{
    json::Value list = json::array();
    for (const TraceEvent &e : events) {
        // One machine cycle is 200 ns; trace_event ts is in µs.
        list.push(json::Members{
            {"name", std::string(codeName(static_cast<Code>(e.code)))},
            {"cat", std::string(catName(static_cast<Cat>(e.cat)))},
            {"ph", "i"},
            {"s", "t"},
            {"pid", 1},
            {"tid", e.stream},
            {"ts", static_cast<double>(e.ts) * 0.2},
            {"args", json::Members{{"arg0", e.arg0},
                                   {"arg1", int64_t{e.arg1}},
                                   {"cycle", e.ts}}}});
    }
    return json::Value(json::Members{{"displayTimeUnit", "ms"},
                                     {"traceEvents", std::move(list)}})
               .dump() +
           "\n";
}

template <class Self, class Ar>
void
EventTracer::walk(Self &s, Ar &ar)
{
    ar.sameCount64(s.ring_.size(), "trace ring depth");
    for (auto &e : s.ring_)
        TraceEvent::walk(e, ar);
    ar.u32(s.mask_);
    ar.below(s.next_, s.ring_.size(), "trace ring cursor");
    ar.u64(s.emitted_);
    ar.u64(s.filtered_);
}

void
EventTracer::serialize(ByteWriter &w) const
{
    walk(*this, w);
}

void
EventTracer::deserialize(ByteReader &r)
{
    walk(*this, r);
}

} // namespace upc780::obs
