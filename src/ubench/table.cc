#include "ubench/table.hh"

#include <cstdio>

#include "arch/assembler.hh"
#include "arch/opcodes.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "cpu/vax780.hh"
#include "upc/monitor.hh"

namespace upc780::ubench
{

using arch::Access;
using arch::DataType;
using arch::Op;
using arch::Operand;

namespace
{

constexpr arch::VAddr Base = 0x1000;
constexpr unsigned LoopReg = 13;
constexpr uint32_t N1 = 8;
constexpr uint32_t N2 = 40;  // delta 32: divisible by periods 1/2/4

/** Register number for operand slot i; quad/D pairs never overlap. */
constexpr unsigned
operandReg(unsigned i)
{
    return 1 + 2 * i;
}

struct LoopMeas
{
    uint64_t cycles = 0;
    uint64_t counts = 0;
    uint64_t stalls = 0;
};

/** One instrumented run to HALT; throws SimError on guest faults. */
LoopMeas
runLoop(const std::vector<uint8_t> &code,
        const std::vector<std::pair<unsigned, uint32_t>> &gprs,
        uint32_t iters, bool fpa)
{
    cpu::MachineConfig mc;
    mc.fpa = fpa;
    cpu::Vax780 m(mc);
    for (size_t i = 0; i < code.size(); ++i)
        m.memsys().memory().writeByte(Base + uint32_t(i), code[i]);
    for (auto [rn, v] : gprs)
        m.ebox().gpr(rn) = v;
    // Stack-implicit instructions (PUSHL and friends) are part of the
    // sweep; give them a real stack to push onto.
    m.ebox().gpr(arch::reg::SP) = 0x6000;
    m.ebox().gpr(LoopReg) = iters;
    m.ebox().reset(Base, false);

    upc::UpcMonitor mon(m.counters());
    m.attachProbe(&mon);
    mon.start();
    m.run(1000000);
    if (!m.ebox().halted())
        sim_throw(SimError, "loop did not halt");

    LoopMeas r;
    r.cycles = m.cycles();
    r.counts = mon.histogram().totalCounts();
    r.stalls = mon.histogram().totalStalls();
    return r;
}

/** Steady-state per-iteration delta; throws if not 1-periodic. */
LoopMeas
measureLoop(const std::vector<uint8_t> &code,
            const std::vector<std::pair<unsigned, uint32_t>> &gprs,
            bool fpa)
{
    LoopMeas a = runLoop(code, gprs, N1, fpa);
    LoopMeas b = runLoop(code, gprs, N2, fpa);
    const uint64_t q = N2 - N1;
    auto div = [&](uint64_t hi, uint64_t lo) {
        if (hi < lo || (hi - lo) % q != 0)
            sim_throw(SimError, "not steady-state periodic");
        return (hi - lo) / q;
    };
    LoopMeas r;
    r.cycles = div(b.cycles, a.cycles);
    r.counts = div(b.counts, a.counts);
    r.stalls = div(b.stalls, a.stalls);
    return r;
}

uint32_t
operandValue(DataType t, unsigned i)
{
    switch (t) {
      case DataType::FFloat:
      case DataType::DFloat:
        return 0x00004080;  // 1.0 (low longword; high half stays 0)
      default:
        return i == 0 ? 5 : 3;  // first operand is the divisor of DIVx
    }
}

bool
sweepable(const arch::OpcodeInfo &info)
{
    if (!info.valid())
        return false;
    if (info.group != arch::Group::Simple && info.group != arch::Group::Float)
        return false;
    if (info.pcClass != arch::PcClass::None)
        return false;
    for (const arch::OperandSpec &os : info.specs()) {
        if (os.access != Access::Read && os.access != Access::Write &&
            os.access != Access::Modify)
            return false;
    }
    return true;
}

} // namespace

LatencyTable
sweepLatencyTable()
{
    LatencyTable t;

    // Empty-loop baseline: SOBGTR alone.
    {
        arch::Assembler a(Base);
        arch::Label head = a.here();
        a.emitBr(Op::SOBGTR, {Operand::reg(LoopReg)}, head);
        a.emit(Op::HALT, {});
        t.baselineCycles = measureLoop(a.finish(), {}, true).cycles;
    }

    for (unsigned code = 0; code < 256; ++code) {
        const arch::OpcodeInfo &info = arch::opcodeInfo(uint8_t(code));
        if (!sweepable(info))
            continue;

        std::vector<Operand> ops;
        std::vector<std::pair<unsigned, uint32_t>> gprs;
        for (unsigned i = 0; i < info.numOperands; ++i) {
            unsigned rn = operandReg(i);
            ops.push_back(Operand::reg(rn));
            gprs.push_back({rn, operandValue(info.operands[i].type, i)});
            if (dataTypeSize(info.operands[i].type) == 8)
                gprs.push_back({rn + 1, 0});
        }

        arch::Assembler a(Base);
        arch::Label head = a.here();
        a.emit(Op(code), ops);
        a.emitBr(Op::SOBGTR, {Operand::reg(LoopReg)}, head);
        a.emit(Op::HALT, {});
        const std::vector<uint8_t> &image = a.finish();

        try {
            LoopMeas m = measureLoop(image, gprs, true);
            TableRow row;
            row.opcode = uint8_t(code);
            row.mnemonic = std::string(info.mnemonic);
            row.group = std::string(arch::groupName(info.group));
            row.cycles = m.cycles;
            row.uops = m.counts;
            row.stalls = m.stalls;
            row.latency = int64_t(m.cycles) - int64_t(t.baselineCycles);
            if (info.group == arch::Group::Float)
                row.cyclesNoFpa =
                    int64_t(measureLoop(image, gprs, false).cycles);
            t.rows.push_back(row);
        } catch (const SimError &e) {
            t.skipped.push_back(
                {uint8_t(code), std::string(info.mnemonic), e.what()});
        }
    }
    return t;
}

std::string
tableToJson(const LatencyTable &t)
{
    json::Value rows = json::array();
    for (const TableRow &r : t.rows)
        rows.push(json::Members{{"opcode", r.opcode},
                                {"mnemonic", r.mnemonic},
                                {"group", r.group},
                                {"cycles", r.cycles},
                                {"uops", r.uops},
                                {"stalls", r.stalls},
                                {"latency", r.latency},
                                {"cycles_nofpa", r.cyclesNoFpa}});
    json::Value skipped = json::array();
    for (const TableSkip &s : t.skipped)
        skipped.push(json::Members{{"opcode", s.opcode},
                                   {"mnemonic", s.mnemonic},
                                   {"reason", s.reason}});
    return json::Value(json::Members{
                           {"schema", "upc780-latency-table-v1"},
                           {"baseline_cycles", t.baselineCycles},
                           {"rows", std::move(rows)},
                           {"skipped", std::move(skipped)}})
        .dumpPretty();
}

std::string
tableToText(const LatencyTable &t)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "per-instruction latency table (baseline %llu cycles/iter)\n"
                  "%-6s %-8s %-12s %8s %6s %7s %8s %12s\n",
                  static_cast<unsigned long long>(t.baselineCycles), "op",
                  "mnem", "group", "cycles", "uops", "stalls", "latency",
                  "cycles_nofpa");
    out += buf;
    for (const TableRow &r : t.rows) {
        std::snprintf(buf, sizeof buf,
                      "0x%02X   %-8s %-12s %8llu %6llu %7llu %8lld %12lld\n",
                      r.opcode, r.mnemonic.c_str(), r.group.c_str(),
                      static_cast<unsigned long long>(r.cycles),
                      static_cast<unsigned long long>(r.uops),
                      static_cast<unsigned long long>(r.stalls),
                      static_cast<long long>(r.latency),
                      static_cast<long long>(r.cyclesNoFpa));
        out += buf;
    }
    for (const TableSkip &s : t.skipped) {
        std::snprintf(buf, sizeof buf, "0x%02X   %-8s skipped: %s\n",
                      s.opcode, s.mnemonic.c_str(), s.reason.c_str());
        out += buf;
    }
    return out;
}

} // namespace upc780::ubench
