/**
 * @file
 * Ground-truth microbenchmark generator (uops.info / Röhl-style event
 * validation for the 780 model).
 *
 * Each Kernel is a tiny VAX program — a counted SOBGTR loop whose body
 * forces one microarchitectural behaviour (cache hit stream, cache
 * miss stream, TB miss with known service cost, IB starvation,
 * write-buffer saturation, FPA on/off pairs, soft-interrupt dispatch)
 * — bundled with an IterationScript describing exactly what one loop
 * iteration does at the micro-architectural level.
 *
 * ubench::expectedPerIteration() is the analytic model: a third,
 * independent cycle bookkeeping that walks the *real* microcode image
 * word by word, but with its own self-contained implementations of
 * the timing rules in DESIGN.md §5 (IB fill engine, SBI occupancy,
 * write-buffer slots, cache sets, TB halves), driven only by the
 * script and a TimingParams struct of documented constants. It shares
 * no timing code with src/cpu or src/mem — agreement with the live
 * counters and the UPC histogram is therefore evidence, not identity.
 *
 * The model runs iterations until the per-iteration delta vector is
 * exactly periodic, then reports one steady-state period. The runner
 * measures the same steady state on the real machine by differencing
 * two runs of the same kernel at different loop counts (the delta
 * cancels the cold-start prologue and the halt tail), and the tests
 * assert exact integer equality of all obs counters, every histogram
 * bucket, and the cycle-conservation identity.
 *
 * Determinism by construction: kernels are designed so that no cache
 * set ever holds more live blocks than it has ways — the model's cache
 * panics if a fill would need the hardware's random replacement,
 * making the guarantee mechanical rather than aspirational.
 */

#ifndef UPC780_UBENCH_UBENCH_HH
#define UPC780_UBENCH_UBENCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "obs/counters.hh"
#include "ucode/controlstore.hh"
#include "ucode/decoded.hh"
#include "upc/histogram.hh"

namespace upc780::ubench
{

/**
 * The fixed timings of DESIGN.md §5, restated as data. The analytic
 * model consumes only this struct; perturbing one member must make the
 * model disagree with the machine (the negative-control tests), and
 * perturbing the corresponding machine config must do the same.
 */
struct TimingParams
{
    uint32_t sbiReadLatency = 6;   //!< cycles request -> data return
    uint32_t sbiWriteLatency = 6;  //!< cycles a write occupies the SBI
    uint32_t ibFillCycles = 2;     //!< min cycles for an IB longword
    uint32_t ibCapacity = 8;       //!< instruction-buffer bytes
    uint32_t wbDepth = 1;          //!< write-buffer entries
    uint32_t cacheSets = 512;      //!< 8KB / 2-way / 8B blocks
    uint32_t cacheWays = 2;
    uint32_t cacheBlockBytes = 8;
    uint32_t tbEntriesPerHalf = 64;
    bool cacheEnabled = true;
    bool mapped = false;           //!< address translation on
    uint32_t sbr = 0;              //!< system page-table base (mapped)

    /** The shipped design point. */
    static TimingParams design() { return TimingParams{}; }
};

/**
 * One D-stream reference a kernel instruction makes, as a linear
 * function of the iteration index (virtual address for ReadV/WriteV
 * words, physical for ReadP). TB-miss service PTE reads are *not*
 * listed — the model derives them from the missed VA, like the
 * microcode does.
 */
struct MemRef
{
    int64_t base = 0;
    int64_t stride = 0;   //!< bytes advanced per iteration (autoinc)
    uint32_t size = 4;

    arch::VAddr
    at(uint32_t iter) const
    {
        return static_cast<arch::VAddr>(base +
                                        static_cast<int64_t>(iter) * stride);
    }
};

/**
 * One instruction of a kernel iteration, pre-resolved against the
 * microcode image: which specifier routine each operand dispatches to
 * (and how many I-stream bytes it consumes), which execute entry the
 * decode selects (register-alternate already applied), what the branch
 * outcome is, and which D-stream references the instruction makes.
 */
struct KInstr
{
    uint8_t opcode = 0;

    struct Spec
    {
        ucode::UAddr entry = 0;  //!< 0: not a dispatched operand
        uint8_t encLen = 0;      //!< I-stream bytes of the specifier
    };
    std::array<Spec, 6> specs{};

    ucode::UAddr execEntry = 0;
    bool taken = false;          //!< branch-flag value at Exec/LoopDec
    arch::VAddr redirectTo = 0;  //!< TakeBranch/IntEnter target PC
    std::vector<MemRef> memRefs; //!< consumed in micro-word order
    bool tbFlushAll = false;     //!< MTPR #TBIA side effect at Exec
    bool intDispatch = false;    //!< pseudo-entry: interrupt dispatch
};

/** A generated microbenchmark. */
struct Kernel
{
    std::string name;

    // ----- machine construction ---------------------------------------
    struct Image
    {
        arch::VAddr base = 0;           //!< virtual load address
        std::vector<uint8_t> bytes;
    };
    std::vector<Image> images;
    /** Backdoor longword pokes at physical addresses (PTEs, SCB). */
    std::vector<std::pair<arch::PAddr, uint32_t>> memWords;
    /** Processor-register writes applied before reset. */
    std::vector<std::pair<uint32_t, uint32_t>> prWrites;
    /** GPR presets (data pointers, float operands). */
    std::vector<std::pair<unsigned, uint32_t>> gprWrites;
    unsigned loopReg = 6;               //!< SOBGTR counter register
    arch::VAddr entryPc = 0;            //!< loop head
    bool cacheEnabled = true;
    bool fpa = true;
    bool mapped = false;
    uint32_t wbDepth = 1;
    uint32_t sbr = 0;

    // ----- analytic script --------------------------------------------
    std::vector<KInstr> script;         //!< one steady-state iteration

    // ----- measurement plan -------------------------------------------
    uint32_t n1 = 64;                   //!< loop counts of the two runs
    uint32_t n2 = 112;                  //!< n2-n1 divisible by 1, 2, 4
};

/** The generated kernel classes, each forcing one behaviour. */
std::vector<Kernel> allKernels();

/** One steady-state period of expected behaviour. */
struct PerIteration
{
    uint64_t cycles = 0;                         //!< machine cycles
    std::array<uint64_t, obs::NumEvents> ev{};   //!< all 33 counters
    /** Sparse histogram: bucket -> (counts, stalls). */
    std::map<ucode::UAddr, std::pair<uint64_t, uint64_t>> hist;
    uint32_t period = 1;                         //!< iterations covered
    uint32_t itersToConverge = 0;                //!< model warm-up

    uint64_t value(obs::Ev e) const { return ev[size_t(e)]; }
};

/**
 * The analytic model: walk @p img under @p tp, driven by the kernel's
 * script, and return the exact per-period counter/histogram vector.
 * Panics (model bug or ill-formed kernel) rather than approximating.
 */
PerIteration expectedPerIteration(const Kernel &k,
                                  const ucode::MicrocodeImage &img,
                                  const TimingParams &tp);

/** Convenience: model the kernel under its own design-point params. */
PerIteration expectedPerIteration(const Kernel &k);

/**
 * Test-only machine perturbation hook for the negative controls: a
 * value < 0 keeps the shipped constant.
 */
struct RunOverrides
{
    int sbiReadLatency = -1;
    int sbiWriteLatency = -1;
    /** EBOX interpreter; the dual-dispatch differential tests run
     *  every kernel under both. */
    ucode::DispatchMode dispatch = ucode::DispatchMode::Threaded;
};

/** One full run of a kernel on the real machine. */
struct Measurement
{
    obs::Snapshot obs;          //!< counter registry snapshot
    upc::Histogram hist;        //!< UPC monitor board memory
    uint64_t machineCycles = 0;
    uint64_t monitorCycles = 0; //!< cycles the board observed
    uint64_t instructions = 0;
};

/**
 * Build the kernel's machine (counters + monitor + tracer attached,
 * matching the paper's full instrumentation) and run it to HALT with
 * @p iters loop iterations.
 */
Measurement runKernel(const Kernel &k, uint32_t iters,
                      const RunOverrides &ov = {});

/**
 * Like runKernel, but checkpoint the whole measurement mid-run — at
 * the first cycle boundary >= @p checkpoint_at — serialize machine,
 * monitor and counter registry, restore them into brand-new objects,
 * and finish the run on the restored copies. A correct snapshot layer
 * makes this byte-for-byte indistinguishable from runKernel.
 */
Measurement runKernelCheckpointed(const Kernel &k, uint32_t iters,
                                  uint64_t checkpoint_at);

/**
 * Measure one steady-state period on the real machine: run at n1 and
 * n2 iterations, difference, and divide by the number of periods.
 * Panics if any component of the delta is not exactly divisible —
 * i.e. if the machine is not actually periodic as the kernel claims.
 */
PerIteration measuredPerPeriod(const Kernel &k, uint32_t period,
                               const RunOverrides &ov = {});

} // namespace upc780::ubench

#endif // UPC780_UBENCH_UBENCH_HH
