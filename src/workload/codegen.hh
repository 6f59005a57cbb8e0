/**
 * @file
 * The program generator: synthesizes real VAX programs (code plus
 * initialized data) whose dynamic behaviour matches a workload
 * profile. Programs are structured as an endless session loop —
 * blocks of computation ending in a terminal-wait system service —
 * the shape of the interactive jobs the paper's RTE scripts replayed.
 */

#ifndef UPC780_WORKLOAD_CODEGEN_HH
#define UPC780_WORKLOAD_CODEGEN_HH

#include <cstdint>

#include "arch/assembler.hh"
#include "common/random.hh"
#include "os/kernel.hh"
#include "workload/profile.hh"

namespace upc780::wkl
{

/** Generates one process image from a profile. */
class ProgramGenerator
{
  public:
    ProgramGenerator(const WorkloadProfile &profile, uint64_t seed);

    /** Build a fresh program (each call yields a distinct one). */
    os::ProcessImage generate();

  private:
    friend os::ProcessShape programShape(const WorkloadProfile &p);

    // P0 layout of generated programs.
    static constexpr uint32_t CodeBytes = 24576;  //!< pages 0-47
    static constexpr uint32_t StackPages = 8;

    struct DataRefs
    {
        arch::VAddr base = 0;       //!< data region start
        uint32_t bytes = 0;
        arch::VAddr longArr = 0;    //!< scalar working array
        uint32_t longArrCount = 0;
        arch::VAddr byteArr = 0;    //!< selectors / scan targets
        uint32_t byteArrCount = 0;
        arch::VAddr strA = 0;       //!< string buffers
        arch::VAddr strB = 0;
        uint32_t strLen = 0;
        arch::VAddr floatArr = 0;
        uint32_t floatCount = 0;
        arch::VAddr bitmap = 0;
        uint32_t bitmapBytes = 0;
        arch::VAddr queueHdr = 0;
        arch::VAddr queueNodes = 0;
        uint32_t queueNodeCount = 0;
        arch::VAddr packedA = 0;
        arch::VAddr packedB = 0;
        arch::VAddr scratch = 0;
        arch::VAddr ptrTable = 0;   //!< valid pointers for deferred modes
        uint32_t ptrCount = 0;
        uint32_t hotStart = 0;      //!< hot-window start (long index)
        uint32_t hotCount = 0;
    };

    // Block emitters (each appends one activity block).
    void emitIntLoop(arch::Assembler &a);

    /**
     * One straight-line "statement": a short weighted mix of scalar
     * operations, compares-and-branches, tests and leaf calls. Loop
     * bodies and straight-line blocks are built from these.
     */
    void emitStatement(arch::Assembler &a);
    void emitDataMove(arch::Assembler &a);
    void emitBranchy(arch::Assembler &a);
    void emitCallTree(arch::Assembler &a);
    void emitSubrCalls(arch::Assembler &a);
    void emitStringOps(arch::Assembler &a);
    void emitFloatKernel(arch::Assembler &a);
    void emitIntMulDiv(arch::Assembler &a);
    void emitFieldOps(arch::Assembler &a);
    void emitBitBranches(arch::Assembler &a);
    void emitCaseDispatch(arch::Assembler &a);
    void emitDecimalOps(arch::Assembler &a);
    void emitQueueOps(arch::Assembler &a);
    void emitSysWrite(arch::Assembler &a);

    /** Helper routines callable via CALLS / JSB. */
    void emitFunctions(arch::Assembler &a);

    /** A random data-memory operand (paper Table 4 mode mix). */
    arch::Operand memOperand(bool allow_indexed = true);

    /** A random source operand: register / literal / memory. */
    arch::Operand srcOperand();

    /** Random offset into the long array (longword aligned). */
    int32_t longOff(Rng &rng) const;

    /** Fill the data region of @p image (the zeroed P0 image). */
    void initData(uint8_t *image);

    const WorkloadProfile &profile_;
    upc780::Rng rng_;
    DataRefs d_;
    std::vector<arch::Label> callTargets_;  //!< CALLS entry points
    std::vector<arch::Label> jsbTargets_;   //!< JSB entry points
};

/**
 * The shape every program of @p p has: known without generating any,
 * so a kernel can map a process's frames before its image exists.
 */
os::ProcessShape programShape(const WorkloadProfile &p);

/** Generate user @p user's program (0-based) of workload @p p. */
os::ProcessImage generateProgram(const WorkloadProfile &p, uint32_t user);

/** Build the full process set for one workload. */
std::vector<os::ProcessImage> buildWorkload(const WorkloadProfile &p);

} // namespace upc780::wkl

#endif // UPC780_WORKLOAD_CODEGEN_HH
