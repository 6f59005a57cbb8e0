/**
 * @file
 * Workload profiles: the statistical shape of the programs a
 * simulated user population runs. Five canned profiles reproduce the
 * paper's five measurement settings (§2.2): two live-timesharing
 * machines inside Digital engineering, and three RTE-driven synthetic
 * communities (educational, scientific/engineering, commercial
 * transaction processing).
 */

#ifndef UPC780_WORKLOAD_PROFILE_HH
#define UPC780_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace upc780
{
class ByteWriter;
}

namespace upc780::wkl
{

/** Relative weights of the code-block families a program is built of. */
struct BlockWeights
{
    double intLoop = 1.0;      //!< counted loops over scalar data
    double dataMove = 1.0;     //!< register/memory move chains
    double branchy = 1.0;      //!< compare-and-branch logic
    double callTree = 0.3;     //!< CALLS procedure call trees
    double subrCalls = 0.3;    //!< JSB/RSB leaf helpers
    double stringOps = 0.05;   //!< MOVC/CMPC/LOCC
    double floatKernel = 0.1;  //!< F/D floating arithmetic
    double intMulDiv = 0.1;    //!< integer multiply/divide
    double fieldOps = 0.2;     //!< EXTV/INSV/FFS bit fields
    double bitBranches = 0.2;  //!< BBS/BBC and BLBx tests
    double caseDispatch = 0.1; //!< CASEx jump tables
    double decimalOps = 0.0;   //!< packed decimal
    double queueOps = 0.05;    //!< INSQUE/REMQUE
    double sysWrite = 0.1;     //!< terminal-output system service
};

/** One workload (a machine-load configuration). */
struct WorkloadProfile
{
    std::string name;
    BlockWeights weights;
    uint32_t users = 15;          //!< simulated logged-in users
    uint32_t sessionRepeat = 1;  //!< body passes per terminal wait
    uint32_t dataPages = 48;      //!< per-process data footprint
    uint32_t codeBlocks = 520;     //!< static blocks per program
    double thinkMeanCycles = 150000;
    double loopIterMean = 10.0;   //!< paper §3.1: ~10 loop iterations
    uint64_t seed = 1;
};

/**
 * Append every field of @p p to @p w in one fixed order: the field list
 * both config fingerprints share (sim::configHash and the svc cache
 * key).
 */
void writeCanonical(ByteWriter &w, const WorkloadProfile &p);

/** Lightly loaded research-group machine (~15 users). */
WorkloadProfile timesharing1Profile();
/** CPU-development machine with circuit simulation (~30 users). */
WorkloadProfile timesharing2Profile();
/** RTE: 40 users doing program development. */
WorkloadProfile educationalProfile();
/** RTE: 40 users doing scientific computation. */
WorkloadProfile scientificProfile();
/** RTE: 32 users doing transaction processing. */
WorkloadProfile commercialProfile();

/**
 * RTE: bursty interactive use plus resident network daemons — the
 * 4.2BSD VAX networking/timesharing configuration class (SNIPPETS.md
 * snippet 1) the paper never measured. Not part of paperWorkloads():
 * Tables 1-9 stay the paper's composites; this profile has its own
 * golden (rte_bursty.json).
 */
WorkloadProfile burstyNetworkProfile();

/** The five paper workloads, in the paper's order. */
std::vector<WorkloadProfile> paperWorkloads();

/**
 * Profile for a workload id (ts1 ts2 edu sci com bursty); ConfigError
 * naming the id otherwise.
 */
WorkloadProfile profileById(const std::string &id);

} // namespace upc780::wkl

#endif // UPC780_WORKLOAD_PROFILE_HH
