#include "workload/profile.hh"

#include "common/error.hh"
#include "common/serial.hh"

namespace upc780::wkl
{

void
writeCanonical(ByteWriter &w, const WorkloadProfile &p)
{
    w.str(p.name);
    w.f64(p.weights.intLoop);
    w.f64(p.weights.dataMove);
    w.f64(p.weights.branchy);
    w.f64(p.weights.callTree);
    w.f64(p.weights.subrCalls);
    w.f64(p.weights.stringOps);
    w.f64(p.weights.floatKernel);
    w.f64(p.weights.intMulDiv);
    w.f64(p.weights.fieldOps);
    w.f64(p.weights.bitBranches);
    w.f64(p.weights.caseDispatch);
    w.f64(p.weights.decimalOps);
    w.f64(p.weights.queueOps);
    w.f64(p.weights.sysWrite);
    w.u32(p.users);
    w.u32(p.sessionRepeat);
    w.u32(p.dataPages);
    w.u32(p.codeBlocks);
    w.f64(p.thinkMeanCycles);
    w.f64(p.loopIterMean);
    w.u64(p.seed);
}

WorkloadProfile
timesharing1Profile()
{
    WorkloadProfile p;
    p.name = "timesharing-1 (research group, ~15 users)";
    p.users = 15;
    p.weights.intLoop = 1.2;
    p.weights.dataMove = 1.4;
    p.weights.branchy = 2.160;
    p.weights.callTree = 4.095;
    p.weights.subrCalls = 1.664;
    p.weights.stringOps = 1.404;
    p.weights.floatKernel = 0.274;
    p.weights.intMulDiv = 0.187;
    p.weights.fieldOps = 0.958;
    p.weights.bitBranches = 0.620;
    p.weights.caseDispatch = 2.400;
    p.weights.queueOps = 0.720;
    p.weights.sysWrite = 1.451;
    p.dataPages = 104;
    p.thinkMeanCycles = 73920;
    p.seed = 0x1111;
    return p;
}

WorkloadProfile
timesharing2Profile()
{
    WorkloadProfile p;
    p.name = "timesharing-2 (CPU development, ~30 users)";
    p.users = 30;
    p.weights.intLoop = 1.3;
    p.weights.dataMove = 1.3;
    p.weights.branchy = 2.340;
    p.weights.callTree = 4.095;
    p.weights.subrCalls = 1.872;
    p.weights.stringOps = 1.170;
    p.weights.floatKernel = 0.993;  // circuit simulation
    p.weights.intMulDiv = 0.234;
    p.weights.fieldOps = 1.151;      // microcode development tools
    p.weights.bitBranches = 0.725;
    p.weights.caseDispatch = 2.400;
    p.weights.queueOps = 0.864;
    p.weights.sysWrite = 1.210;
    p.dataPages = 128;
    p.thinkMeanCycles = 50400;
    p.seed = 0x2222;
    return p;
}

WorkloadProfile
educationalProfile()
{
    WorkloadProfile p;
    p.name = "RTE educational (40 users, program development)";
    p.users = 40;
    p.weights.intLoop = 1.2;
    p.weights.dataMove = 1.4;
    p.weights.branchy = 2.520;
    p.weights.callTree = 4.684;
    p.weights.subrCalls = 1.872;
    p.weights.stringOps = 1.873;  // editing and file manipulation
    p.weights.floatKernel = 0.220;
    p.weights.intMulDiv = 0.156;
    p.weights.fieldOps = 0.842;
    p.weights.bitBranches = 0.580;
    p.weights.caseDispatch = 2.800;
    p.weights.queueOps = 0.720;
    p.weights.sysWrite = 1.693;
    p.dataPages = 96;
    p.thinkMeanCycles = 60479;
    p.seed = 0x3333;
    return p;
}

WorkloadProfile
scientificProfile()
{
    WorkloadProfile p;
    p.name = "RTE scientific/engineering (40 users)";
    p.users = 40;
    p.weights.intLoop = 1.3;
    p.weights.dataMove = 1.2;
    p.weights.branchy = 1.980;
    p.weights.callTree = 4.095;
    p.weights.subrCalls = 1.456;
    p.weights.stringOps = 0.936;
    p.weights.floatKernel = 1.927;  // scientific computation
    p.weights.intMulDiv = 0.312;
    p.weights.fieldOps = 0.691;
    p.weights.bitBranches = 0.414;
    p.weights.caseDispatch = 1.600;
    p.weights.queueOps = 0.576;
    p.weights.sysWrite = 0.968;
    p.dataPages = 144;
    p.thinkMeanCycles = 53760;
    p.seed = 0x4444;
    return p;
}

WorkloadProfile
commercialProfile()
{
    WorkloadProfile p;
    p.name = "RTE commercial transaction processing (32 users)";
    p.users = 32;
    p.weights.intLoop = 1.1;
    p.weights.dataMove = 1.4;
    p.weights.branchy = 2.340;
    p.weights.callTree = 4.684;
    p.weights.subrCalls = 1.664;
    p.weights.stringOps = 2.340;   // record handling
    p.weights.floatKernel = 0.110;
    p.weights.intMulDiv = 0.156;
    p.weights.fieldOps = 0.842;
    p.weights.bitBranches = 0.538;
    p.weights.caseDispatch = 2.800;
    p.weights.decimalOps = 0.972;  // currency arithmetic
    p.weights.queueOps = 1.440;      // database work queues
    p.weights.sysWrite = 1.934;     // transactional inquiries
    p.dataPages = 120;
    p.thinkMeanCycles = 40320;
    p.seed = 0x5555;
    return p;
}

WorkloadProfile
burstyNetworkProfile()
{
    WorkloadProfile p;
    p.name = "RTE bursty interactive + network daemons (24 users)";
    p.users = 24;
    // Interactive bursts: short think times, several editor/shell
    // round-trips per wait, heavy terminal traffic.
    p.sessionRepeat = 3;
    p.weights.intLoop = 1.0;
    p.weights.dataMove = 1.6;       // mbuf-style buffer shuffling
    p.weights.branchy = 2.520;      // protocol state machines
    p.weights.callTree = 3.276;
    p.weights.subrCalls = 2.080;    // small fast-path helpers
    p.weights.stringOps = 1.640;    // packet copy/compare
    p.weights.floatKernel = 0.055;
    p.weights.intMulDiv = 0.125;    // checksum folding
    p.weights.fieldOps = 1.260;     // header bit fields
    p.weights.bitBranches = 0.870;  // flag words
    p.weights.caseDispatch = 3.200; // demux on protocol/port
    p.weights.queueOps = 2.160;     // interface and socket queues
    p.weights.sysWrite = 2.420;     // daemon chatter
    p.dataPages = 88;
    p.thinkMeanCycles = 30240;      // bursty: short inter-arrival
    p.seed = 0x6666;
    return p;
}

std::vector<WorkloadProfile>
paperWorkloads()
{
    return {timesharing1Profile(), timesharing2Profile(),
            educationalProfile(), scientificProfile(),
            commercialProfile()};
}

WorkloadProfile
profileById(const std::string &id)
{
    if (id == "ts1")
        return timesharing1Profile();
    if (id == "ts2")
        return timesharing2Profile();
    if (id == "edu")
        return educationalProfile();
    if (id == "sci")
        return scientificProfile();
    if (id == "com")
        return commercialProfile();
    if (id == "bursty")
        return burstyNetworkProfile();
    sim_throw(ConfigError,
              "unknown workload id '%s' (want ts1 ts2 edu sci com bursty)",
              id.c_str());
}

} // namespace upc780::wkl
