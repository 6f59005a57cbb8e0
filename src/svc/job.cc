#include "svc/job.hh"

#include <algorithm>

#include "common/random.hh"

namespace upc780::svc
{

namespace
{

/** Reject members outside the documented schema (strict admission). */
void
checkKnown(const json::Value &obj,
           std::initializer_list<const char *> keys, const char *what)
{
    for (const auto &[k, v] : obj.asObject()) {
        (void)v;
        if (std::none_of(keys.begin(), keys.end(),
                         [&](const char *s) { return k == s; }))
            sim_throw(ConfigError, "job %s: unknown member '%s'", what,
                      k.c_str());
    }
}

uint64_t
getU64(const json::Value &obj, const char *key, uint64_t dflt,
       uint64_t min, uint64_t max, const char *what)
{
    const json::Value *v = obj.find(key);
    uint64_t u = dflt;
    if (v) {
        if (!v->isInt() || v->asInt() < 0)
            sim_throw(ConfigError,
                      "job %s: '%s' must be a non-negative integer",
                      what, key);
        u = v->asUint();
    }
    if (u < min || u > max)
        sim_throw(ConfigError,
                  "job %s: '%s' = %llu out of range [%llu, %llu]", what,
                  key, static_cast<unsigned long long>(u),
                  static_cast<unsigned long long>(min),
                  static_cast<unsigned long long>(max));
    return u;
}

bool
getBool(const json::Value &obj, const char *key, bool dflt,
        const char *what)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return dflt;
    if (!v->isBool())
        sim_throw(ConfigError, "job %s: '%s' must be a boolean", what,
                  key);
    return v->asBool();
}

bool
powerOfTwo(uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

void
parseMachine(const json::Value &mv, cpu::MachineConfig &m)
{
    checkKnown(mv, {"fpa", "rmode_decode", "cache", "sbi",
                    "write_buffer_depth", "mem_size", "tb"},
               "machine");
    m.fpa = getBool(mv, "fpa", m.fpa, "machine");
    m.rmodeDecode =
        getBool(mv, "rmode_decode", m.rmodeDecode, "machine");
    m.mem.writeBufferDepth = static_cast<uint32_t>(
        getU64(mv, "write_buffer_depth", m.mem.writeBufferDepth, 1, 64,
               "machine"));
    m.mem.memSize = static_cast<uint32_t>(
        getU64(mv, "mem_size", m.mem.memSize, 1u << 20, 64u << 20,
               "machine"));

    if (const json::Value *cv = mv.find("cache")) {
        checkKnown(*cv, {"size_bytes", "ways", "block_bytes", "enabled"},
                   "machine.cache");
        mem::CacheConfig &c = m.mem.cache;
        c.sizeBytes = static_cast<uint32_t>(getU64(
            *cv, "size_bytes", c.sizeBytes, 64, 1u << 20,
            "machine.cache"));
        c.ways = static_cast<uint32_t>(
            getU64(*cv, "ways", c.ways, 1, 8, "machine.cache"));
        c.blockBytes = static_cast<uint32_t>(getU64(
            *cv, "block_bytes", c.blockBytes, 4, 64, "machine.cache"));
        c.enabled = getBool(*cv, "enabled", c.enabled, "machine.cache");
        if (!powerOfTwo(c.ways) || !powerOfTwo(c.blockBytes))
            sim_throw(ConfigError, "job machine.cache: ways and "
                      "block_bytes must be powers of two");
        if (c.sizeBytes % (c.ways * c.blockBytes) != 0 ||
            !powerOfTwo(c.sizeBytes / (c.ways * c.blockBytes)))
            sim_throw(ConfigError,
                      "job machine.cache: size_bytes = %u does not "
                      "yield a power-of-two set count for %u ways of "
                      "%u-byte blocks", c.sizeBytes, c.ways,
                      c.blockBytes);
    }
    if (const json::Value *sv = mv.find("sbi")) {
        checkKnown(*sv, {"read_latency", "write_latency"},
                   "machine.sbi");
        m.mem.sbi.readLatency = static_cast<uint32_t>(
            getU64(*sv, "read_latency", m.mem.sbi.readLatency, 1, 1000,
                   "machine.sbi"));
        m.mem.sbi.writeLatency = static_cast<uint32_t>(
            getU64(*sv, "write_latency", m.mem.sbi.writeLatency, 1,
                   1000, "machine.sbi"));
    }
    if (const json::Value *tv = mv.find("tb")) {
        checkKnown(*tv, {"entries_per_half", "enabled"}, "machine.tb");
        m.tb.entriesPerHalf = static_cast<uint32_t>(
            getU64(*tv, "entries_per_half", m.tb.entriesPerHalf, 1,
                   4096, "machine.tb"));
        m.tb.enabled = getBool(*tv, "enabled", m.tb.enabled,
                               "machine.tb");
        if (!powerOfTwo(m.tb.entriesPerHalf))
            sim_throw(ConfigError, "job machine.tb: entries_per_half "
                      "must be a power of two");
    }
}

} // namespace

JobSpec
parseJobSpec(const json::Value &request, const AdmissionLimits &limits)
{
    if (!request.isObject())
        sim_throw(ConfigError, "job request must be a JSON object");
    checkKnown(request,
               {"tenant", "workloads", "instructions", "warmup",
                "replications", "seed", "machine", "exclude_idle",
                "report", "cache_only"},
               "request");

    JobSpec spec;
    if (const json::Value *t = request.find("tenant")) {
        if (!t->isString() || t->asString().empty() ||
            t->asString().size() > 64)
            sim_throw(ConfigError, "job request: 'tenant' must be a "
                      "non-empty string of at most 64 chars");
        spec.tenant = t->asString();
    }

    const json::Value *wl = request.find("workloads");
    if (!wl)
        sim_throw(ConfigError, "job request: 'workloads' is required");
    if (wl->isString() && wl->asString() == "paper") {
        // Canonical ids, not display names: the five paper profiles in
        // paper order.
        spec.workloads = {"ts1", "ts2", "edu", "sci", "com"};
    } else if (wl->isArray()) {
        for (const json::Value &v : wl->asArray()) {
            if (!v.isString())
                sim_throw(ConfigError, "job request: 'workloads' "
                          "entries must be strings");
            wkl::profileById(v.asString()); // validates the id
            spec.workloads.push_back(v.asString());
        }
    } else {
        sim_throw(ConfigError, "job request: 'workloads' must be an "
                  "array of ids or the string \"paper\"");
    }
    if (spec.workloads.empty() ||
        spec.workloads.size() > limits.maxWorkloads)
        sim_throw(ConfigError,
                  "job request: want 1..%zu workloads, got %zu",
                  limits.maxWorkloads, spec.workloads.size());

    spec.instructions = getU64(request, "instructions",
                               spec.instructions, 1,
                               limits.maxInstructions, "request");
    spec.warmup = getU64(request, "warmup", spec.warmup, 0,
                         limits.maxInstructions, "request");
    spec.replications = static_cast<uint32_t>(
        getU64(request, "replications", spec.replications, 1,
               limits.maxReplications, "request"));
    spec.seed =
        getU64(request, "seed", spec.seed, 0, UINT64_MAX, "request");
    spec.excludeIdle = getBool(request, "exclude_idle",
                               spec.excludeIdle, "request");
    spec.report = getBool(request, "report", spec.report, "request");
    spec.cacheOnly =
        getBool(request, "cache_only", spec.cacheOnly, "request");

    if (const json::Value *mv = request.find("machine")) {
        if (!mv->isObject())
            sim_throw(ConfigError,
                      "job request: 'machine' must be an object");
        parseMachine(*mv, spec.machine);
    }
    return spec;
}

json::Value
jobSpecToJson(const JobSpec &spec)
{
    json::Value machine = json::object();
    machine.set("fpa", spec.machine.fpa);
    machine.set("rmode_decode", spec.machine.rmodeDecode);
    json::Value cache = json::object();
    cache.set("size_bytes", uint64_t{spec.machine.mem.cache.sizeBytes});
    cache.set("ways", uint64_t{spec.machine.mem.cache.ways});
    cache.set("block_bytes",
              uint64_t{spec.machine.mem.cache.blockBytes});
    cache.set("enabled", spec.machine.mem.cache.enabled);
    machine.set("cache", std::move(cache));
    json::Value sbi = json::object();
    sbi.set("read_latency", uint64_t{spec.machine.mem.sbi.readLatency});
    sbi.set("write_latency",
            uint64_t{spec.machine.mem.sbi.writeLatency});
    machine.set("sbi", std::move(sbi));
    machine.set("write_buffer_depth",
                uint64_t{spec.machine.mem.writeBufferDepth});
    machine.set("mem_size", uint64_t{spec.machine.mem.memSize});
    json::Value tb = json::object();
    tb.set("entries_per_half",
           uint64_t{spec.machine.tb.entriesPerHalf});
    tb.set("enabled", spec.machine.tb.enabled);
    machine.set("tb", std::move(tb));

    json::Value req = json::object();
    req.set("tenant", spec.tenant);
    json::Value wl = json::array();
    for (const std::string &id : spec.workloads)
        wl.push(id);
    req.set("workloads", std::move(wl));
    req.set("instructions", spec.instructions);
    req.set("warmup", spec.warmup);
    req.set("replications", uint64_t{spec.replications});
    req.set("seed", spec.seed);
    req.set("machine", std::move(machine));
    req.set("exclude_idle", spec.excludeIdle);
    req.set("report", spec.report);
    req.set("cache_only", spec.cacheOnly);
    return req;
}

std::vector<wkl::WorkloadProfile>
profilesFor(const JobSpec &spec)
{
    std::vector<wkl::WorkloadProfile> profiles;
    profiles.reserve(spec.workloads.size());
    for (size_t i = 0; i < spec.workloads.size(); ++i) {
        wkl::WorkloadProfile p = wkl::profileById(spec.workloads[i]);
        if (spec.seed)
            p.seed = deriveSeed(spec.seed, i);
        profiles.push_back(std::move(p));
    }
    return profiles;
}

sim::ExperimentConfig
toExperimentConfig(const JobSpec &spec)
{
    sim::ExperimentConfig cfg;
    cfg.machine = spec.machine;
    cfg.instructionsPerWorkload = spec.instructions;
    cfg.warmupInstructions = spec.warmup;
    cfg.excludeIdle = spec.excludeIdle;
    return cfg;
}

} // namespace upc780::svc
