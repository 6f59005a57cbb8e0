/**
 * @file
 * Cache-key canonicalization property tests (the daemon's
 * content-addressing contract, svc/cachekey.hh):
 *
 *  - equal job specs hash equal, however the request JSON was
 *    formatted or member-ordered;
 *  - every documented config field perturbation changes the key, and
 *    reverting the perturbation restores it (two-sided, so the test
 *    refutes both under- and over-canonicalization);
 *  - fields documented as outside the key (tenant, cache_only) do not
 *    change it;
 *  - the SHA-256 and control-store content-hash building blocks match
 *    known answers / are stable across calls.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "svc/cachekey.hh"
#include "svc/job.hh"
#include "common/json.hh"
#include "svc/sha256.hh"
#include "ucode/controlstore.hh"

using namespace upc780;

namespace
{

std::string
keyOf(const std::string &requestText)
{
    return svc::cacheKey(svc::parseJobSpec(json::parse(requestText)));
}

const char *BaseRequest =
    R"({"tenant":"alice","workloads":["ts1","ts2"],"instructions":5000,)"
    R"("warmup":1000,"replications":2,"seed":7,)"
    R"("machine":{"fpa":true,"rmode_decode":true,)"
    R"("cache":{"size_bytes":8192,"ways":2,"block_bytes":8,"enabled":true},)"
    R"("sbi":{"read_latency":6,"write_latency":2},)"
    R"("write_buffer_depth":1,"mem_size":8388608,)"
    R"("tb":{"entries_per_half":64,"enabled":true}},)"
    R"("exclude_idle":true,"report":false,"cache_only":false})";

} // namespace

TEST(CacheKey, IsLowercaseHexSha256)
{
    const std::string k = keyOf(BaseRequest);
    ASSERT_EQ(k.size(), 64u);
    for (char c : k)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << "unexpected key character '" << c << "'";
}

TEST(CacheKey, EqualSpecsHashEqual)
{
    // Same document, re-ordered members and re-spaced: one spec, one
    // key. The wire format must never leak into the address.
    const char *reordered =
        R"({ "seed": 7, "report": false, "cache_only": false,)"
        R"( "machine": { "tb": {"enabled": true, "entries_per_half": 64},)"
        R"( "mem_size": 8388608, "write_buffer_depth": 1,)"
        R"( "sbi": {"write_latency": 2, "read_latency": 6},)"
        R"( "cache": {"enabled": true, "block_bytes": 8, "ways": 2,)"
        R"( "size_bytes": 8192}, "rmode_decode": true, "fpa": true },)"
        R"( "replications": 2, "warmup": 1000, "instructions": 5000,)"
        R"( "workloads": ["ts1", "ts2"], "tenant": "alice" })";
    EXPECT_EQ(keyOf(BaseRequest), keyOf(reordered));
}

TEST(CacheKey, DefaultsMaterializeToTheSameKey)
{
    // A minimal request and one spelling out every default must agree:
    // the key addresses the canonical spec, not the request text.
    const char *minimal = R"({"workloads":["ts1"]})";
    const char *explicit_ =
        R"({"tenant":"default","workloads":["ts1"],"instructions":20000,)"
        R"("warmup":4000,"replications":1,"seed":0,"exclude_idle":true,)"
        R"("report":false,"cache_only":false})";
    EXPECT_EQ(keyOf(minimal), keyOf(explicit_));
}

TEST(CacheKey, PaperShorthandEqualsExplicitList)
{
    EXPECT_EQ(keyOf(R"({"workloads":"paper"})"),
              keyOf(R"({"workloads":["ts1","ts2","edu","sci","com"]})"));
}

TEST(CacheKey, ExcludedFieldsDoNotChangeTheKey)
{
    const std::string base = keyOf(BaseRequest);
    // Tenant is fairness identity; cache_only is fetch mode. Neither
    // reaches the simulation, so neither may split the cache.
    std::string t = BaseRequest;
    t.replace(t.find("\"alice\""), 7, "\"bobby\"");
    EXPECT_EQ(keyOf(t), base) << "tenant leaked into the cache key";

    std::string c = BaseRequest;
    c.replace(c.find("\"cache_only\":false"), 18, "\"cache_only\":true");
    EXPECT_EQ(keyOf(c), base) << "cache_only leaked into the cache key";
}

TEST(CacheKey, EveryDocumentedFieldPerturbationChangesTheKey)
{
    // (substring-to-replace, replacement) per documented field; the
    // base request sets every field to a non-default value where that
    // matters, so each edit below is a genuine single-field change.
    const std::vector<std::pair<const char *, const char *>> perturbs = {
        {"\"workloads\":[\"ts1\",\"ts2\"]",
         "\"workloads\":[\"ts2\",\"ts1\"]"}, // run order is meaningful
        {"\"workloads\":[\"ts1\",\"ts2\"]", "\"workloads\":[\"ts1\"]"},
        {"\"instructions\":5000", "\"instructions\":5001"},
        {"\"warmup\":1000", "\"warmup\":1001"},
        {"\"replications\":2", "\"replications\":3"},
        {"\"seed\":7", "\"seed\":8"},
        {"\"fpa\":true", "\"fpa\":false"},
        {"\"rmode_decode\":true", "\"rmode_decode\":false"},
        {"\"size_bytes\":8192", "\"size_bytes\":4096"},
        {"\"ways\":2", "\"ways\":1"},
        {"\"block_bytes\":8", "\"block_bytes\":16"},
        {"\"cache\":{\"size_bytes\":8192,\"ways\":2,\"block_bytes\":8,"
         "\"enabled\":true}",
         "\"cache\":{\"size_bytes\":8192,\"ways\":2,\"block_bytes\":8,"
         "\"enabled\":false}"},
        {"\"read_latency\":6", "\"read_latency\":7"},
        {"\"write_latency\":2", "\"write_latency\":3"},
        {"\"write_buffer_depth\":1", "\"write_buffer_depth\":2"},
        {"\"mem_size\":8388608", "\"mem_size\":4194304"},
        {"\"entries_per_half\":64", "\"entries_per_half\":128"},
        {"\"tb\":{\"entries_per_half\":64,\"enabled\":true}",
         "\"tb\":{\"entries_per_half\":64,\"enabled\":false}"},
        {"\"exclude_idle\":true", "\"exclude_idle\":false"},
        // report shapes the reply bytes, so it must be in the key.
        {"\"report\":false", "\"report\":true"},
    };

    const std::string base = keyOf(BaseRequest);
    for (const auto &[needle, replacement] : perturbs) {
        std::string mutated = BaseRequest;
        const size_t at = mutated.find(needle);
        ASSERT_NE(at, std::string::npos)
            << "test bug: '" << needle << "' not in the base request";
        mutated.replace(at, std::string(needle).size(), replacement);

        // Two-sided: the perturbation moves the key, and re-deriving
        // from the unperturbed text lands back on the original —
        // interleaved on purpose, so hidden global state in the hash
        // path would be caught.
        EXPECT_NE(keyOf(mutated), base)
            << "perturbation had no effect: " << replacement;
        EXPECT_EQ(keyOf(BaseRequest), base)
            << "base key drifted after hashing: " << replacement;
    }
}

TEST(CacheKey, DefaultPaperJobKeyPinned)
{
    // The key of the default paper job, pinned so a refactor of the
    // canonical preimage cannot move every cached reply's address.
    EXPECT_EQ(keyOf(R"({"workloads":"paper"})"),
              "0f6b01272c7e6fd50bbb7b51b5147c5b15250c987443c40b"
              "9681df018a8682df");
}

TEST(CacheKey, MachineBytesCoverEveryDocumentedField)
{
    // canonicalMachineBytes is the machine half of the preimage; a
    // field that serializes identically for two different configs
    // would alias cache entries.
    cpu::MachineConfig a;
    const auto base = svc::canonicalMachineBytes(a);
    const auto perturbed = [&](auto &&edit) {
        cpu::MachineConfig m;
        edit(m);
        return svc::canonicalMachineBytes(m);
    };
    using M = cpu::MachineConfig;
    EXPECT_NE(perturbed([](M &m) { m.mem.cache.sizeBytes /= 2; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.cache.ways = 1; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.cache.blockBytes *= 2; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.cache.enabled = false; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.sbi.readLatency += 1; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.sbi.writeLatency += 1; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.writeBufferDepth += 1; }), base);
    EXPECT_NE(perturbed([](M &m) { m.mem.memSize /= 2; }), base);
    EXPECT_NE(perturbed([](M &m) { m.tb.entriesPerHalf *= 2; }), base);
    EXPECT_NE(perturbed([](M &m) { m.tb.enabled = false; }), base);
    EXPECT_NE(perturbed([](M &m) { m.fpa = !m.fpa; }), base);
    EXPECT_NE(perturbed([](M &m) { m.rmodeDecode = !m.rmodeDecode; }),
              base);
}

TEST(CacheKey, ImageContentHashDistinguishesShippedImages)
{
    const uint64_t withFpa =
        ucode::imageContentHash(ucode::microcodeImage());
    const uint64_t withoutFpa =
        ucode::imageContentHash(ucode::microcodeImageNoFpa());
    EXPECT_NE(withFpa, withoutFpa);
    // Pinned: every cached result is filed under these values.
    EXPECT_EQ(withFpa, 0x7dc329f37ed0011dull);
    EXPECT_EQ(withoutFpa, 0x1a64f782b02ec4d3ull);
    // Memoized: asking again is the same answer (and cheap).
    EXPECT_EQ(ucode::imageContentHash(ucode::microcodeImage()), withFpa);
    EXPECT_EQ(ucode::imageContentHash(ucode::microcodeImageNoFpa()),
              withoutFpa);
}

TEST(CacheKey, ImageContentHashFollowsContentAtAReusedAddress)
{
    // Two custom images built one after the other in the same stack
    // slot: the second differs from the first in two words, so it must
    // hash differently, although it lives at the same address.
    const ucode::MicrocodeImage &stock = ucode::microcodeImage();
    std::optional<ucode::MicrocodeImage> slot;

    slot.emplace(stock);
    const ucode::MicrocodeImage *first = &*slot;
    const uint64_t clean = ucode::imageContentHash(*slot);
    EXPECT_EQ(clean, ucode::imageContentHash(stock));

    slot.reset();
    slot.emplace(stock);
    ASSERT_EQ(&*slot, first);
    slot->ops[slot->marks.abort].mem = ucode::Mem::WriteV;
    slot->ops[slot->marks.decode].arg ^= 1;
    EXPECT_NE(ucode::imageContentHash(*slot), clean);
    EXPECT_EQ(ucode::imageContentHash(stock), clean);
}

TEST(Sha256, KnownAnswers)
{
    EXPECT_EQ(svc::sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(svc::sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(svc::sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                             "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    // Block-boundary straddles (55/56/64 bytes) exercise the padding
    // paths that single-block inputs never reach.
    EXPECT_EQ(svc::sha256Hex(std::string(56, 'a')),
              "b35439a4ac6f0948b6d6f9e3c6af0f5f"
              "590ce20f1bde7090ef7970686ec6738a");
    EXPECT_EQ(svc::sha256Hex(std::string(64, 'a')),
              "ffe054fe7ae0cb6dc65c3af9b61d5209"
              "f439851db43d0ba5997337df154668eb");
}
