#include "ucode/decoded.hh"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>

#include "ucode/controlstore.hh"

namespace upc780::ucode
{

// A pad row's runLen counts the pads from it to the end of its run, so
// it is bounded by the control-store size and always fits 16 bits.
static_assert(ControlStoreSize <= UINT16_MAX);

std::string_view
hxName(Hx h)
{
    return static_cast<size_t>(h) < std::size(forms)
               ? forms[static_cast<size_t>(h)].name
               : "?";
}

Hx
classifyUop(const MicroOp &op)
{
    for (const Form &f : forms)
        if (f.matches(op))
            return f.h;
    return Hx::Generic;
}

namespace
{

void
decodeInto(const MicrocodeImage &img, DecodedImage &d)
{
    d.source = &img;
    for (uint32_t a = 0; a < ControlStoreSize; ++a) {
        DecodedRow &r = d.rows[a];
        r.op = img.ops[a];
        r.h = classifyUop(r.op);
        r.memRead =
            r.op.mem == Mem::ReadV || r.op.mem == Mem::ReadP ? 1 : 0;
        r.memWrite = r.op.mem == Mem::WriteV ? 1 : 0;
        r.self = static_cast<UAddr>(a);
    }
    // Micro-trace superblocks: a Pad row's runLen is the number of
    // consecutive Pad rows starting at it, computed back to front so
    // each run is linked in one pass. The batch executor consumes a
    // whole run per dispatch.
    for (uint32_t a = ControlStoreSize; a-- > 0;) {
        DecodedRow &r = d.rows[a];
        if (r.h != Hx::Pad) {
            r.runLen = 0;
        } else if (a + 1 < ControlStoreSize &&
                   d.rows[a + 1].h == Hx::Pad) {
            r.runLen = static_cast<uint16_t>(d.rows[a + 1].runLen + 1);
        } else {
            r.runLen = 1;
        }
    }
}

} // namespace

std::shared_ptr<const DecodedImage>
decodedImage(const MicrocodeImage &img)
{
    static std::mutex mu;
    static std::map<const MicrocodeImage *,
                    std::weak_ptr<const DecodedImage>>
        cache;

    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(&img);
    if (it != cache.end()) {
        if (auto sp = it->second.lock())
            return sp;
    }
    auto d = std::make_shared<DecodedImage>();
    decodeInto(img, *d);
    cache[&img] = d;
    return d;
}

std::vector<std::string>
verifyDecoded(const MicrocodeImage &img, const DecodedImage &dec)
{
    std::vector<std::string> findings;
    auto flag = [&](uint32_t a, const std::string &what) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%04x: ", a);
        findings.push_back(buf + what);
    };

    if (dec.source != &img)
        findings.push_back("decoded image source does not identify "
                           "the audited image");

    for (uint32_t a = 0; a < ControlStoreSize; ++a) {
        const DecodedRow &r = dec.rows[a];
        const MicroOp &op = img.ops[a];
        if (std::memcmp(&r.op, &op, sizeof(MicroOp)) != 0) {
            flag(a, "decoded row does not copy its source word");
            continue;
        }
        if (r.h != classifyUop(op))
            flag(a, "fused form disagrees with the word's fields");
        if (r.self != a)
            flag(a, "decoded row self-address mismatch");
        bool rd = op.mem == Mem::ReadV || op.mem == Mem::ReadP;
        bool wr = op.mem == Mem::WriteV;
        if ((r.memRead != 0) != rd || (r.memWrite != 0) != wr)
            flag(a, "static read/write cycle class mismatch");
        if (r.h == Hx::Pad) {
            uint32_t expect = (a + 1 < ControlStoreSize &&
                               dec.rows[a + 1].h == Hx::Pad)
                                  ? dec.rows[a + 1].runLen + 1u
                                  : 1u;
            if (r.runLen != expect)
                flag(a, "pad superblock run length mismatch");
        } else if (r.runLen != 0) {
            flag(a, "non-pad row carries a superblock run length");
        }
    }
    return findings;
}

} // namespace upc780::ucode
