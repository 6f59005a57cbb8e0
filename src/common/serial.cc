#include "common/serial.hh"

#include <array>

namespace upc780
{

namespace
{

/**
 * Slicing-by-8 tables: row 0 is the classic byte-at-a-time table, and
 * row k advances a byte's contribution through k further zero bytes,
 * so eight input bytes fold into the CRC with eight independent
 * lookups.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

/** Little-endian 32-bit load (one instruction on little-endian hosts). */
uint32_t
le32(const uint8_t *p)
{
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const uint32_t lo = le32(data) ^ c;
        const uint32_t hi = le32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace upc780
