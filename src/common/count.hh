/**
 * @file
 * The one strict parser for command-line counts: no CLI can take "abc"
 * for 0 or "-1" for 2^64 - 1.
 */

#ifndef UPC780_COMMON_COUNT_HH
#define UPC780_COMMON_COUNT_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace upc780
{

/** @p s (decimal, 0x hex or 0 octal) if it lies in [min, max]. */
inline std::optional<uint64_t>
parseCount(const char *s, uint64_t min = 1, uint64_t max = UINT64_MAX)
{
    if (!s || !std::isdigit(static_cast<unsigned char>(*s)))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (errno == ERANGE || *end || v < min || v > max)
        return std::nullopt;
    return v;
}

} // namespace upc780

#endif // UPC780_COMMON_COUNT_HH
