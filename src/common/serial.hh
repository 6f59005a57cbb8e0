/**
 * @file
 * Binary serialization primitives for machine-state snapshots.
 *
 * Every stateful component of the modeled machine exposes
 * `serialize(ByteWriter&) const` / `deserialize(ByteReader&)` built on
 * these two classes. The encoding is deliberately dumb: fixed-width
 * little-endian integers, doubles as IEEE-754 bit patterns, strings
 * and blobs length-prefixed. Dumb is what bit-exactness wants — there
 * is exactly one byte sequence for a given machine state, so the
 * snapshot tests can compare restored state by comparing bytes.
 *
 * The reader is fully bounds-checked and throws SnapshotError (never
 * crashes, never reads past the buffer) so a truncated or corrupted
 * snapshot is a typed, recoverable failure. Container-level integrity
 * (magic, version, CRC) lives in snap/snapshot.hh; these classes only
 * guarantee memory safety within one payload.
 */

#ifndef UPC780_COMMON_SERIAL_HH
#define UPC780_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hh"

namespace upc780
{

/** Append-only little-endian byte stream. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern: doubles round-trip exactly. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    bytes(const void *p, size_t n)
    {
        const uint8_t *s = static_cast<const uint8_t *>(p);
        buf_.insert(buf_.end(), s, s + n);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Length-prefixed blob. */
    void
    blob(const std::vector<uint8_t> &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }

    /** Make room for @p n more bytes, so they append without regrowth. */
    void reserve(size_t n) { buf_.reserve(buf_.size() + n); }

    const std::vector<uint8_t> &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked reader over a byte buffer; throws SnapshotError. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size())
    {}

    uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint16_t
    u16()
    {
        uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (uint16_t{u8()} << 8));
    }

    uint32_t
    u32()
    {
        uint32_t lo = u16();
        return lo | (uint32_t{u16()} << 16);
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        return lo | (uint64_t{u32()} << 32);
    }

    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }

    bool
    b()
    {
        uint8_t v = u8();
        if (v > 1)
            sim_throw(SnapshotError,
                      "snapshot payload: bad boolean byte 0x%02x at "
                      "offset %zu", v, pos_ - 1);
        return v != 0;
    }

    void
    bytes(void *p, size_t n)
    {
        need(n);
        std::memcpy(p, data_ + pos_, n);
        pos_ += n;
    }

    /**
     * Length prefix with a sanity cap: a CRC-colliding corruption must
     * not be able to request a multi-terabyte allocation.
     */
    uint64_t
    size(uint64_t max)
    {
        uint64_t n = u64();
        if (n > max)
            sim_throw(SnapshotError,
                      "snapshot payload: length %llu exceeds cap %llu "
                      "at offset %zu",
                      static_cast<unsigned long long>(n),
                      static_cast<unsigned long long>(max), pos_ - 8);
        return n;
    }

    /** u32 length prefix with a sanity cap (the common vector count). */
    uint32_t
    size32(uint32_t max)
    {
        uint32_t n = u32();
        if (n > max)
            sim_throw(SnapshotError,
                      "snapshot payload: count %u exceeds cap %u at "
                      "offset %zu", n, max, pos_ - 4);
        return n;
    }

    std::string
    str(uint64_t max = 1 << 20)
    {
        uint64_t n = size(max);
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    std::vector<uint8_t>
    blob(uint64_t max = 1ull << 32)
    {
        uint64_t n = size(max);
        need(n);
        std::vector<uint8_t> v(data_ + pos_,
                               data_ + pos_ + static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return v;
    }

    /** Advance past @p n bytes without reading them. */
    void
    skip(size_t n)
    {
        need(n);
        pos_ += n;
    }

    size_t remaining() const { return size_ - pos_; }
    size_t offset() const { return pos_; }
    bool done() const { return pos_ == size_; }

    /** Assert the payload was consumed exactly (catches drift). */
    void
    expectEnd(const char *what) const
    {
        if (!done())
            sim_throw(SnapshotError,
                      "snapshot payload '%s': %zu trailing bytes",
                      what, remaining());
    }

  private:
    void
    need(size_t n) const
    {
        if (size_ - pos_ < n)
            sim_throw(SnapshotError,
                      "snapshot payload truncated: need %zu bytes at "
                      "offset %zu of %zu", n, pos_, size_);
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the snapshot
 * container checksum. Pass a previous result as @p seed to continue a
 * running checksum: crc32(b, nb, crc32(a, na)) is the CRC of a
 * followed by b.
 */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

} // namespace upc780

#endif // UPC780_COMMON_SERIAL_HH
