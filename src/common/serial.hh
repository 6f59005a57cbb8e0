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
 * A component whose checkpoint is a flat list of fields names that
 * list once, in a field walk:
 *
 *     template <class Self, class Ar> static void walk(Self &s, Ar &ar);
 *
 * serialize() runs it as walk(*this, writer) with Self = const T, and
 * deserialize() as walk(*this, reader). Both archives offer the same
 * field helpers under the same names: the writer's emit the field, the
 * reader's parse it and apply the check that comes with it — bounded
 * integers (`below`), range-checked enums (`enum8`), capped length-
 * prefixed containers (`vec32`/`vec64`), counts that must equal the
 * restoring machine's own size (`sameCount32`/`sameCount64`), Counters,
 * generator state and nested components; ucode::walkUAddr bounds a
 * micro-address by the control store. Restore-only work (re-deriving
 * caches, rebinding pointers) runs in deserialize() after the walk.
 * The two sparse encoders — PhysicalMemory pages and Histogram
 * buckets — are algorithms, not field lists, and stay hand-written
 * encoder/decoder pairs.
 *
 * The reader is fully bounds-checked and throws SnapshotError rather
 * than read past the buffer, so a truncated or corrupted payload is a
 * typed, recoverable failure. Container-level integrity (magic,
 * version, CRC) lives in snap/snapshot.hh; these classes guarantee
 * memory safety within one payload, and the walk helpers reject the
 * restored values that would index past a structure.
 */

#ifndef UPC780_COMMON_SERIAL_HH
#define UPC780_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"
#include "common/stats.hh"

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

    // ----- field-walk helpers (see the file comment) -------------------

    /** An integer in its own width; the reader wants it below a limit. */
    template <class T>
    void
    below(T v, uint64_t, const char *)
    {
        using U = std::make_unsigned_t<T>;
        const U u = static_cast<U>(v);
        if constexpr (sizeof(U) == 1)
            u8(u);
        else if constexpr (sizeof(U) == 2)
            u16(u);
        else if constexpr (sizeof(U) == 4)
            u32(u);
        else
            u64(u);
    }

    /** An enum as one byte; the reader wants it at most its last. */
    template <class E>
    void
    enum8(E e, E, const char *)
    {
        u8(static_cast<uint8_t>(e));
    }

    void counter(const Counter &c) { u64(c.value()); }

    /** A count the reader requires to equal its own size. */
    void sameCount32(size_t n, const char *) { u32(static_cast<uint32_t>(n)); }
    void sameCount64(size_t n, const char *) { u64(n); }

    /** Length-prefixed container, each element through @p each. */
    template <class C, class F>
    void
    vec32(const C &c, uint32_t, F &&each)
    {
        u32(static_cast<uint32_t>(c.size()));
        for (const auto &e : c)
            each(e);
    }

    template <class C, class F>
    void
    vec64(const C &c, uint64_t, F &&each)
    {
        u64(c.size());
        for (const auto &e : c)
            each(e);
    }

    void str(const std::string &s, uint64_t) { str(s); }

    /** A generator's state words (anything with state()/setState()). */
    template <class R>
    void
    rng(const R &r)
    {
        for (uint64_t s : r.state())
            u64(s);
    }

    /** A component with its own serialize()/deserialize(). */
    template <class T>
    void
    nested(const T &t)
    {
        t.serialize(*this);
    }

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

    // ----- field-walk helpers (see the file comment) -------------------

    void u8(uint8_t &v) { v = u8(); }
    void u16(uint16_t &v) { v = u16(); }
    void u32(uint32_t &v) { v = u32(); }
    void u64(uint64_t &v) { v = u64(); }
    void i32(int32_t &v) { v = i32(); }
    void i64(int64_t &v) { v = i64(); }
    void f64(double &v) { v = f64(); }
    void b(bool &v) { v = b(); }
    void str(std::string &s, uint64_t max) { s = str(max); }

    /**
     * An integer in its own width that must be below @p limit (signed
     * values compare as their unsigned bit pattern, so a negative one
     * is out of range too).
     */
    template <class T>
    void
    below(T &v, uint64_t limit, const char *what)
    {
        using U = std::make_unsigned_t<T>;
        U u;
        if constexpr (sizeof(U) == 1)
            u = u8();
        else if constexpr (sizeof(U) == 2)
            u = u16();
        else if constexpr (sizeof(U) == 4)
            u = u32();
        else
            u = u64();
        if (u >= limit)
            sim_throw(SnapshotError,
                      "snapshot payload: %s %llu out of range (limit "
                      "%llu) at offset %zu", what,
                      static_cast<unsigned long long>(u),
                      static_cast<unsigned long long>(limit),
                      pos_ - sizeof(U));
        v = static_cast<T>(u);
    }

    /** An enum byte that must not exceed @p last. */
    template <class E>
    void
    enum8(E &e, E last, const char *what)
    {
        const uint8_t v = u8();
        if (v > static_cast<uint8_t>(last))
            sim_throw(SnapshotError,
                      "snapshot payload: bad %s value %u at offset %zu",
                      what, v, pos_ - 1);
        e = static_cast<E>(v);
    }

    void counter(Counter &c) { c.set(u64()); }

    /** A count that must equal this machine's own @p n. */
    void sameCount32(size_t n, const char *what) { sameCount(u32(), n, what); }
    void sameCount64(size_t n, const char *what) { sameCount(u64(), n, what); }

    /** Length-prefixed container (count capped at @p max). */
    template <class C, class F>
    void
    vec32(C &c, uint32_t max, F &&each)
    {
        c.resize(size32(max));
        for (auto &e : c)
            each(e);
    }

    template <class C, class F>
    void
    vec64(C &c, uint64_t max, F &&each)
    {
        c.resize(static_cast<size_t>(size(max)));
        for (auto &e : c)
            each(e);
    }

    template <class R>
    void
    rng(R &r)
    {
        auto s = r.state();
        for (uint64_t &v : s)
            v = u64();
        r.setState(s);
    }

    template <class T>
    void
    nested(T &t)
    {
        t.deserialize(*this);
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
    sameCount(uint64_t got, size_t n, const char *what) const
    {
        if (got != n)
            sim_throw(SnapshotError,
                      "snapshot payload: %s %llu does not match this "
                      "machine's %zu", what,
                      static_cast<unsigned long long>(got), n);
    }

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

/**
 * 64-bit FNV-1a: the snapshot config hash, the cache-entry metadata
 * hash and the control-store image hash. The offset basis is one digit
 * short of the published one (14695981039346656037); every pinned hash
 * was computed with it, so it stays. Pass a previous result as @p h to
 * continue a running hash.
 */
constexpr uint64_t Fnv1aOffset = 1469598103934665603ull;
constexpr uint64_t Fnv1aPrime = 1099511628211ull;

inline uint64_t
fnv1a(const uint8_t *p, size_t n, uint64_t h = Fnv1aOffset)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= Fnv1aPrime;
    }
    return h;
}

inline uint64_t
fnv1a(const std::vector<uint8_t> &v, uint64_t h = Fnv1aOffset)
{
    return fnv1a(v.data(), v.size(), h);
}

} // namespace upc780

#endif // UPC780_COMMON_SERIAL_HH
