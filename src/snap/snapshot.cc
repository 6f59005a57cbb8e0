#include "snap/snapshot.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hh"

namespace fs = std::filesystem;

namespace upc780::snap
{

namespace
{

/** Meta block encoding (shared by writer and reader). */
void
putMeta(ByteWriter &w, const SnapshotMeta &m)
{
    w.u32(static_cast<uint32_t>(m.kind));
    w.str(m.workload);
    w.u64(m.configHash);
    w.u64(m.cycle);
    w.u64(m.instructions);
    w.u32(m.attempt);
}

SnapshotMeta
getMeta(ByteReader &r)
{
    SnapshotMeta m;
    const uint32_t kind = r.u32();
    if (kind != static_cast<uint32_t>(SnapshotKind::Checkpoint) &&
        kind != static_cast<uint32_t>(SnapshotKind::Result) &&
        kind != static_cast<uint32_t>(SnapshotKind::CacheEntry)) {
        sim_throw(SnapshotError, "snapshot has unknown kind tag %u",
                  kind);
    }
    m.kind = static_cast<SnapshotKind>(kind);
    m.workload = r.str(1 << 10);
    m.configHash = r.u64();
    m.cycle = r.u64();
    m.instructions = r.u64();
    m.attempt = r.u32();
    return m;
}

} // namespace

void
SnapshotWriter::emit(const Sink &sink) const
{
    uint32_t crc = 0;
    const auto put = [&](const uint8_t *p, size_t n) {
        crc = crc32(p, n, crc);
        sink(p, n);
    };

    ByteWriter head;
    head.bytes(Magic, sizeof(Magic));
    head.u32(FormatVersion);
    putMeta(head, meta_);
    head.u32(static_cast<uint32_t>(sections_.size()));
    put(head.data().data(), head.size());
    for (const auto &[name, payload] : sections_) {
        ByteWriter frame;
        frame.str(name);
        frame.u64(payload.size());
        put(frame.data().data(), frame.size());
        put(payload.data(), payload.size());
    }
    ByteWriter trailer;
    trailer.u32(crc);
    sink(trailer.data().data(), trailer.size());
}

std::vector<uint8_t>
SnapshotWriter::finish() const
{
    std::vector<uint8_t> out;
    emit([&](const uint8_t *p, size_t n) { out.insert(out.end(), p, p + n); });
    return out;
}

void
SnapshotWriter::writeFile(const std::string &path) const
{
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    // Atomic publish: a reader either sees the complete old file, the
    // complete new file, or no file — never a torn write.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            sim_throw(SnapshotError, "cannot open '%s' for writing: %s",
                      tmp.c_str(), std::strerror(errno));
        emit([&](const uint8_t *p, size_t n) {
            out.write(reinterpret_cast<const char *>(p),
                      static_cast<std::streamsize>(n));
        });
        out.flush();
        if (!out)
            sim_throw(SnapshotError, "short write to '%s': %s",
                      tmp.c_str(), std::strerror(errno));
    }
    fs::rename(tmp, target, ec);
    if (ec)
        sim_throw(SnapshotError, "cannot publish '%s': %s", path.c_str(),
                  ec.message().c_str());
}

SnapshotReader::SnapshotReader(std::vector<uint8_t> bytes)
    : buf_(std::move(bytes))
{
    // The integrity ladder, coarsest check first so each failure mode
    // gets its own message.
    constexpr size_t MinSize =
        sizeof(Magic) + sizeof(uint32_t) /* version */ +
        sizeof(uint32_t) /* trailing CRC */;
    if (buf_.size() < MinSize)
        sim_throw(SnapshotError,
                  "snapshot truncated: %zu bytes is shorter than any "
                  "valid snapshot", buf_.size());
    if (std::memcmp(buf_.data(), Magic, sizeof(Magic)) != 0)
        sim_throw(SnapshotError, "not a snapshot (bad magic)");

    uint32_t version = 0;
    std::memcpy(&version, buf_.data() + sizeof(Magic), sizeof(version));
    if (version != FormatVersion)
        sim_throw(SnapshotError,
                  "unsupported snapshot format version %u (this build "
                  "reads version %u)", version, FormatVersion);

    const size_t body = buf_.size() - sizeof(uint32_t);
    uint32_t stored = 0;
    std::memcpy(&stored, buf_.data() + body, sizeof(stored));
    const uint32_t computed = crc32(buf_.data(), body);
    if (stored != computed)
        sim_throw(SnapshotError,
                  "snapshot corrupted: CRC mismatch (stored 0x%08x, "
                  "computed 0x%08x)", stored, computed);

    // Structure. The CRC passed, but a parse can still fail (e.g. a
    // writer bug), and the bounds-checked reader keeps that a typed
    // error.
    ByteReader r(buf_.data(), body);
    char magic[sizeof(Magic)];
    r.bytes(magic, sizeof(magic));
    r.u32(); // version, already checked
    meta_ = getMeta(r);
    const uint32_t count = r.u32();
    if (count > 1024)
        sim_throw(SnapshotError, "snapshot section count %u exceeds cap",
                  count);
    sections_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        Section s;
        s.name = r.str(1 << 10);
        const uint64_t n = r.size(buf_.size());
        s.size = static_cast<size_t>(n);
        s.offset = r.offset();
        if (r.remaining() < s.size)
            sim_throw(SnapshotError,
                      "snapshot section '%s' overruns the file",
                      s.name.c_str());
        r.skip(s.size);
        sections_.push_back(std::move(s));
    }
    r.expectEnd("snapshot container");
}

SnapshotReader
SnapshotReader::fromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        sim_throw(SnapshotError, "cannot open snapshot '%s': %s",
                  path.c_str(), std::strerror(errno));
    // One sized read; a size that cannot be taken (not a regular
    // file) or a read that comes up short is a read error.
    std::error_code ec;
    const uintmax_t size = fs::file_size(path, ec);
    std::vector<uint8_t> bytes;
    if (!ec) {
        bytes.resize(static_cast<size_t>(size));
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    if (ec || !in)
        sim_throw(SnapshotError, "error reading snapshot '%s'",
                  path.c_str());
    return SnapshotReader(std::move(bytes));
}

bool
SnapshotReader::has(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return true;
    return false;
}

ByteReader
SnapshotReader::open(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return ByteReader(buf_.data() + s.offset, s.size);
    sim_throw(SnapshotError, "snapshot has no '%s' section",
              name.c_str());
}

std::vector<std::string>
SnapshotReader::names() const
{
    std::vector<std::string> out;
    out.reserve(sections_.size());
    for (const Section &s : sections_)
        out.push_back(s.name);
    return out;
}

// ----- checkpoint policy -----------------------------------------------

void
CheckpointPolicy::scriptCrashes(std::vector<uint64_t> cycles)
{
    simulatedCrashCycles = std::move(cycles);
    maxRetries = std::max(
        maxRetries, static_cast<uint32_t>(simulatedCrashCycles.size()));
}

// ----- checkpoint file naming ------------------------------------------

std::string
sanitizeTaskId(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                        c == '_';
        out.push_back(ok ? c : '_');
    }
    if (out.empty())
        out = "task";
    return out;
}

std::string
taskId(const std::string &profileName, uint64_t seed)
{
    return sanitizeTaskId(profileName) + "-s" + std::to_string(seed);
}

std::string
checkpointPath(const std::string &dir, const std::string &taskId,
               uint64_t cycle)
{
    return (fs::path(dir) /
            (taskId + "-c" + std::to_string(cycle) + ".ckpt"))
        .string();
}

std::string
resultPath(const std::string &dir, const std::string &taskId)
{
    return (fs::path(dir) / (taskId + ".result")).string();
}

std::string
latestCheckpoint(const std::string &dir, const std::string &taskId)
{
    const std::string prefix = taskId + "-c";
    const std::string suffix = ".ckpt";

    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return {};

    std::string best;
    uint64_t best_cycle = 0;
    for (const fs::directory_entry &e : it) {
        const std::string name = e.path().filename().string();
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        const std::string digits = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        const uint64_t cycle = std::strtoull(digits.c_str(), nullptr, 10);
        if (best.empty() || cycle > best_cycle) {
            best = e.path().string();
            best_cycle = cycle;
        }
    }
    return best;
}

void
appendManifest(const std::string &dir, const std::string &line)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::ofstream out((fs::path(dir) / "manifest.txt").string(),
                      std::ios::app);
    if (out)
        out << line << "\n";
}

} // namespace upc780::snap
