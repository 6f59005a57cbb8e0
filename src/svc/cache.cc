#include "svc/cache.hh"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "snap/snapshot.hh"

namespace fs = std::filesystem;

namespace upc780::svc
{

namespace
{

constexpr const char *PayloadSection = "reply";

bool
looksLikeKey(const std::string &name)
{
    if (name.size() != 64)
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    });
}

} // namespace

ResultCache::ResultCache(std::string dir, uint64_t budgetBytes)
    : dir_(std::move(dir)), budget_(budgetBytes)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        sim_throw(ConfigError, "result cache: cannot create '%s': %s",
                  dir_.c_str(), ec.message().c_str());
    indexExisting();
}

std::string
ResultCache::pathFor(const std::string &key) const
{
    return dir_ + "/" + key.substr(0, 2) + "/" + key;
}

void
ResultCache::indexExisting()
{
    // Oldest-first by mtime so the rebuilt LRU list approximates the
    // pre-restart recency order (front = most recent).
    struct Found
    {
        std::string key;
        uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    std::error_code ec;
    for (const auto &sub : fs::directory_iterator(dir_, ec)) {
        if (!sub.is_directory())
            continue;
        for (const auto &e : fs::directory_iterator(sub.path(), ec)) {
            const std::string name = e.path().filename().string();
            if (!e.is_regular_file() || !looksLikeKey(name))
                continue;
            std::error_code fec;
            const uint64_t size = e.file_size(fec);
            const auto mtime = e.last_write_time(fec);
            if (!fec)
                found.push_back({name, size, mtime});
        }
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime < b.mtime;
              });
    for (const Found &f : found) {
        lru_.push_front({f.key, f.size});
        index_[f.key] = lru_.begin();
        stats_.bytes += f.size;
    }
}

void
ResultCache::touchLocked(std::list<Entry>::iterator it)
{
    lru_.splice(lru_.begin(), lru_, it);
    // Persist recency for post-restart indexing; best effort.
    std::error_code ec;
    fs::last_write_time(pathFor(it->key),
                        fs::file_time_type::clock::now(), ec);
}

void
ResultCache::dropLocked(std::list<Entry>::iterator it, bool corrupted)
{
    std::error_code ec;
    fs::remove(pathFor(it->key), ec);
    stats_.bytes -= std::min(stats_.bytes, it->size);
    if (corrupted)
        ++stats_.corruptDropped;
    else
        ++stats_.evictions;
    index_.erase(it->key);
    lru_.erase(it);
}

std::optional<std::string>
ResultCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    try {
        const auto snap = snap::SnapshotReader::fromFile(pathFor(key));
        if (snap.meta().kind != snap::SnapshotKind::CacheEntry)
            sim_throw(SnapshotError, "cache entry '%s' has wrong "
                      "snapshot kind", key.c_str());
        ByteReader payload = snap.open(PayloadSection);
        std::string value = payload.str(1ull << 32);
        payload.expectEnd(PayloadSection);
        touchLocked(it->second);
        ++stats_.hits;
        return value;
    } catch (const SimError &e) {
        // Torn, truncated, bit-flipped, or foreign: heal by dropping
        // the entry and recomputing upstream.
        warn("result cache: dropping unreadable entry %s: %s",
             key.c_str(), e.what());
        dropLocked(it->second, true);
        ++stats_.misses;
        return std::nullopt;
    }
}

void
ResultCache::put(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Same key means same bytes (content addressing); just
        // refresh recency.
        touchLocked(it->second);
        return;
    }

    snap::SnapshotMeta meta;
    meta.kind = snap::SnapshotKind::CacheEntry;
    meta.workload = key.substr(0, 16); // advisory only
    meta.configHash = fnv1a(
        reinterpret_cast<const uint8_t *>(key.data()), key.size());
    snap::SnapshotWriter w(meta);
    ByteWriter payload;
    payload.str(value);
    w.add(PayloadSection, std::move(payload));
    w.writeFile(pathFor(key));

    std::error_code ec;
    const uint64_t size = fs::file_size(pathFor(key), ec);
    lru_.push_front({key, ec ? value.size() : size});
    index_[key] = lru_.begin();
    stats_.bytes += lru_.front().size;
    ++stats_.puts;
    evictLocked(key);
}

void
ResultCache::evictLocked(const std::string &keep)
{
    if (!budget_)
        return;
    while (stats_.bytes > budget_ && !lru_.empty()) {
        auto victim = std::prev(lru_.end());
        if (victim->key == keep) {
            // The newest entry alone exceeds the budget: keep it (a
            // cache that refuses its only entry would never hit).
            if (lru_.size() == 1)
                return;
            victim = std::prev(victim);
        }
        dropLocked(victim, false);
    }
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace upc780::svc
