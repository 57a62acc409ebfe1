#include "serve/cache.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "machine/config_io.hh"
#include "serve/protocol.hh" // ServeError
#include "util/logging.hh"

namespace ccsim::serve {

void
QueryCache::touch(Entry &e)
{
    lru_.splice(lru_.begin(), lru_, e.lru);
}

void
QueryCache::evictOverflow()
{
    while (max_entries_ > 0 && map_.size() > max_entries_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

bool
QueryCache::lookup(const std::string &key, harness::Measurement &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    touch(it->second);
    out = it->second.meas;
    return true;
}

void
QueryCache::insert(const std::string &key,
                   const harness::Measurement &meas)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second.meas = meas;
        touch(it->second);
        return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{meas, lru_.begin()});
    evictOverflow();
}

bool
QueryCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.count(key) != 0;
}

std::size_t
QueryCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

stats::CacheStats
QueryCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
QueryCache::recordBypass()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bypassed;
}

void
QueryCache::setMaxEntries(std::size_t max)
{
    std::lock_guard<std::mutex> lock(mu_);
    max_entries_ = max;
    evictOverflow();
}

std::size_t
QueryCache::maxEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return max_entries_;
}

namespace {

/**
 * Cache-file header: "<magic> <format> key=<point-key version> <n>".
 * The key version is harness::kPointKeyVersion, so a file written by
 * a build with another key encoding is recognized as stale (its keys
 * could never hit) rather than loaded.
 */
constexpr const char *kCacheMagic = "ccsim-query-cache";
constexpr const char *kCacheFormat = "v2";

} // namespace

std::size_t
QueryCache::saveFile(const std::string &path) const
{
    // Snapshot under the lock, write outside it.
    std::vector<std::pair<std::string, harness::Measurement>> entries;
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries.reserve(map_.size());
        for (const std::string &key : lru_) {
            auto it = map_.find(key);
            entries.emplace_back(key, it->second.meas);
        }
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw ServeError("cannot write cache file " + path);
    std::fprintf(f, "%s %s key=%s %zu\n", kCacheMagic, kCacheFormat,
                 harness::kPointKeyVersion, entries.size());
    for (const auto &[key, meas] : entries) {
        std::fprintf(f, "%s\n", key.c_str());
        // Only the identity and the three times are ever non-default
        // in a cacheable Measurement (cacheable == clean machine).
        std::fprintf(f, "%s|%s|%s|%d|%" PRId64 "|%" PRId64 "|%" PRId64
                        "|%" PRId64 "\n",
                     meas.machine.c_str(),
                     machine::collKey(meas.op).c_str(),
                     machine::algoName(meas.algo).c_str(), meas.p,
                     meas.m, meas.max_time, meas.min_time,
                     meas.mean_time);
    }
    bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0)
        failed = true;
    if (failed)
        throw ServeError("write failed for cache file " + path);
    return entries.size();
}

namespace {

[[noreturn]] void
badCacheFile(const std::string &path, std::size_t line,
             const char *what)
{
    throw ConfigError(path + ":" + std::to_string(line) +
                      ": bad cache file: " + what);
}

machine::Coll
collFromKey(const std::string &path, std::size_t line,
            std::string_view key)
{
    if (auto op = machine::collFromKey(key))
        return *op;
    badCacheFile(path, line, "unknown collective");
}

/** Strict decimal integer: the whole field, nothing else. */
template <class Int>
bool
parseField(std::string_view field, Int &out)
{
    const char *end = field.data() + field.size();
    auto [ptr, ec] = std::from_chars(field.data(), end, out);
    return ec == std::errc() && ptr == end && !field.empty();
}

/** An entry's record line "machine|op|algo|p|m|max|min|mean". */
harness::Measurement
parseRecord(const std::string &path, std::size_t line,
            std::string_view rec)
{
    std::vector<std::string_view> f;
    for (std::size_t bar; (bar = rec.find('|')) != std::string_view::npos;
         rec.remove_prefix(bar + 1))
        f.push_back(rec.substr(0, bar));
    f.push_back(rec);

    harness::Measurement m;
    if (f.size() != 8 || f[0].empty() || !parseField(f[3], m.p) ||
        !parseField(f[4], m.m) || !parseField(f[5], m.max_time) ||
        !parseField(f[6], m.min_time) || !parseField(f[7], m.mean_time))
        badCacheFile(path, line, "bad entry record");
    m.machine = f[0];
    m.op = collFromKey(path, line, f[1]);
    m.algo = machine::algoFromName(std::string(f[2]));
    return m;
}

} // namespace

std::size_t
QueryCache::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return 0; // first start: nothing persisted yet

    std::size_t line = 0;
    auto getLine = [&](std::string &out) {
        if (!std::getline(in, out))
            return false;
        ++line;
        if (!out.empty() && out.back() == '\r')
            out.pop_back();
        return true;
    };

    std::string text;
    if (!getLine(text))
        badCacheFile(path, 1, "empty file");
    std::istringstream header(text);
    std::string magic, format, key_version, extra;
    std::size_t n = 0;
    header >> magic >> format;
    if (magic != kCacheMagic || format.empty())
        badCacheFile(path, line, "bad header");
    if (format == kCacheFormat) {
        header >> key_version;
        if (key_version.rfind("key=", 0) != 0 || !(header >> n) ||
            header >> extra)
            badCacheFile(path, line, "bad header");
        key_version.erase(0, 4);
    }
    if (format != kCacheFormat ||
        key_version != harness::kPointKeyVersion) {
        // Another build's key encoding: not one entry could ever hit,
        // so start cold; the clean stop rewrites the file.
        warn("%s: cache file written with a different key version "
             "(%s); starting with a cold cache",
             path.c_str(), text.c_str());
        return 0;
    }

    // Entries are saved hottest-first; inserting in REVERSE (coldest
    // first) reproduces the saved recency order, so a bounded cache
    // keeps the hottest prefix.
    std::vector<std::pair<std::string, harness::Measurement>> all;
    all.reserve(std::min<std::size_t>(n, 4096)); // n is untrusted
    for (std::size_t i = 0; i < n; ++i) {
        std::string key, rec;
        if (!getLine(key) || !getLine(rec))
            badCacheFile(path, line, "truncated entry");
        all.emplace_back(std::move(key), parseRecord(path, line, rec));
    }
    for (auto it = all.rbegin(); it != all.rend(); ++it)
        insert(it->first, it->second);
    return all.size();
}

} // namespace ccsim::serve
