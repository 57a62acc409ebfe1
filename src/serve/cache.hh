/**
 * @file
 * QueryCache — the daemon's tier-1 answer store.
 *
 * Keys are harness::measurePointKey() strings (the DESIGN.md §4.11
 * memo canonicalization, with Algo::Auto resolved before the key is
 * formed), values are complete harness::Measurement records.  Because
 * both the key and the stored value come from the same deterministic
 * measurement path, a cache hit is byte-identical to re-simulating
 * the point — tests/test_serve.cc asserts equality field by field.
 *
 * The cache is shared by every connection thread and the backfill
 * pool, so all accessors take one internal mutex.
 *
 * Two hardening features for long-lived daemons:
 *
 *  - LRU bound: setMaxEntries(n) caps the store; inserting past the
 *    cap evicts the least-recently-*answered* entry and bumps the
 *    evictions counter (`serve.cache_evictions` in the metrics verb).
 *    0 (the default) keeps the historical unbounded behaviour.
 *  - persistence: saveFile() writes every entry in recency order
 *    (hottest first) to a versioned text file; loadFile() restores
 *    them through the normal insert path, so a bounded cache reloads
 *    its hottest prefix.  Values are deterministic simulation
 *    results, so a restart answers byte-identically to the run that
 *    wrote the file.
 */

#ifndef CCSIM_SERVE_CACHE_HH
#define CCSIM_SERVE_CACHE_HH

#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "harness/measure.hh"
#include "stats/cache_stats.hh"

namespace ccsim::serve {

/** Thread-safe key -> Measurement store; see file comment. */
class QueryCache
{
  public:
    /** Copy the entry for @p key into @p out and refresh its
     *  recency; false (and a recorded miss) when absent. */
    bool lookup(const std::string &key, harness::Measurement &out);

    /** Store (or overwrite — deterministic values make overwrites
     *  idempotent) the entry for @p key, evicting from the LRU tail
     *  while over the bound. */
    void insert(const std::string &key,
                const harness::Measurement &meas);

    /** True without touching the hit/miss counters or recency (for
     *  probes that are not answer attempts). */
    bool contains(const std::string &key) const;

    /** Number of distinct cached points. */
    std::size_t size() const;

    /** Lookup hit/miss/eviction counters (bypassed counts lookups of
     *  points that were never cacheable, recorded by the server). */
    stats::CacheStats stats() const;

    /** Record one lookup that skipped the cache (uncacheable point). */
    void recordBypass();

    /** Cap the entry count (0 = unbounded), evicting down to the new
     *  bound immediately. */
    void setMaxEntries(std::size_t max);

    std::size_t maxEntries() const;

    /** Write all entries (recency order, hottest first) to @p path;
     *  returns the entry count.  ServeError when unwritable. */
    std::size_t saveFile(const std::string &path) const;

    /** Insert every entry of a saveFile() document (oldest first, so
     *  the file's hottest entries end up most recent here); returns
     *  the count loaded.  ConfigError with a line number on malformed
     *  input; a missing file is NOT an error and loads 0 entries
     *  (first daemon start), and neither is a well-formed file of
     *  another format or point-key version (harness::kPointKeyVersion):
     *  its keys could never hit, so it loads 0 entries with one
     *  warning. */
    std::size_t loadFile(const std::string &path);

  private:
    struct Entry
    {
        harness::Measurement meas;
        std::list<std::string>::iterator lru; //!< position in lru_
    };

    /** Move @p it's entry to the front of the recency list. */
    void touch(Entry &e);

    /** Evict LRU-tail entries while over the bound (mu_ held). */
    void evictOverflow();

    mutable std::mutex mu_;
    std::list<std::string> lru_; //!< front = most recently used
    std::unordered_map<std::string, Entry> map_;
    std::size_t max_entries_ = 0; //!< 0 = unbounded
    stats::CacheStats stats_;
};

} // namespace ccsim::serve

#endif // CCSIM_SERVE_CACHE_HH
