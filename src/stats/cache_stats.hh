/**
 * @file
 * CacheStats: the counters every caching layer in the simulator
 * reports — hits (served from the cache), misses (computed and
 * stored), bypassed (not eligible for caching at all) and evictions
 * (dropped by a bound).  Used by the harness's measurement memo,
 * which is also the `ccsim serve` daemon's answer store, and by the
 * serve fast path's fit store; the transport's slot pools expose the
 * same idea through their own counters and fold into MetricsSnapshot
 * keys.
 */

#ifndef CCSIM_STATS_CACHE_STATS_HH
#define CCSIM_STATS_CACHE_STATS_HH

#include <cstdint>

namespace ccsim::stats {

/** Monotonic hit/miss/bypass counters of one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;     //!< lookups served from the cache
    std::uint64_t misses = 0;   //!< lookups computed and stored
    std::uint64_t bypassed = 0; //!< requests not eligible for caching
    std::uint64_t evictions = 0; //!< entries dropped by a bound (only
                                 //!< bounded caches ever set this)
};

} // namespace ccsim::stats

#endif // CCSIM_STATS_CACHE_STATS_HH
