/**
 * @file
 * CacheStats: the common counter triple every caching layer in the
 * simulator reports — hits (served from the cache), misses (computed
 * and stored), and bypassed (not eligible for caching at all).  Used
 * by the harness's collective-measurement memo cache; the network's
 * route cache and the transport's slot pools expose the same idea
 * through their own counters and fold into MetricsSnapshot keys.
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
