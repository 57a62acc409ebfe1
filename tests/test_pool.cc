/** @file Unit tests for the coroutine-frame pool. */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "sim/pool.hh"

namespace ccsim::sim {
namespace {

/**
 * Ranks finish a stage in lockstep, so thousands of same-sized frames
 * go back to the pool together and are drawn again at the next stage.
 * Every one of them must come back from the freelist: a per-class
 * bound narrower than the wave would send the surplus through malloc
 * on every stage.
 */
TEST(FramePool, SecondWaveComesFromTheFreelist)
{
    constexpr std::size_t kWave = 2048;
    constexpr std::size_t kBytes = 200; // one 64-byte size class

    FramePool pool;
    std::vector<void *> blocks;
    for (std::size_t i = 0; i < kWave; ++i)
        blocks.push_back(pool.allocate(kBytes));
    EXPECT_EQ(pool.counters().allocs, kWave);
    for (void *b : blocks)
        pool.release(b, kBytes);
    blocks.clear();

    const PoolCounters before = pool.counters();
    for (std::size_t i = 0; i < kWave; ++i)
        blocks.push_back(pool.allocate(kBytes));
    EXPECT_EQ(pool.counters().allocs - before.allocs, 0u);
    EXPECT_EQ(pool.counters().reuses - before.reuses, kWave);
    for (void *b : blocks)
        pool.release(b, kBytes);
}

/** Blocks past the largest size class bypass the freelists. */
TEST(FramePool, OversizeBlocksGoToTheHeap)
{
    constexpr std::size_t kBytes =
        FramePool::kGranule * FramePool::kClasses + 1;

    FramePool pool;
    void *b = pool.allocate(kBytes);
    pool.release(b, kBytes);
    b = pool.allocate(kBytes);
    pool.release(b, kBytes);
    EXPECT_EQ(pool.counters().oversize, 2u);
    EXPECT_EQ(pool.counters().reuses, 0u);
    EXPECT_EQ(pool.counters().allocs, 0u);
}

} // namespace
} // namespace ccsim::sim
