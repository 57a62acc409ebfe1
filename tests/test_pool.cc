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
    constexpr std::size_t kBytes = 200; // one size class

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

/**
 * Live bytes are the block bytes out now, a pooled block counting
 * its whole size class; the high-water mark is their most since the
 * pool began or since restartPeak().
 */
TEST(FramePool, LiveBytesAndTheirHighWaterMark)
{
    constexpr std::size_t kClassBytes = 7 * FramePool::kGranule;
    constexpr std::size_t kOversize =
        FramePool::kGranule * FramePool::kClasses + 1;

    FramePool pool;
    void *a = pool.allocate(kClassBytes - 1);
    void *b = pool.allocate(kOversize);
    EXPECT_EQ(pool.counters().live_bytes, kClassBytes + kOversize);
    pool.release(b, kOversize);
    EXPECT_EQ(pool.counters().live_bytes, kClassBytes);
    EXPECT_EQ(pool.counters().peak_bytes, kClassBytes + kOversize);

    pool.restartPeak();
    EXPECT_EQ(pool.counters().peak_bytes, kClassBytes);
    pool.release(a, kClassBytes - 1);
    b = pool.allocate(1);
    EXPECT_EQ(pool.counters().live_bytes, FramePool::kGranule);
    EXPECT_EQ(pool.counters().peak_bytes, kClassBytes);
    pool.release(b, 1);
}

} // namespace
} // namespace ccsim::sim
