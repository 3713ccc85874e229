/**
 * @file
 * Tests for FlatAddrMap, the open-addressing hot-path side table.
 *
 * The map backs per-core bookkeeping in SecureSystem (pending store
 * fills, in-flight counters, counter-usefulness state), so its
 * semantics must match the std::unordered_map calls it replaced:
 * emplace never overwrites, erase reports presence, find returns
 * null on miss. The randomized section cross-checks against
 * std::unordered_map through long insert/erase streams to exercise
 * backward-shift deletion and rehash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace emcc {
namespace {

Addr
blockAddr(std::uint64_t n)
{
    return Addr{n * kBlockBytes};
}

TEST(FlatAddrMap, EmptyFindAndErase)
{
    FlatAddrMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(blockAddr(3)), nullptr);
    EXPECT_FALSE(m.contains(blockAddr(3)));
    EXPECT_FALSE(m.erase(blockAddr(3)));
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatAddrMap, EmplaceDoesNotOverwrite)
{
    FlatAddrMap<int> m;
    EXPECT_TRUE(m.emplace(blockAddr(7), 1));
    EXPECT_FALSE(m.emplace(blockAddr(7), 2));   // already present
    ASSERT_NE(m.find(blockAddr(7)), nullptr);
    EXPECT_EQ(*m.find(blockAddr(7)), 1);        // first value kept
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, SubscriptInsertsDefaultAndAllowsWrite)
{
    FlatAddrMap<Tick> m;
    EXPECT_EQ(m[blockAddr(5)], Tick{});
    m[blockAddr(5)] = Tick{42};
    EXPECT_EQ(m[blockAddr(5)], Tick{42});
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, EraseThenReinsert)
{
    FlatAddrMap<bool> m;
    const Addr a = blockAddr(11);
    m.emplace(a, true);
    EXPECT_TRUE(m.erase(a));
    EXPECT_FALSE(m.contains(a));
    EXPECT_FALSE(m.erase(a));
    // The slot freed by the erase must be reusable.
    EXPECT_TRUE(m.emplace(a, false));
    ASSERT_NE(m.find(a), nullptr);
    EXPECT_FALSE(*m.find(a));
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatAddrMap, GrowsPastInitialCapacity)
{
    FlatAddrMap<std::uint64_t> m;
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(m.emplace(blockAddr(i), i));
    EXPECT_EQ(m.size(), 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t *v = m.find(blockAddr(i));
        ASSERT_NE(v, nullptr) << "key " << i;
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(m.contains(blockAddr(1000)));
}

TEST(FlatAddrMap, ChurnDoesNotGrowUnbounded)
{
    // Steady-state insert/erase (the hot pattern for the in-flight
    // tables): backward-shift erase must keep lookups correct through
    // many generations of the same small key set.
    FlatAddrMap<int> m;
    for (int round = 0; round < 10'000; ++round) {
        const Addr a = blockAddr(static_cast<std::uint64_t>(round % 8));
        ASSERT_TRUE(m.emplace(a, round));
        ASSERT_TRUE(m.erase(a));
    }
    EXPECT_TRUE(m.empty());
}

TEST(FlatAddrMap, ConstantSizeChurnKeepsCapacity)
{
    // Erase leaves no tombstones, so a table whose size stays put
    // never rehashes: the capacity after warm-up is the capacity
    // forever.
    FlatAddrMap<int> m;
    for (std::uint64_t k = 0; k < 8; ++k)
        ASSERT_TRUE(m.emplace(blockAddr(k), 0));
    const std::size_t cap = m.capacity();
    ASSERT_GT(cap, 0u);
    for (std::uint64_t round = 0; round < 10'000; ++round) {
        ASSERT_TRUE(m.erase(blockAddr(round)));
        ASSERT_TRUE(m.emplace(blockAddr(round + 8), 0));
        ASSERT_EQ(m.capacity(), cap) << "round " << round;
    }
    EXPECT_EQ(m.size(), 8u);
}

TEST(FlatAddrMap, EraseInClusterWrappingPastArrayEnd)
{
    // Gather keys whose home slot is one of the last three slots of
    // the 16-slot initial array: their probe run wraps past the end.
    // Erasing from the middle of the run must shift the wrapped
    // entries back so every survivor is still found.
    FlatAddrMap<std::uint64_t> m;
    ASSERT_TRUE(m.emplace(blockAddr(0), 0));
    const std::size_t cap = m.capacity();
    ASSERT_TRUE(m.erase(blockAddr(0)));
    ASSERT_EQ(cap, 16u);

    const auto home = [cap](std::uint64_t n) {
        const std::uint64_t x = blockAddr(n).value() >> 6;
        return static_cast<std::size_t>(
                   (x ^ (x >> 29)) * 0x9e3779b97f4a7c15ull >> 17) &
               (cap - 1);
    };
    std::vector<std::uint64_t> keys;
    for (std::uint64_t n = 1; keys.size() < 8; ++n) {
        if (home(n) >= cap - 3)
            keys.push_back(n);
    }
    for (const std::uint64_t k : keys)
        ASSERT_TRUE(m.emplace(blockAddr(k), k));
    ASSERT_EQ(m.capacity(), cap);   // 8 entries fit without growth

    for (std::size_t victim = 0; victim < keys.size(); ++victim) {
        ASSERT_TRUE(m.erase(blockAddr(keys[victim])));
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::uint64_t *v = m.find(blockAddr(keys[i]));
            if (i <= victim) {
                EXPECT_EQ(v, nullptr) << "erased key " << keys[i];
            } else {
                ASSERT_NE(v, nullptr) << "lost key " << keys[i]
                                      << " after erasing " << keys[victim];
                EXPECT_EQ(*v, keys[i]);
            }
        }
    }
    EXPECT_TRUE(m.empty());
}

TEST(FlatAddrMap, RandomStreamMatchesUnorderedMap)
{
    std::mt19937_64 rng(0xf1a7u);
    FlatAddrMap<std::uint32_t> dut;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    // Small key space forces heavy collision/erase-shift traffic.
    const std::uint64_t key_space = 64;

    for (int op = 0; op < 50'000; ++op) {
        const std::uint64_t k = rng() % key_space;
        const Addr a = blockAddr(k);
        switch (rng() % 4) {
          case 0: {
            const auto val = static_cast<std::uint32_t>(op);
            EXPECT_EQ(dut.emplace(a, val), ref.emplace(k, val).second);
            break;
          }
          case 1:
            EXPECT_EQ(dut.erase(a), ref.erase(k) > 0);
            break;
          case 2: {
            const std::uint32_t *v = dut.find(a);
            const auto it = ref.find(k);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr) << "key " << k << " op " << op;
            } else {
                ASSERT_NE(v, nullptr) << "key " << k << " op " << op;
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
          default:
            EXPECT_EQ(dut.contains(a), ref.count(k) > 0);
            break;
        }
        ASSERT_EQ(dut.size(), ref.size()) << "op " << op;
    }
}

} // namespace
} // namespace emcc
