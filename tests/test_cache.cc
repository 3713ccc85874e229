/**
 * @file
 * Unit tests for the set-associative cache array: hits/misses, LRU
 * eviction, dirty writebacks, invalidation, line classes, and the
 * per-class footprint cap EMCC uses for counters in L2.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "cache/cache.hh"
#include "cache/legacy_cache.hh"

namespace emcc {
namespace {

CacheArray
smallCache(unsigned sets = 4, unsigned assoc = 2)
{
    CacheArrayConfig cfg;
    cfg.assoc = assoc;
    cfg.size_bytes = static_cast<std::uint64_t>(sets) * assoc * kBlockBytes;
    return CacheArray("test", cfg);
}

/** Address landing in @p set with tag index @p tag (4-set cache). */
Addr
addrFor(unsigned set, unsigned tag, unsigned sets = 4)
{
    return Addr{(std::uint64_t{tag} * sets + set) * kBlockBytes};
}

TEST(CacheArray, Geometry)
{
    auto c = smallCache();
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.sizeBytes(), 4u * 2 * kBlockBytes);
}

TEST(CacheArray, MissThenHit)
{
    auto c = smallCache();
    EXPECT_FALSE(c.access(Addr{0x100}, LineClass::Data, false));
    c.insert(Addr{0x100}, LineClass::Data, false);
    EXPECT_TRUE(c.access(Addr{0x100}, LineClass::Data, false));
    EXPECT_EQ(c.stats().misses[0], 1u);
    EXPECT_EQ(c.stats().hits[0], 1u);
}

TEST(CacheArray, SubBlockAddressesAlias)
{
    auto c = smallCache();
    c.insert(Addr{0x100}, LineClass::Data, false);
    EXPECT_TRUE(c.access(Addr{0x13f}, LineClass::Data, false));
    EXPECT_TRUE(c.contains(Addr{0x101}));
}

TEST(CacheArray, LruEviction)
{
    auto c = smallCache();
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), d = addrFor(0, 3);
    c.insert(a, LineClass::Data, false);
    c.insert(b, LineClass::Data, false);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(c.access(a, LineClass::Data, false));
    auto victim = c.insert(d, LineClass::Data, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(CacheArray, DirtyVictimReported)
{
    auto c = smallCache();
    c.insert(addrFor(0, 1), LineClass::Data, true);
    c.insert(addrFor(0, 2), LineClass::Data, false);
    auto victim = c.insert(addrFor(0, 3), LineClass::Data, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, addrFor(0, 1));
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.stats().dirty_evictions[0], 1u);
}

TEST(CacheArray, WriteMarksDirty)
{
    auto c = smallCache();
    c.insert(Addr{0x40}, LineClass::Data, false);
    EXPECT_TRUE(c.access(Addr{0x40}, LineClass::Data, true));
    auto inv = c.invalidate(Addr{0x40});
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE(*inv);
}

TEST(CacheArray, MarkCleanClearsDirty)
{
    auto c = smallCache();
    c.insert(Addr{0x40}, LineClass::Data, true);
    c.markClean(Addr{0x40});
    auto inv = c.invalidate(Addr{0x40});
    ASSERT_TRUE(inv.has_value());
    EXPECT_FALSE(*inv);
}

TEST(CacheArray, InvalidateMissingReturnsNullopt)
{
    auto c = smallCache();
    EXPECT_FALSE(c.invalidate(Addr{0x999}).has_value());
}

TEST(CacheArray, ReinsertRefreshesNotEvicts)
{
    auto c = smallCache();
    c.insert(addrFor(0, 1), LineClass::Data, false);
    auto victim = c.insert(addrFor(0, 1), LineClass::Data, true);
    EXPECT_FALSE(victim.has_value());
    // Dirty flag sticky-ORed.
    auto inv = c.invalidate(addrFor(0, 1));
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE(*inv);
}

TEST(CacheArray, ClassAccounting)
{
    auto c = smallCache();
    c.insert(addrFor(0, 1), LineClass::Data, false);
    c.insert(addrFor(1, 1), LineClass::Counter, false);
    c.insert(addrFor(2, 1), LineClass::TreeNode, false);
    EXPECT_EQ(c.classCount(LineClass::Data), 1u);
    EXPECT_EQ(c.classCount(LineClass::Counter), 1u);
    EXPECT_EQ(c.classCount(LineClass::TreeNode), 1u);
    EXPECT_EQ(*c.residentClass(addrFor(1, 1)), LineClass::Counter);
}

TEST(CacheArray, CounterCapEvictsCounterLru)
{
    // 8 sets x 4 ways, counters capped at 2 blocks.
    CacheArrayConfig cfg;
    cfg.assoc = 4;
    cfg.size_bytes = 8u * 4 * kBlockBytes;
    cfg.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
        2 * kBlockBytes;
    CacheArray c("capped", cfg);

    // Counters in different sets, so set pressure is not the cause.
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(1, 1, 8),
               c3 = addrFor(2, 1, 8);
    c.insert(c1, LineClass::Counter, false);
    c.insert(c2, LineClass::Counter, false);
    EXPECT_EQ(c.classCount(LineClass::Counter), 2u);
    c.insert(c3, LineClass::Counter, false);
    EXPECT_EQ(c.classCount(LineClass::Counter), 2u);
    EXPECT_FALSE(c.contains(c1));   // class-LRU evicted
    EXPECT_TRUE(c.contains(c2));
    EXPECT_TRUE(c.contains(c3));
}

TEST(CacheArray, CapDoesNotEvictData)
{
    CacheArrayConfig cfg;
    cfg.assoc = 4;
    cfg.size_bytes = 8u * 4 * kBlockBytes;
    cfg.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
        kBlockBytes;
    CacheArray c("capped", cfg);
    c.insert(addrFor(0, 1, 8), LineClass::Data, false);
    c.insert(addrFor(1, 1, 8), LineClass::Counter, false);
    c.insert(addrFor(2, 1, 8), LineClass::Counter, false);
    EXPECT_TRUE(c.contains(addrFor(0, 1, 8)));
    EXPECT_EQ(c.classCount(LineClass::Counter), 1u);
    EXPECT_EQ(c.classCount(LineClass::Data), 1u);
}

TEST(CacheArray, TouchUpdatesClassLru)
{
    CacheArrayConfig cfg;
    cfg.assoc = 4;
    cfg.size_bytes = 8u * 4 * kBlockBytes;
    cfg.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
        2 * kBlockBytes;
    CacheArray c("capped", cfg);
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(1, 1, 8),
               c3 = addrFor(2, 1, 8);
    c.insert(c1, LineClass::Counter, false);
    c.insert(c2, LineClass::Counter, false);
    // Touch c1 so c2 is the class LRU.
    c.access(c1, LineClass::Counter, false);
    c.insert(c3, LineClass::Counter, false);
    EXPECT_TRUE(c.contains(c1));
    EXPECT_FALSE(c.contains(c2));
}

TEST(CacheArray, FlushAllEmpties)
{
    auto c = smallCache();
    c.insert(Addr{0x40}, LineClass::Data, true);
    c.insert(Addr{0x80}, LineClass::Counter, false);
    c.flushAll();
    EXPECT_FALSE(c.contains(Addr{0x40}));
    EXPECT_FALSE(c.contains(Addr{0x80}));
    EXPECT_EQ(c.classCount(LineClass::Data), 0u);
    EXPECT_EQ(c.classCount(LineClass::Counter), 0u);
}

TEST(CacheArray, NonPowerOfTwoSetCount)
{
    // 12 MB/core LLC sweeps produce non-power-of-two set counts; the
    // array must index correctly with modulo in that case.
    CacheArrayConfig cfg;
    cfg.assoc = 4;
    cfg.size_bytes = 12 * 4 * kBlockBytes;   // 12 sets
    CacheArray c("odd", cfg);
    EXPECT_EQ(c.numSets(), 12u);
    for (unsigned i = 0; i < 48; ++i)
        c.insert(Addr{std::uint64_t{i} * kBlockBytes}, LineClass::Data,
                 false);
    // Full occupancy reachable (every set usable).
    EXPECT_EQ(c.classCount(LineClass::Data), 48u);
    EXPECT_TRUE(c.access(Addr{47 * kBlockBytes}, LineClass::Data, false));
}

TEST(CacheArray, StatsAggregates)
{
    auto c = smallCache();
    c.access(Addr{0x40}, LineClass::Data, false);      // miss
    c.insert(Addr{0x40}, LineClass::Data, false);
    c.access(Addr{0x40}, LineClass::Counter, false);   // hit (counted as ctr)
    EXPECT_EQ(c.stats().hitsAll(), 1u);
    EXPECT_EQ(c.stats().missesAll(), 1u);
    c.resetStats();
    EXPECT_EQ(c.stats().hitsAll(), 0u);
}

TEST(CacheArray, CheckpointRoundTripAndOldTagPanics)
{
    auto c = smallCache();
    c.insert(Addr{0x40}, LineClass::Counter, true);
    c.setFlag(Addr{0x40}, true);
    CheckpointWriter w;
    c.saveState(w);
    const std::vector<std::uint8_t> image = w.take();

    auto d = smallCache();
    CheckpointReader r(image);
    d.restoreState(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(d.residentClass(Addr{0x40}), LineClass::Counter);
    EXPECT_TRUE(d.getFlag(Addr{0x40}));
    EXPECT_EQ(d.invalidate(Addr{0x40}), std::optional<bool>(true));

    // An image from before the packed-word layout carries the old tag.
    std::vector<std::uint8_t> old_image = image;
    const std::uint32_t old_tag = 0xcac4e001u;
    std::memcpy(old_image.data(), &old_tag, sizeof(old_tag));
    EXPECT_DEATH(
        {
            CheckpointReader old(old_image);
            smallCache().restoreState(old);
        },
        "tag mismatch");
}

// ---------------------------------------------------------------------
// Class-cap edge cases, run against BOTH the SoA array and the
// preserved node-based implementation: the differential harness in
// test_properties.cc checks agreement on random streams; these pin
// the corner-case semantics both must satisfy by name.

template <typename C>
class CacheImpl : public ::testing::Test
{
  protected:
    static C
    make(unsigned sets, unsigned assoc, std::uint64_t ctr_cap_blocks)
    {
        CacheArrayConfig cfg;
        cfg.assoc = assoc;
        cfg.size_bytes =
            static_cast<std::uint64_t>(sets) * assoc * kBlockBytes;
        cfg.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
            ctr_cap_blocks * kBlockBytes;
        return C("edge", cfg);
    }
};

using CacheImpls = ::testing::Types<CacheArray, legacy::CacheArray>;
TYPED_TEST_SUITE(CacheImpl, CacheImpls);

TYPED_TEST(CacheImpl, CapExactlyOneBlockKeepsOnlyNewestCounter)
{
    auto c = this->make(8, 4, /*ctr_cap_blocks=*/1);
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(1, 1, 8);
    c.insert(c1, LineClass::Counter, true);
    auto victim = c.insert(c2, LineClass::Counter, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, c1);
    EXPECT_EQ(victim->cls, LineClass::Counter);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.classCount(LineClass::Counter), 1u);
    EXPECT_FALSE(c.contains(c1));
    EXPECT_TRUE(c.contains(c2));
}

TYPED_TEST(CacheImpl, CapSmallerThanAssocBindsBeforeSetPressure)
{
    // assoc 4, counter cap 2: all counters map to the SAME set, which
    // still has free ways when the cap eviction must trigger.
    auto c = this->make(8, 4, /*ctr_cap_blocks=*/2);
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(0, 2, 8),
               c3 = addrFor(0, 3, 8);
    c.insert(c1, LineClass::Counter, false);
    c.insert(c2, LineClass::Counter, false);
    auto victim = c.insert(c3, LineClass::Counter, false);
    ASSERT_TRUE(victim.has_value()) << "cap must evict with ways free";
    EXPECT_EQ(victim->addr, c1);
    EXPECT_EQ(c.classCount(LineClass::Counter), 2u);
}

TYPED_TEST(CacheImpl, CounterCapEvictsWhileVictimSetDataIsAllMru)
{
    // The cap victim is chosen from the counter class-LRU list, not
    // from set recency: make every data line in the victim counter's
    // set maximally recent and check the counter still goes.
    auto c = this->make(8, 4, /*ctr_cap_blocks=*/2);
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(1, 1, 8),
               c3 = addrFor(2, 1, 8);
    const Addr d1 = addrFor(0, 2, 8), d2 = addrFor(0, 3, 8),
               d3 = addrFor(0, 4, 8);
    c.insert(c1, LineClass::Counter, false);
    c.insert(c2, LineClass::Counter, false);
    for (const Addr d : {d1, d2, d3}) {
        c.insert(d, LineClass::Data, false);
        c.access(d, LineClass::Data, false);   // MRU in c1's set
    }
    auto victim = c.insert(c3, LineClass::Counter, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, c1) << "must evict the class-LRU counter";
    EXPECT_EQ(victim->cls, LineClass::Counter);
    EXPECT_TRUE(c.contains(d1));
    EXPECT_TRUE(c.contains(d2));
    EXPECT_TRUE(c.contains(d3));
    EXPECT_EQ(c.classCount(LineClass::Data), 3u);
}

TYPED_TEST(CacheImpl, FlagSurvivesMarkClean)
{
    // §IV-F: the per-line flag (encrypted&unverified / decrypted-copy
    // bit) is orthogonal to the dirty bit — writing back a line must
    // not clear it.
    auto c = this->make(4, 2, 0);
    const Addr a = addrFor(0, 1);
    c.insert(a, LineClass::Data, true);
    c.setFlag(a, true);
    c.markClean(a);
    auto inv_dirty = c.invalidate(a);
    ASSERT_TRUE(inv_dirty.has_value());
    EXPECT_FALSE(*inv_dirty) << "markClean must clear dirty";
    c.insert(a, LineClass::Data, true);
    c.setFlag(a, true);
    c.markClean(a);
    EXPECT_TRUE(c.getFlag(a)) << "markClean must NOT clear the flag";
}

TYPED_TEST(CacheImpl, ReinsertedCounterIsNotNextCapVictim)
{
    // Regression for the class-LRU refresh on re-insert: inserting an
    // already-resident counter must move it to class-MRU, so the NEXT
    // cap eviction takes the other counter. (A stale class-LRU
    // position here would thrash the hottest counter block.)
    auto c = this->make(8, 4, /*ctr_cap_blocks=*/2);
    const Addr c1 = addrFor(0, 1, 8), c2 = addrFor(1, 1, 8),
               c3 = addrFor(2, 1, 8);
    c.insert(c1, LineClass::Counter, false);
    c.insert(c2, LineClass::Counter, false);
    // Re-insert c1 (e.g. a refill of the same block): refreshes LRU.
    auto refreshed = c.insert(c1, LineClass::Counter, false);
    EXPECT_FALSE(refreshed.has_value());
    auto victim = c.insert(c3, LineClass::Counter, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, c2) << "re-inserted counter became MRU";
    EXPECT_TRUE(c.contains(c1));
    EXPECT_FALSE(c.contains(c2));
}

} // namespace
} // namespace emcc
