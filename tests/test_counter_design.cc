/**
 * @file
 * Tests for the counter organizations: coverage, address mapping,
 * counter-value uniqueness, and split-counter overflow behaviour for
 * SC-64 and Morphable Counters.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "secmem/counter_design.hh"

namespace emcc {
namespace {

TEST(CounterDesign, FactoryAndNames)
{
    auto mono = CounterDesign::create(CounterDesignKind::Monolithic);
    auto sc = CounterDesign::create(CounterDesignKind::Sc64);
    auto morph = CounterDesign::create(CounterDesignKind::Morphable);
    EXPECT_STREQ(mono->name(), "monolithic");
    EXPECT_STREQ(sc->name(), "SC-64");
    EXPECT_STREQ(morph->name(), "Morphable");
}

TEST(CounterDesign, CoverageMatchesPaper)
{
    // Monolithic: 8 blocks (512 B). SC-64: 64 blocks (4 KiB).
    // Morphable: 128 blocks (8 KiB) — two adjacent 4 KiB pages.
    EXPECT_EQ(CounterDesign::create(CounterDesignKind::Monolithic)
                  ->coverageBytes(), 512u);
    EXPECT_EQ(CounterDesign::create(CounterDesignKind::Sc64)
                  ->coverageBytes(), 4096u);
    EXPECT_EQ(CounterDesign::create(CounterDesignKind::Morphable)
                  ->coverageBytes(), 8192u);
}

TEST(CounterDesign, DecodeLatency)
{
    EXPECT_EQ(CounterDesign::create(CounterDesignKind::Morphable)
                  ->decodeLatency(), nsToTicks(3.0));
    EXPECT_EQ(CounterDesign::create(CounterDesignKind::Sc64)
                  ->decodeLatency(), Tick{});
}

TEST(CounterDesign, CounterBlockIndexing)
{
    auto morph = CounterDesign::create(CounterDesignKind::Morphable);
    EXPECT_EQ(morph->counterBlockIndex(Addr{0}), 0u);
    EXPECT_EQ(morph->counterBlockIndex(Addr{8191}), 0u);
    EXPECT_EQ(morph->counterBlockIndex(Addr{8192}), 1u);
}

TEST(Monolithic, CountsWrites)
{
    auto d = CounterDesign::create(CounterDesignKind::Monolithic);
    EXPECT_EQ(d->counterValue(Addr{0x40}), 0u);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(d->bumpCounter(Addr{0x40}).overflow);
    EXPECT_EQ(d->counterValue(Addr{0x40}), 5u);
    EXPECT_EQ(d->counterValue(Addr{0x80}), 0u);   // other blocks unaffected
    EXPECT_EQ(d->writes(), 5u);
    EXPECT_EQ(d->overflows(), 0u);
}

TEST(Sc64, MinorOverflowAt128Writes)
{
    auto d = CounterDesign::create(CounterDesignKind::Sc64);
    // 7-bit minor: 127 increments fit, the 128th overflows.
    for (int i = 0; i < 127; ++i)
        ASSERT_FALSE(d->bumpCounter(Addr{0x1000}).overflow) << i;
    const auto r = d->bumpCounter(Addr{0x1000});
    EXPECT_TRUE(r.overflow);
    EXPECT_EQ(r.reencrypt_blocks, 64u);
    EXPECT_EQ(d->overflows(), 1u);
}

TEST(Sc64, OverflowResetsSiblings)
{
    auto d = CounterDesign::create(CounterDesignKind::Sc64);
    d->bumpCounter(Addr{0x1040});   // sibling in the same 4 KiB region
    const std::uint64_t sibling_before = d->counterValue(Addr{0x1040});
    EXPECT_GT(sibling_before, 0u);
    for (int i = 0; i < 128; ++i)
        d->bumpCounter(Addr{0x1000});
    // After the overflow the sibling's minor reset but its value moved
    // forward (new major) — values never repeat.
    const std::uint64_t sibling_after = d->counterValue(Addr{0x1040});
    EXPECT_NE(sibling_after, sibling_before);
    EXPECT_GT(sibling_after, sibling_before);
}

TEST(Sc64, ValuesNeverRepeatAcrossOverflow)
{
    auto d = CounterDesign::create(CounterDesignKind::Sc64);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; ++i) {
        d->bumpCounter(Addr{0x2000});
        const auto v = d->counterValue(Addr{0x2000});
        EXPECT_TRUE(seen.insert(v).second) << "value repeated: " << v;
    }
    EXPECT_GE(d->overflows(), 3u);
}

TEST(Sc64, BlocksInDifferentRegionsIndependent)
{
    auto d = CounterDesign::create(CounterDesignKind::Sc64);
    for (int i = 0; i < 128; ++i)
        d->bumpCounter(Addr{0x0});
    // The overflow in region 0 must not touch region 1.
    EXPECT_EQ(d->counterValue(Addr{0x1000}), 0u);
}

TEST(Morphable, EncodableRules)
{
    // All-zero minors always encodable.
    EXPECT_TRUE(MorphableCounters::encodable(0, 0));
    // 128 x 3-bit minors = 384 bits fit the 448-bit payload.
    EXPECT_TRUE(MorphableCounters::encodable(128, 7));
    // 128 x 4-bit = 512 bits uniform does NOT fit, but 32 non-zero
    // 4-bit minors with 7-bit tags (32*11=352) do.
    EXPECT_FALSE(MorphableCounters::encodable(128, 15));
    EXPECT_TRUE(MorphableCounters::encodable(32, 15));
    // Densely non-zero large minors overflow.
    EXPECT_FALSE(MorphableCounters::encodable(64, 1023));
}

TEST(Morphable, UniformSmallWritesDontOverflow)
{
    auto d = CounterDesign::create(CounterDesignKind::Morphable);
    // Write each covered block 7 times: uniform 3-bit format fits.
    for (int round = 0; round < 7; ++round)
        for (Addr a{}; a < Addr{8192}; a += 64)
            ASSERT_FALSE(d->bumpCounter(a).overflow);
    EXPECT_EQ(d->overflows(), 0u);
}

TEST(Morphable, HotBlockEventuallyOverflows)
{
    auto d = CounterDesign::create(CounterDesignKind::Morphable);
    // Touch all blocks once (dense), then hammer one block: the large
    // minor forces wider formats until nothing fits.
    for (Addr a{}; a < Addr{8192}; a += 64)
        d->bumpCounter(a);
    bool overflowed = false;
    for (int i = 0; i < 100000 && !overflowed; ++i)
        overflowed = d->bumpCounter(Addr{0x0}).overflow;
    EXPECT_TRUE(overflowed);
    EXPECT_EQ(d->overflows(), 1u);
}

TEST(Morphable, SparseHotBlockSurvivesLonger)
{
    // With only one non-zero minor, the sparse format allows very large
    // minors; count how many writes fit before overflow and check it
    // beats the dense case substantially.
    auto dense = CounterDesign::create(CounterDesignKind::Morphable);
    for (Addr a{}; a < Addr{8192}; a += 64)
        dense->bumpCounter(a);
    int dense_writes = 0;
    while (!dense->bumpCounter(Addr{0x0}).overflow)
        ++dense_writes;

    auto sparse = CounterDesign::create(CounterDesignKind::Morphable);
    int sparse_writes = 0;
    for (int i = 0; i < 10 * dense_writes + 1000; ++i) {
        if (sparse->bumpCounter(Addr{0x0}).overflow)
            break;
        ++sparse_writes;
    }
    EXPECT_GT(sparse_writes, 2 * dense_writes);
}

TEST(Morphable, OverflowReencrypts128Blocks)
{
    auto d = CounterDesign::create(CounterDesignKind::Morphable);
    for (Addr a{}; a < Addr{8192}; a += 64)
        d->bumpCounter(a);
    CounterWriteResult r;
    for (int i = 0; i < 100000; ++i) {
        r = d->bumpCounter(Addr{0x0});
        if (r.overflow)
            break;
    }
    ASSERT_TRUE(r.overflow);
    EXPECT_EQ(r.reencrypt_blocks, 128u);
}

TEST(Morphable, ValuesNeverRepeatAcrossOverflow)
{
    auto d = CounterDesign::create(CounterDesignKind::Morphable);
    for (Addr a{}; a < Addr{8192}; a += 64)
        d->bumpCounter(a);
    std::set<std::uint64_t> seen;
    seen.insert(d->counterValue(Addr{0x0}));
    for (int i = 0; i < 5000; ++i) {
        d->bumpCounter(Addr{0x0});
        const auto v = d->counterValue(Addr{0x0});
        EXPECT_TRUE(seen.insert(v).second) << "value repeated: " << v;
    }
}

/** Save @p d, restore into a fresh design of the same kind, and check
 *  that every counter in the first @p blocks data blocks survived. */
void
expectRoundTrip(const CounterDesign &d, std::uint64_t blocks)
{
    CheckpointWriter w;
    d.saveState(w);
    const std::vector<std::uint8_t> image = w.take();
    auto copy = CounterDesign::create(d.kind());
    CheckpointReader r(image);
    copy->restoreState(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(copy->writes(), d.writes());
    EXPECT_EQ(copy->overflows(), d.overflows());
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const Addr a{b * kBlockBytes};
        ASSERT_EQ(copy->counterValue(a), d.counterValue(a)) << "block " << b;
    }
}

/** The image of @p d with its leading structure tag replaced. */
std::vector<std::uint8_t>
withTag(const CounterDesign &d, std::uint32_t tag)
{
    CheckpointWriter w;
    d.saveState(w);
    std::vector<std::uint8_t> image = w.take();
    std::memcpy(image.data(), &tag, sizeof(tag));
    return image;
}

TEST(Sc64, CheckpointRoundTripAndOldTagPanics)
{
    Sc64Counters d;
    for (int i = 0; i < 300; ++i)
        d.bumpCounter(Addr{static_cast<std::uint64_t>(i % 70) * kBlockBytes});
    for (int i = 0; i < 200; ++i)
        d.bumpCounter(Addr{5 * kBlockBytes});   // overflows once
    ASSERT_GT(d.overflows(), 0u);
    expectRoundTrip(d, 140);

    // Images from before the inline-minor layout carry the old tag.
    const auto old_image = withTag(d, 0xc0de0002u);
    EXPECT_DEATH(
        {
            CheckpointReader r(old_image);
            Sc64Counters().restoreState(r);
        },
        "tag mismatch");
}

TEST(Morphable, CheckpointRoundTripAndOldTagPanics)
{
    MorphableCounters d;
    // A sparse write-hot block keeps a minor above 8 bits, exercising
    // the full 16-bit inline width.
    for (int i = 0; i < 5000; ++i)
        d.bumpCounter(Addr{3 * kBlockBytes});
    for (int i = 0; i < 400; ++i)
        d.bumpCounter(Addr{static_cast<std::uint64_t>(128 + i % 200) *
                           kBlockBytes});
    EXPECT_EQ(d.counterValue(Addr{3 * kBlockBytes}), 5000u);
    expectRoundTrip(d, 400);

    const auto old_image = withTag(d, 0xc0de0003u);
    EXPECT_DEATH(
        {
            CheckpointReader r(old_image);
            MorphableCounters().restoreState(r);
        },
        "tag mismatch");
}

} // namespace
} // namespace emcc
