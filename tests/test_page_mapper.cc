/**
 * @file
 * Tests for the virtual-to-physical page mapper: determinism, frame
 * disjointness, page-size behaviour (the 2 MB vs 4 KB distinction that
 * drives the Morphable page-size ablation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "system/page_mapper.hh"

namespace emcc {
namespace {

TEST(PageMapper, OffsetsPreservedWithinPage)
{
    PageMapper m(2_MiB, 1_GiB, 1);
    const Addr pa = m.translate(Addr{0x1234});
    EXPECT_EQ(pa & (2_MiB - 1), 0x1234u);
}

TEST(PageMapper, StableAcrossCalls)
{
    PageMapper m(4_KiB, 1_GiB, 2);
    const Addr a = m.translate(Addr{0x8000});
    EXPECT_EQ(m.translate(Addr{0x8000}), a);
    EXPECT_EQ(m.translate(Addr{0x8008}), a + 8);
}

TEST(PageMapper, DeterministicAcrossInstances)
{
    PageMapper a(2_MiB, 1_GiB, 7), b(2_MiB, 1_GiB, 7);
    for (Addr v{}; v < Addr{64_MiB}; v += 3_MiB + 123)
        EXPECT_EQ(a.translate(v), b.translate(v));
}

TEST(PageMapper, DistinctPagesGetDistinctFrames)
{
    PageMapper m(4_KiB, 256_MiB, 3);
    std::set<std::uint64_t> frames;
    for (Addr v{}; v < Addr{1024 * 4_KiB}; v += 4_KiB)
        EXPECT_TRUE(frames.insert(m.translate(v) / 4_KiB).second);
    EXPECT_EQ(m.mappedPages(), 1024u);
}

TEST(PageMapper, HugePagesKeepCounterCoverageTogether)
{
    // Two 4 KiB-adjacent virtual addresses share a Morphable counter
    // block (8 KiB coverage) under 2 MiB pages, but usually not under
    // 4 KiB pages — the paper's §III argument.
    PageMapper huge(2_MiB, 8_GiB, 11);
    const Addr a = huge.translate(Addr{0x0});
    const Addr b = huge.translate(Addr{0x1000});   // next 4 KiB page
    EXPECT_EQ(a / 8192, b / 8192);

    PageMapper small(4_KiB, 8_GiB, 11);
    unsigned together = 0;
    for (int i = 0; i < 64; ++i) {
        const Addr v{static_cast<std::uint64_t>(i) * 8192};
        const Addr p1 = small.translate(v);
        const Addr p2 = small.translate(v + 4096);
        together += (p1 / 8192 == p2 / 8192);
    }
    // Random 4 KiB frames almost never land in the same 8 KiB region.
    EXPECT_LT(together, 8u);
}

TEST(PageMapper, RandomizedFramesSpread)
{
    PageMapper m(2_MiB, 8_GiB, 5);
    std::set<std::uint64_t> frames;
    for (std::uint64_t v = 0; v < 32; ++v)
        frames.insert(m.translate(Addr{v * 2_MiB}) / 2_MiB);
    EXPECT_EQ(frames.size(), 32u);
    // Not identity-mapped (randomized placement).
    bool identity = true;
    for (std::uint64_t v = 0; v < 32; ++v)
        identity &= (m.translate(Addr{v * 2_MiB}) == Addr{v * 2_MiB});
    EXPECT_FALSE(identity);
}

TEST(PageMapper, RoundRobinSpacesDoNotThrashTlb)
{
    // SecureSystem places core c's address space at c << 40, so page k
    // of every core shares its low page-number bits. Round-robin
    // accesses (the fast-forward order) must still hit the TLB after
    // the compulsory miss per page.
    PageMapper m(2_MiB, 8_GiB, 9);
    constexpr std::uint64_t kSpaces = 4, kPages = 64;
    for (int round = 0; round < 20; ++round) {
        for (std::uint64_t p = 0; p < kPages; ++p) {
            for (std::uint64_t s = 0; s < kSpaces; ++s)
                m.translate(Addr{(s << 40) + p * 2_MiB + 64});
        }
    }
    EXPECT_EQ(m.mappedPages(), kSpaces * kPages);
    EXPECT_LE(m.tlbMisses(), kSpaces * kPages);
}

} // namespace
} // namespace emcc
