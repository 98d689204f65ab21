/** @file Unit tests for the huge-page-advised array helper. */

#include "util/huge_pages.hh"

#include <gtest/gtest.h>

#include <cstdint>

namespace proram
{
namespace
{

constexpr std::uintptr_t kMiB = std::uintptr_t{1} << 20;

TEST(HugePages, InteriorIsEmptyWithoutAnAlignedHugePage)
{
    EXPECT_TRUE(hugePageInterior(2 * kMiB, 0).empty());
    // One byte short of a whole aligned huge page, from either end.
    EXPECT_TRUE(hugePageInterior(2 * kMiB, 2 * kMiB - 1).empty());
    EXPECT_TRUE(hugePageInterior(2 * kMiB + 1, 2 * kMiB).empty());
    // A 4 MiB span that straddles one boundary holds no whole page.
    EXPECT_TRUE(hugePageInterior(3 * kMiB, 2 * kMiB).empty());
    EXPECT_TRUE(hugePageInterior(16, 2 * kMiB).empty());
    // Small arrays, like a small tree's records, never qualify.
    EXPECT_TRUE(hugePageInterior(4096, 12 * 1024).empty());
}

TEST(HugePages, InteriorBoundsAreExact)
{
    const AddressRange aligned = hugePageInterior(2 * kMiB, 2 * kMiB);
    EXPECT_EQ(aligned.begin, 2 * kMiB);
    EXPECT_EQ(aligned.end, 4 * kMiB);

    // The start rounds up and the end rounds down.
    const AddressRange inner = hugePageInterior(3 * kMiB, 10 * kMiB);
    EXPECT_EQ(inner.begin, 4 * kMiB);
    EXPECT_EQ(inner.end, 12 * kMiB);

    // A heap block's usual offset into its first page.
    const AddressRange heap = hugePageInterior(6 * kMiB + 16, 48 * kMiB);
    EXPECT_EQ(heap.begin, 8 * kMiB);
    EXPECT_EQ(heap.end, 54 * kMiB);

    // Exactly one page, reached only by the last byte.
    const AddressRange tail = hugePageInterior(2 * kMiB - 1, 2 * kMiB + 1);
    EXPECT_EQ(tail.begin, 2 * kMiB);
    EXPECT_EQ(tail.end, 4 * kMiB);
}

struct Tagged
{
    std::uint32_t tag = 7;
    std::uint64_t word = 0;
};

TEST(HugePages, ArrayIsValueInitialized)
{
    // Large enough to hold an aligned huge page wherever it lands.
    const std::size_t words = 5 * kMiB / sizeof(std::uint64_t);
    const HugeArray<std::uint64_t> zeros =
        makeHugeArray<std::uint64_t>(words);
    for (std::size_t i = 0; i < words; ++i)
        ASSERT_EQ(zeros[i], 0u) << i;

    const HugeArray<Tagged> tagged = makeHugeArray<Tagged>(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
        ASSERT_EQ(tagged[i].tag, 7u) << i;
        ASSERT_EQ(tagged[i].word, 0u) << i;
    }

    EXPECT_NE(makeHugeArray<Tagged>(0).get(), nullptr);
}

} // namespace
} // namespace proram
