/**
 * @file
 * Heap arrays whose 2 MiB-aligned interior is advised for transparent
 * huge pages before anything touches it (DESIGN.md Sec. 12).
 *
 * An eager tree's bucket records and the position map are the two
 * arrays a large tree allocates whole and then reads at random: on
 * 4 KiB pages, every such read can also miss the TLB. makeHugeArray()
 * gets the memory, advises MADV_HUGEPAGE over the whole 2 MiB pages
 * inside it, and only then value-initializes the elements, so the
 * first touch faults the advised range in on huge pages where the
 * kernel can supply them. It is advice only: the madvise result is
 * ignored, the allocation is not padded or aligned to widen the
 * interior, and where MADV_HUGEPAGE is undefined the helper is a plain
 * allocation.
 */

#ifndef PRORAM_UTIL_HUGE_PAGES_HH
#define PRORAM_UTIL_HUGE_PAGES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

namespace proram
{

/** The transparent huge page size the advice targets. */
inline constexpr std::uintptr_t kHugePageBytes = std::uintptr_t{2} << 20;

/** Address range [begin, end); empty when begin == end. */
struct AddressRange
{
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;

    bool empty() const { return begin == end; }
};

/**
 * The whole huge pages inside [addr, addr + bytes): the start rounded
 * up and the end rounded down to kHugePageBytes. Empty (both ends 0)
 * when the span holds no aligned 2 MiB.
 */
AddressRange hugePageInterior(std::uintptr_t addr, std::size_t bytes);

/** Advise MADV_HUGEPAGE over hugePageInterior(p, bytes); a no-op when
 *  it is empty or the platform lacks the advice. */
void adviseHugePages(void *p, std::size_t bytes);

/** Frees a makeHugeArray() allocation (its elements need no
 *  destructor). */
template <typename T>
struct HugeArrayDeleter
{
    void operator()(T *p) const { ::operator delete(p); }
};

template <typename T>
using HugeArray = std::unique_ptr<T[], HugeArrayDeleter<T>>;

/**
 * @p count value-initialized elements (zeros for a scalar T), with the
 * huge-page advice given between the allocation and the first write.
 */
template <typename T>
HugeArray<T>
makeHugeArray(std::size_t count)
{
    static_assert(std::is_nothrow_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    if (count > static_cast<std::size_t>(-1) / sizeof(T))
        throw std::bad_array_new_length();
    const std::size_t bytes = count * sizeof(T);
    void *raw = ::operator new(bytes);
    adviseHugePages(raw, bytes);
    T *p = static_cast<T *>(raw);
    std::uninitialized_value_construct_n(p, count);
    return HugeArray<T>(p);
}

} // namespace proram

#endif // PRORAM_UTIL_HUGE_PAGES_HH
