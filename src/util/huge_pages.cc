#include "util/huge_pages.hh"

#include <sys/mman.h>

namespace proram
{

AddressRange
hugePageInterior(std::uintptr_t addr, std::size_t bytes)
{
    // A span of real memory never reaches the top of the address
    // space, so neither rounding can wrap.
    const std::uintptr_t mask = kHugePageBytes - 1;
    const std::uintptr_t begin = (addr + mask) & ~mask;
    const std::uintptr_t end = (addr + bytes) & ~mask;
    if (end <= begin)
        return {};
    return {begin, end};
}

void
adviseHugePages(void *p, std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    const AddressRange r =
        hugePageInterior(reinterpret_cast<std::uintptr_t>(p), bytes);
    if (!r.empty()) {
        // Advice only: a host with THP off, or one that refuses it,
        // keeps 4 KiB pages and the same contents.
        (void)::madvise(reinterpret_cast<void *>(r.begin),
                        r.end - r.begin, MADV_HUGEPAGE);
    }
#else
    (void)p;
    (void)bytes;
#endif
}

} // namespace proram
