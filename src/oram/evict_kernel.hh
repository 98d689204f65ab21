/**
 * @file
 * Vectorized eviction-level classification: the data-parallel core of
 * the writePath eviction scan. For every stash slot, the level at
 * which the block may land on the current path is
 * `levels - bit_width(leaf ^ path_leaf)` (BinaryTree::commonLevel) -
 * a pure bit operation on the contiguous leaf lane of the SoA stash,
 * so it vectorizes trivially.
 *
 * Three kernels compute the same function:
 *  - Scalar: one std::bit_width per slot (the reference).
 *  - Swar:   two 32-bit leaves per std::uint64_t load/xor
 *            (portable; little-endian hosts only).
 *  - Avx2:   eight leaves per iteration (x86-64, runtime-detected).
 *
 * All kernels are bit-identical on every input, including garbage
 * and out-of-range leaves (unsigned wrap-around and all): the
 * randomized equivalence test in tests/oram/evict_kernel_test.cc
 * drives every available variant against the scalar reference, and
 * the golden-stats grid re-runs under each forced kernel. Dispatch
 * picks the best available variant at first use; the
 * PRORAM_EVICT_KERNEL environment variable (scalar|swar|avx2) pins a
 * specific one for debugging and CI.
 */

#ifndef PRORAM_ORAM_EVICT_KERNEL_HH
#define PRORAM_ORAM_EVICT_KERNEL_HH

#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace proram
{
namespace evict
{

/** Kernel variants (Auto = runtime-dispatched best available). */
enum class Kernel : std::uint8_t { Auto, Scalar, Swar, Avx2 };

/**
 * Fill out[i] = levels - bit_width(leaves[i] ^ path_leaf) for
 * i < n, using the dispatched kernel. The subtraction is mod 2^32 in
 * every variant, so callers may feed garbage lanes as long as they
 * ignore the corresponding outputs.
 */
void classifyLevels(const Leaf *leaves, std::size_t n, Leaf path_leaf,
                    std::uint32_t levels, std::uint32_t *out);

/** Same, with an explicit variant. Fatal if @p k is unavailable. */
void classifyLevelsWith(Kernel k, const Leaf *leaves, std::size_t n,
                        Leaf path_leaf, std::uint32_t levels,
                        std::uint32_t *out);

/** Can @p k run on this host/build? (Scalar and Auto: always.) */
bool kernelAvailable(Kernel k);

/** The variant classifyLevels() currently dispatches to. */
Kernel activeKernel();

/** Human-readable variant name ("scalar", "swar", "avx2"). */
const char *kernelName(Kernel k);

/**
 * Pin dispatch to @p k (Auto = re-resolve from host + environment).
 * Test/debug hook; not safe concurrently with classifyLevels() from
 * other threads.
 */
void forceKernel(Kernel k);

} // namespace evict
} // namespace proram

#endif // PRORAM_ORAM_EVICT_KERNEL_HH
