#ifndef SIMDDB_EXEC_CHUNK_H_
#define SIMDDB_EXEC_CHUNK_H_

// Chunk geometry and the selection-vector/bitmap converters of the
// execution subsystem (src/exec/). The fused engine (exec/fused.h) walks a
// deterministic grid of chunk_tuples-sized chunks; a bitmap-mode scan
// evaluates its range predicate into one bit per tuple (AVX-512 compare
// masks concatenate into bitmap words with no extra work) and converts the
// bitmap to a dense ascending selection vector before gathering — the
// representation SIMD gathers want.
//
// Converters between the two sparse forms are SIMD-dispatched:
// bitmap -> selection uses positional population counts over 8-word blocks
// to precompute per-word output offsets ("Faster Positional Population
// Counts", PAPERS.md) followed by per-16-bit-group compressed index stores
// (AVX-512 vcompressstoreu; AVX2 uses the App. D permutation-table
// selective store; scalar isolates bits with k &= k - 1). The offsets form
// a prefix sum ("Parallel Prefix Sum with SIMD"), so the groups of a block
// are independent — the structure a future multi-lane conversion needs.
// selection -> bitmap is a scalar bit-set loop on every backend (the word
// accumulation is limited by store-to-load forwarding, not ALU width).
//
// Capacity contract (centralized, mirroring ShuffleCapacity /
// SelectionScanCapacity): every per-lane batch column and selection vector
// sized for n tuples must hold ChunkCapacity(n) elements, because the
// vector scan/probe kernels that fill them may overshoot their returned
// count by up to one 16-lane vector.

#include <cstddef>
#include <cstdint>

#include "core/isa.h"
#include "util/aligned_buffer.h"

namespace simddb::exec {

/// Default tuples per chunk: L1-resident working set for a key column plus
/// a few payload columns, and a multiple of 64 so bitmap words never span
/// chunk boundaries.
inline constexpr size_t kDefaultChunkTuples = 1024;

/// Slack every batch column carries beyond its tuple capacity: one 16-lane
/// vector of overshoot, the same contract as kShuffleSlackTuples and
/// kSelectionScanPad (the kernels that fill batches are the same kernels).
inline constexpr size_t kChunkSlackTuples = 16;

/// Elements every column / selection-vector buffer of an n-tuple batch
/// must hold.
inline constexpr size_t ChunkCapacity(size_t n) {
  return n + kChunkSlackTuples;
}

/// 64-bit words covering an n-tuple bitmap.
inline constexpr size_t ChunkBitmapWords(size_t n) { return (n + 63) / 64; }

// ---------------------------------------------------------------------------
// Free converter kernels (ISA-dispatched; also the test/bench surface)
// ---------------------------------------------------------------------------

/// Materializes the set bits of bitmap[0 .. ChunkBitmapWords(n)) as an
/// ascending index vector in sel; returns the index count. Bits at
/// positions >= n must be zero. `sel` needs ChunkCapacity(n) elements (the
/// AVX2 kernel stores full 8-lane vectors and advances by popcount).
size_t BitmapToSelection(Isa isa, const uint64_t* bitmap, size_t n,
                         uint32_t* sel);

/// Sets bit sel[i] for i in [0, count) in bitmap[0 .. ChunkBitmapWords(n)),
/// zeroing the rest. Indexes must be ascending and < n.
void SelectionToBitmap(const uint32_t* sel, size_t count, size_t n,
                       uint64_t* bitmap);

/// Evaluates lo <= keys[i] <= hi (inclusive, unsigned) into a bitmap and
/// returns the number of set bits. Bits >= n are zeroed.
size_t RangePredicateBitmap(Isa isa, const uint32_t* keys, size_t n,
                            uint32_t lo, uint32_t hi, uint64_t* bitmap);

namespace detail {
size_t BitmapToSelectionScalar(const uint64_t* bitmap, size_t n,
                               uint32_t* sel);
size_t RangePredicateBitmapScalar(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap);
// Backend TUs (chunk_avx2.cc / chunk_avx512.cc).
size_t BitmapToSelectionAvx2(const uint64_t* bitmap, size_t n, uint32_t* sel);
size_t RangePredicateBitmapAvx2(const uint32_t* keys, size_t n, uint32_t lo,
                                uint32_t hi, uint64_t* bitmap);
size_t BitmapToSelectionAvx512(const uint64_t* bitmap, size_t n,
                               uint32_t* sel);
size_t RangePredicateBitmapAvx512(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap);
}  // namespace detail

}  // namespace simddb::exec

#endif  // SIMDDB_EXEC_CHUNK_H_
