#include "exec/chunk.h"

#include <cassert>
#include <cstring>

namespace simddb::exec {

size_t BitmapToSelection(Isa isa, const uint64_t* bitmap, size_t n,
                         uint32_t* sel) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::BitmapToSelectionAvx512(bitmap, n, sel);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::BitmapToSelectionAvx2(bitmap, n, sel);
  }
  return detail::BitmapToSelectionScalar(bitmap, n, sel);
}

void SelectionToBitmap(const uint32_t* sel, size_t count, size_t n,
                       uint64_t* bitmap) {
  std::memset(bitmap, 0, ChunkBitmapWords(n) * sizeof(uint64_t));
  for (size_t i = 0; i < count; ++i) {
    assert(sel[i] < n);
    bitmap[sel[i] >> 6] |= uint64_t{1} << (sel[i] & 63);
  }
}

size_t RangePredicateBitmap(Isa isa, const uint32_t* keys, size_t n,
                            uint32_t lo, uint32_t hi, uint64_t* bitmap) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    return detail::RangePredicateBitmapAvx512(keys, n, lo, hi, bitmap);
  }
  if (isa == Isa::kAvx2 && IsaSupported(Isa::kAvx2)) {
    return detail::RangePredicateBitmapAvx2(keys, n, lo, hi, bitmap);
  }
  return detail::RangePredicateBitmapScalar(keys, n, lo, hi, bitmap);
}

namespace detail {

size_t BitmapToSelectionScalar(const uint64_t* bitmap, size_t n,
                               uint32_t* sel) {
  size_t cnt = 0;
  const size_t words = ChunkBitmapWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    const uint32_t base = static_cast<uint32_t>(w << 6);
    while (bits != 0) {
      sel[cnt++] = base + static_cast<uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
  return cnt;
}

size_t RangePredicateBitmapScalar(const uint32_t* keys, size_t n, uint32_t lo,
                                  uint32_t hi, uint64_t* bitmap) {
  const size_t words = ChunkBitmapWords(n);
  std::memset(bitmap, 0, words * sizeof(uint64_t));
  size_t cnt = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = keys[i];
    const uint64_t q =
        static_cast<uint64_t>(k >= lo) & static_cast<uint64_t>(k <= hi);
    bitmap[i >> 6] |= q << (i & 63);
    cnt += q;
  }
  return cnt;
}

}  // namespace detail

}  // namespace simddb::exec
