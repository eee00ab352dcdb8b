// AVX-512 kernel tier (F/BW/DQ/VL). Compiled with per-file
// -mavx512f -mavx512bw -mavx512dq -mavx512vl -mfma (CMakeLists); table_for
// and set_active_tier guarantee nothing here executes unless caps() reports
// all four feature bits.
//
// Determinism layout (tier contract, docs/SIMD.md):
//   * float L2/dot: four 16-lane accumulators striding 64 elements, folded
//     ((acc0+acc1)+(acc2+acc3)) into one 16-lane register, halved into two
//     8-lane registers, then the same fixed 8->1 halving tree the other
//     tiers use. Masked tail loads zero the dead lanes, which are exact
//     no-ops under fma.
//   * cosine family: ONE 16-lane accumulator per quantity so self_dot's
//     |a|^2 stream is op-for-op dot_norm2's — prepare()+eval stays bitwise
//     equal to plain eval within this tier.
//   * uint8/int8 L2/dot: widen 32 bytes to i16, vpmaddwd into 16 i32 lanes
//     — exact integer arithmetic, bit-identical to every other tier.
#include "core/simd/kernel_table.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cstring>
#include <type_traits>

// GCC's avx512 headers implement the cast/extract intrinsics with
// _mm256_undefined_pd()-style self-initialized locals, which -Wuninitialized
// flags through inlining (GCC bug 105593). Header-internal false positive;
// this TU contains no uninitialized reads of its own.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace ann::simd {

namespace {

// Fixed 8->1 halving tree, identical structure to the AVX2 tier's.
inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s4 = _mm_add_ps(lo, hi);
  __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
  return _mm_cvtss_f32(s1);
}

// 16->1: halve to 8 lanes first (acc[j] += acc[j+8]), then the 8->1 tree.
inline float hsum16(__m512 v) {
  __m256 lo = _mm512_castps512_ps256(v);
  __m256 hi = _mm512_extractf32x8_ps(v, 1);
  return hsum8(_mm256_add_ps(lo, hi));
}

inline __mmask16 mask16(std::size_t r) {
  return static_cast<__mmask16>((1u << r) - 1u);
}

inline __mmask32 mask32(std::size_t r) {
  return static_cast<__mmask32>((1u << r) - 1u);
}

// --- float kernels -----------------------------------------------------------

float l2_f32(const float* a, const float* b, std::size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = acc0, acc2 = acc0, acc3 = acc0;
  std::size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                              _mm512_loadu_ps(b + i + 16));
    __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 32),
                              _mm512_loadu_ps(b + i + 32));
    __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 48),
                              _mm512_loadu_ps(b + i + 48));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
    acc2 = _mm512_fmadd_ps(d2, d2, acc2);
    acc3 = _mm512_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 16 <= d; i += 16) {
    __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  if (i < d) {
    __mmask16 m = mask16(d - i);
    __m512 d0 = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + i),
                              _mm512_maskz_loadu_ps(m, b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
  }
  return hsum16(
      _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3)));
}

float dot_f32(const float* a, const float* b, std::size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = acc0, acc2 = acc0, acc3 = acc0;
  std::size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                           _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                           _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  if (i < d) {
    __mmask16 m = mask16(d - i);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                           _mm512_maskz_loadu_ps(m, b + i), acc0);
  }
  return hsum16(
      _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3)));
}

// --- integer kernels (exact int32 accumulation) ------------------------------

template <typename T>
inline __m512i widen16(__m256i v) {
  if constexpr (std::is_signed_v<T>) {
    return _mm512_cvtepi8_epi16(v);
  } else {
    return _mm512_cvtepu8_epi16(v);
  }
}

template <typename T>
inline __m256i load32b(const T* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

template <typename T>
inline __m256i tail32b(const T* p, std::size_t r) {
  return _mm256_maskz_loadu_epi8(mask32(r), p);
}

template <typename T>
float l2_int(const T* a, const T* b, std::size_t d) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = acc0;
  std::size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    __m512i d0 =
        _mm512_sub_epi16(widen16<T>(load32b(a + i)),
                         widen16<T>(load32b(b + i)));
    __m512i d1 = _mm512_sub_epi16(widen16<T>(load32b(a + i + 32)),
                                  widen16<T>(load32b(b + i + 32)));
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(d0, d0));
    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(d1, d1));
  }
  for (; i + 32 <= d; i += 32) {
    __m512i d0 =
        _mm512_sub_epi16(widen16<T>(load32b(a + i)),
                         widen16<T>(load32b(b + i)));
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(d0, d0));
  }
  if (i < d) {
    __m512i d0 = _mm512_sub_epi16(widen16<T>(tail32b(a + i, d - i)),
                                  widen16<T>(tail32b(b + i, d - i)));
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(d0, d0));
  }
  return static_cast<float>(
      _mm512_reduce_add_epi32(_mm512_add_epi32(acc0, acc1)));
}

template <typename T>
float dot_int(const T* a, const T* b, std::size_t d) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = acc0;
  std::size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    acc0 = _mm512_add_epi32(
        acc0, _mm512_madd_epi16(widen16<T>(load32b(a + i)),
                                widen16<T>(load32b(b + i))));
    acc1 = _mm512_add_epi32(
        acc1, _mm512_madd_epi16(widen16<T>(load32b(a + i + 32)),
                                widen16<T>(load32b(b + i + 32))));
  }
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm512_add_epi32(
        acc0, _mm512_madd_epi16(widen16<T>(load32b(a + i)),
                                widen16<T>(load32b(b + i))));
  }
  if (i < d) {
    acc0 = _mm512_add_epi32(
        acc0, _mm512_madd_epi16(widen16<T>(tail32b(a + i, d - i)),
                                widen16<T>(tail32b(b + i, d - i))));
  }
  return static_cast<float>(
      _mm512_reduce_add_epi32(_mm512_add_epi32(acc0, acc1)));
}

// --- cosine family (float math for every element type) -----------------------

template <typename T>
inline __m512 load16_ps(const T* p) {
  if constexpr (std::is_same_v<T, float>) {
    return _mm512_loadu_ps(p);
  } else if constexpr (std::is_signed_v<T>) {
    return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
  } else {
    return _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
  }
}

template <typename T>
inline __m512 tail16_ps(const T* p, std::size_t r) {
  if constexpr (std::is_same_v<T, float>) {
    return _mm512_maskz_loadu_ps(mask16(r), p);
  } else if constexpr (std::is_signed_v<T>) {
    return _mm512_cvtepi32_ps(
        _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(mask16(r), p)));
  } else {
    return _mm512_cvtepi32_ps(
        _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(mask16(r), p)));
  }
}

template <typename T>
float self_dot(const T* a, std::size_t d) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m512 x = load16_ps(a + i);
    acc = _mm512_fmadd_ps(x, x, acc);
  }
  if (i < d) {
    __m512 x = tail16_ps(a + i, d - i);
    acc = _mm512_fmadd_ps(x, x, acc);
  }
  return hsum16(acc);
}

template <typename T>
void dot_norm(const T* a, const T* b, std::size_t d, float& dot, float& nb) {
  __m512 dacc = _mm512_setzero_ps();
  __m512 bacc = dacc;
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m512 x = load16_ps(a + i);
    __m512 y = load16_ps(b + i);
    dacc = _mm512_fmadd_ps(x, y, dacc);
    bacc = _mm512_fmadd_ps(y, y, bacc);
  }
  if (i < d) {
    __m512 x = tail16_ps(a + i, d - i);
    __m512 y = tail16_ps(b + i, d - i);
    dacc = _mm512_fmadd_ps(x, y, dacc);
    bacc = _mm512_fmadd_ps(y, y, bacc);
  }
  dot = hsum16(dacc);
  nb = hsum16(bacc);
}

template <typename T>
void dot_norm2(const T* a, const T* b, std::size_t d, float& dot, float& na,
               float& nb) {
  __m512 dacc = _mm512_setzero_ps();
  __m512 aacc = dacc, bacc = dacc;
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m512 x = load16_ps(a + i);
    __m512 y = load16_ps(b + i);
    dacc = _mm512_fmadd_ps(x, y, dacc);
    aacc = _mm512_fmadd_ps(x, x, aacc);
    bacc = _mm512_fmadd_ps(y, y, bacc);
  }
  if (i < d) {
    __m512 x = tail16_ps(a + i, d - i);
    __m512 y = tail16_ps(b + i, d - i);
    dacc = _mm512_fmadd_ps(x, y, dacc);
    aacc = _mm512_fmadd_ps(x, x, aacc);
    bacc = _mm512_fmadd_ps(y, y, bacc);
  }
  dot = hsum16(dacc);
  na = hsum16(aacc);
  nb = hsum16(bacc);
}

// --- k-means assignment ------------------------------------------------------

// One register holds 16 centroids; lane register j accumulates dims
// j, j + 8, ... of all 16 exactly as l2_kernel's lane j does for one
// centroid, and the same halving tree folds them. Contraction is off so
// every sum is mul-then-add, bit-identical to the generic tier. Lanes keep
// their first minimum (strict <); the final fold takes the smallest index
// among the lanes holding the minimum.
__attribute__((optimize("fp-contract=off"))) BlockArgmin nearest_l2_block(
    const float* block, std::size_t width, const float* q, std::size_t d) {
  __m512 best_d = _mm512_set1_ps(__builtin_inff());
  __m512i best_i = _mm512_setzero_si512();
  __m512i ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15);
  const __m512i step = _mm512_set1_epi32(16);
  for (std::size_t c = 0; c < width; c += 16) {
    const float* col = block + c;
    __m512 acc[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < 8; ++j) {
        __m512 diff = _mm512_sub_ps(_mm512_loadu_ps(col + (i + j) * width),
                                    _mm512_set1_ps(q[i + j]));
        acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(diff, diff));
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
      if (i + j < d) {
        __m512 diff = _mm512_sub_ps(_mm512_loadu_ps(col + (i + j) * width),
                                    _mm512_set1_ps(q[i + j]));
        acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(diff, diff));
      }
    }
    __m512 s0 = _mm512_add_ps(acc[0], acc[4]);
    __m512 s1 = _mm512_add_ps(acc[1], acc[5]);
    __m512 s2 = _mm512_add_ps(acc[2], acc[6]);
    __m512 s3 = _mm512_add_ps(acc[3], acc[7]);
    __m512 dist = _mm512_add_ps(_mm512_add_ps(s0, s2), _mm512_add_ps(s1, s3));
    __mmask16 lt = _mm512_cmp_ps_mask(dist, best_d, _CMP_LT_OQ);
    best_d = _mm512_mask_mov_ps(best_d, lt, dist);
    best_i = _mm512_mask_mov_epi32(best_i, lt, ids);
    ids = _mm512_add_epi32(ids, step);
  }
  const float min_d = _mm512_reduce_min_ps(best_d);
  const __mmask16 at_min =
      _mm512_cmp_ps_mask(best_d, _mm512_set1_ps(min_d), _CMP_EQ_OQ);
  return {_mm512_mask_reduce_min_epu32(at_min, best_i), min_d};
}

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table = {
      "avx512",
      l2_f32,
      l2_int<std::uint8_t>,
      l2_int<std::int8_t>,
      dot_f32,
      dot_int<std::uint8_t>,
      dot_int<std::int8_t>,
      dot_norm<float>,
      dot_norm<std::uint8_t>,
      dot_norm<std::int8_t>,
      dot_norm2<float>,
      dot_norm2<std::uint8_t>,
      dot_norm2<std::int8_t>,
      self_dot<float>,
      self_dot<std::uint8_t>,
      self_dot<std::int8_t>,
      nearest_l2_block,
  };
  return &table;
}

}  // namespace ann::simd

#else  // AVX-512 F/BW/DQ/VL not compiled in

namespace ann::simd {

const KernelTable* avx512_table() { return nullptr; }

}  // namespace ann::simd

#endif
