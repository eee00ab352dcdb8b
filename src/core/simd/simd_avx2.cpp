// AVX2+FMA kernel tier. Compiled with per-file -mavx2 -mfma (CMakeLists);
// nothing in this TU may execute unless caps() reports avx2+fma — table_for
// and set_active_tier enforce that, and avx2_table() itself only assigns
// function pointers.
//
// Determinism layout (part of the tier contract, see docs/SIMD.md):
//   * float L2/dot: four 8-lane accumulators striding 32 elements, folded
//     ((acc0+acc1)+(acc2+acc3)) into one 8-lane register, then the same
//     fixed halving reduction tree as the generic kernels. FMA everywhere,
//     so results differ from the generic tier in the last ulps but are
//     bitwise reproducible within this tier.
//   * cosine family (float math for every element type): ONE 8-lane
//     accumulator per quantity, so self_dot's |a|^2 stream is op-for-op the
//     |a|^2 stream inside dot_norm2 — that is what makes prepare()+eval
//     bitwise equal to the plain eval.
//   * uint8/int8 L2/dot: widen to i16, pmaddwd into i32 lanes — exact
//     integer arithmetic, bit-identical to every other tier by
//     construction.
//   * tails: trailing elements are copied into a zero-padded block and run
//     through the full-width kernel. Zero lanes are exact no-ops
//     (fma(0, 0, acc) == acc; integer zeros add zero), so no separate
//     scalar remainder order exists.
#include "core/simd/kernel_table.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>
#include <type_traits>

namespace ann::simd {

namespace {

// Fixed 8->1 halving reduction tree (the vector analogue of
// internal::lane_sum: acc[j] += acc[j + width] for width 4, 2, 1).
inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s4 = _mm_add_ps(lo, hi);
  __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
  return _mm_cvtss_f32(s1);
}

// Horizontal i32 sum; integer addition is exact, so the order is free.
inline std::int32_t hsum8i(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  return _mm_cvtsi128_si32(s);
}

// Zero-padded tail loads: the trailing r elements land in lanes 0..r-1.
inline __m256 tail_ps(const float* p, std::size_t r) {
  alignas(32) float buf[8] = {};
  std::memcpy(buf, p, r * sizeof(float));
  return _mm256_load_ps(buf);
}

inline __m128i tail_bytes16(const void* p, std::size_t r) {
  alignas(16) unsigned char buf[16] = {};
  std::memcpy(buf, p, r);
  return _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
}

// --- float kernels -----------------------------------------------------------

float l2_f32(const float* a, const float* b, std::size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = acc0, acc2 = acc0, acc3 = acc0;
  std::size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 16),
                              _mm256_loadu_ps(b + i + 16));
    __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 24),
                              _mm256_loadu_ps(b + i + 24));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    acc2 = _mm256_fmadd_ps(d2, d2, acc2);
    acc3 = _mm256_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 8 <= d; i += 8) {
    __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
  }
  if (i < d) {
    __m256 d0 = _mm256_sub_ps(tail_ps(a + i, d - i), tail_ps(b + i, d - i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
  }
  return hsum8(
      _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
}

float dot_f32(const float* a, const float* b, std::size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = acc0, acc2 = acc0, acc3 = acc0;
  std::size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  if (i < d) {
    acc0 = _mm256_fmadd_ps(tail_ps(a + i, d - i), tail_ps(b + i, d - i), acc0);
  }
  return hsum8(
      _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
}

// --- integer kernels (exact int32 accumulation) ------------------------------

template <typename T>
inline __m256i widen16(__m128i v) {
  if constexpr (std::is_signed_v<T>) {
    return _mm256_cvtepi8_epi16(v);
  } else {
    return _mm256_cvtepu8_epi16(v);
  }
}

template <typename T>
float l2_int(const T* a, const T* b, std::size_t d) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = acc0;
  std::size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    __m256i d0 = _mm256_sub_epi16(
        widen16<T>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i))),
        widen16<T>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i))));
    __m256i d1 = _mm256_sub_epi16(
        widen16<T>(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16))),
        widen16<T>(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 16))));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0, d0));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d1, d1));
  }
  for (; i + 16 <= d; i += 16) {
    __m256i d0 = _mm256_sub_epi16(
        widen16<T>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i))),
        widen16<T>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i))));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0, d0));
  }
  if (i < d) {
    __m256i d0 = _mm256_sub_epi16(widen16<T>(tail_bytes16(a + i, d - i)),
                                  widen16<T>(tail_bytes16(b + i, d - i)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0, d0));
  }
  return static_cast<float>(hsum8i(_mm256_add_epi32(acc0, acc1)));
}

template <typename T>
float dot_int(const T* a, const T* b, std::size_t d) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = acc0;
  std::size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm256_add_epi32(
        acc0,
        _mm256_madd_epi16(
            widen16<T>(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i))),
            widen16<T>(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)))));
    acc1 = _mm256_add_epi32(
        acc1,
        _mm256_madd_epi16(
            widen16<T>(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16))),
            widen16<T>(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(b + i + 16)))));
  }
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_add_epi32(
        acc0,
        _mm256_madd_epi16(
            widen16<T>(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i))),
            widen16<T>(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)))));
  }
  if (i < d) {
    acc0 = _mm256_add_epi32(
        acc0, _mm256_madd_epi16(widen16<T>(tail_bytes16(a + i, d - i)),
                                widen16<T>(tail_bytes16(b + i, d - i))));
  }
  return static_cast<float>(hsum8i(_mm256_add_epi32(acc0, acc1)));
}

// --- cosine family (float math for every element type) -----------------------

// 8 elements widened to float lanes; T is float or a byte type.
template <typename T>
inline __m256 load8_ps(const T* p) {
  if constexpr (std::is_same_v<T, float>) {
    return _mm256_loadu_ps(p);
  } else if constexpr (std::is_signed_v<T>) {
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  } else {
    return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
}

template <typename T>
inline __m256 tail8_ps(const T* p, std::size_t r) {
  if constexpr (std::is_same_v<T, float>) {
    return tail_ps(p, r);
  } else {
    alignas(16) T buf[16] = {};
    std::memcpy(buf, p, r * sizeof(T));
    return load8_ps(buf);
  }
}

template <typename T>
float self_dot(const T* a, std::size_t d) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256 x = load8_ps(a + i);
    acc = _mm256_fmadd_ps(x, x, acc);
  }
  if (i < d) {
    __m256 x = tail8_ps(a + i, d - i);
    acc = _mm256_fmadd_ps(x, x, acc);
  }
  return hsum8(acc);
}

template <typename T>
void dot_norm(const T* a, const T* b, std::size_t d, float& dot, float& nb) {
  __m256 dacc = _mm256_setzero_ps();
  __m256 bacc = dacc;
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256 x = load8_ps(a + i);
    __m256 y = load8_ps(b + i);
    dacc = _mm256_fmadd_ps(x, y, dacc);
    bacc = _mm256_fmadd_ps(y, y, bacc);
  }
  if (i < d) {
    __m256 x = tail8_ps(a + i, d - i);
    __m256 y = tail8_ps(b + i, d - i);
    dacc = _mm256_fmadd_ps(x, y, dacc);
    bacc = _mm256_fmadd_ps(y, y, bacc);
  }
  dot = hsum8(dacc);
  nb = hsum8(bacc);
}

template <typename T>
void dot_norm2(const T* a, const T* b, std::size_t d, float& dot, float& na,
               float& nb) {
  __m256 dacc = _mm256_setzero_ps();
  __m256 aacc = dacc, bacc = dacc;
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256 x = load8_ps(a + i);
    __m256 y = load8_ps(b + i);
    dacc = _mm256_fmadd_ps(x, y, dacc);
    aacc = _mm256_fmadd_ps(x, x, aacc);
    bacc = _mm256_fmadd_ps(y, y, bacc);
  }
  if (i < d) {
    __m256 x = tail8_ps(a + i, d - i);
    __m256 y = tail8_ps(b + i, d - i);
    dacc = _mm256_fmadd_ps(x, y, dacc);
    aacc = _mm256_fmadd_ps(x, x, aacc);
    bacc = _mm256_fmadd_ps(y, y, bacc);
  }
  dot = hsum8(dacc);
  na = hsum8(aacc);
  nb = hsum8(bacc);
}

// --- k-means assignment ------------------------------------------------------

// One register holds 8 centroids; lane register j accumulates dims
// j, j + 8, ... of all 8 exactly as l2_kernel's lane j does for one
// centroid, and the same halving tree folds them. Contraction is off so
// every sum is mul-then-add, bit-identical to the generic tier. Lanes keep
// their first minimum (strict <); the final fold takes the smallest index
// among the lanes holding the minimum.
__attribute__((optimize("fp-contract=off"))) BlockArgmin nearest_l2_block(
    const float* block, std::size_t width, const float* q, std::size_t d) {
  __m256 best_d = _mm256_set1_ps(__builtin_inff());
  __m256i best_i = _mm256_setzero_si256();
  __m256i ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi32(8);
  for (std::size_t c = 0; c < width; c += 8) {
    const float* col = block + c;
    __m256 acc[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) acc[j] = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= d; i += 8) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < 8; ++j) {
        __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(col + (i + j) * width),
                                    _mm256_set1_ps(q[i + j]));
        acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(diff, diff));
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
      if (i + j < d) {
        __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(col + (i + j) * width),
                                    _mm256_set1_ps(q[i + j]));
        acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(diff, diff));
      }
    }
    __m256 s0 = _mm256_add_ps(acc[0], acc[4]);
    __m256 s1 = _mm256_add_ps(acc[1], acc[5]);
    __m256 s2 = _mm256_add_ps(acc[2], acc[6]);
    __m256 s3 = _mm256_add_ps(acc[3], acc[7]);
    __m256 dist = _mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3));
    __m256 lt = _mm256_cmp_ps(dist, best_d, _CMP_LT_OQ);
    best_d = _mm256_blendv_ps(best_d, dist, lt);
    best_i = _mm256_blendv_epi8(best_i, ids, _mm256_castps_si256(lt));
    ids = _mm256_add_epi32(ids, step);
  }
  alignas(32) float dists[8];
  alignas(32) std::uint32_t idx[8];
  _mm256_store_ps(dists, best_d);
  _mm256_store_si256(reinterpret_cast<__m256i*>(idx), best_i);
  BlockArgmin best{idx[0], dists[0]};
  for (std::size_t l = 1; l < 8; ++l) {
    if (dists[l] < best.dist ||
        (dists[l] == best.dist && idx[l] < best.index)) {
      best = {idx[l], dists[l]};
    }
  }
  return best;
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table = {
      "avx2",
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

#else  // !(__AVX2__ && __FMA__)

namespace ann::simd {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace ann::simd

#endif
