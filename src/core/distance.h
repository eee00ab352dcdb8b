// Distance kernels. Metrics are zero-size policy types so the compiler can
// inline and vectorize the inner loops per point type.
//
// All metrics return a float "distance" where SMALLER means MORE similar:
//   EuclideanSquared  - L2^2 (monotone in L2, cheaper)
//   NegInnerProduct   - -<a,b>   (maximum inner product search, TEXT2IMAGE)
//   Cosine            - 1 - cos(theta)
//
// Every metric exposes three layers:
//
//   distance(a, b, d)          counted: bumps DistanceCounter, then eval
//   eval(a, b, d)              raw kernel, no counting — hot loops use this
//                              and report their evaluation count in one
//                              DistanceCounter::bump(n) call per batch
//   prepare(q, d) / eval(prep, q, b, d)
//                              per-query fast path: prepare() hoists any
//                              query-only work (Cosine: the query norm) out
//                              of the inner loop; eval(prep, ...) is
//                              bit-identical to eval(q, b, d)
//
// Kernel shape: FLOAT accumulation unrolls over 8 independent accumulator
// lanes with a fixed reduction tree, so the loop-carried dependency of the
// naive scalar loop disappears (ILP) and the compiler keeps the lanes in
// SIMD registers (FMA-friendly). The lane order is FIXED: deterministic
// across runs, worker counts, and calls, but reassociated relative to the
// old sequential loop, so float distances may differ from it in the last
// ulp (see scalarref below). INTEGER point types (uint8/int8) accumulate in
// int32 through the PLAIN sequential loop: integer addition is associative,
// so the compiler already auto-vectorizes it with the optimal widening
// pattern (16-bit diffs, widening multiply-add) — a hand-fixed int32 lane
// layout measured ~0.5x of that on gcc -O2 and was removed. int32 is exact
// for dimensions up to ~33k (uint8 worst case: 255^2 * d must stay below
// 2^31 — far above any ANN workload; beyond it int64 accumulation would be
// needed), so integer results are bit-identical to the sequential scalar
// kernels regardless of loop shape.
//
// scalarref:: retains the pre-vectorization sequential kernels under the
// same protocol. Tests and bench_qps instantiate searches against them to
// prove the rewrite changes throughput, not results (bit-exact for integer
// dtypes; deterministic fixed-order for float).
//
// SIMD tier dispatch: each metric's eval/prepare first consults
// simd::active_table() (one relaxed atomic load). When a hand-written ISA
// tier (AVX2, AVX-512 — src/core/simd/) is active, the call routes through
// its function pointers; when the pointer is null (generic tier, or before
// dispatch resolution), the inline kernels below run unchanged. Integer
// kernels are bit-identical across every tier; float kernels are
// deterministic within a tier. docs/SIMD.md has the full contract.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "core/simd/kernel_table.h"
#include "stats.h"

namespace ann {

namespace internal {

// Accumulator type wide enough for the metric arithmetic of each point type.
template <typename T>
struct AccumOf {
  using type = float;
};
template <>
struct AccumOf<std::uint8_t> {
  using type = std::int32_t;
};
template <>
struct AccumOf<std::int8_t> {
  using type = std::int32_t;
};

// Float accumulator lane count, tuned on gcc -O2: reductions peak at 8
// independent lanes (enough ILP to hide the FP add latency; more starts
// spilling). The count is part of the float kernel contract — it fixes the
// accumulation order. Integer kernels carry no lane structure at all: int
// accumulation is exact (associative), so the compiler is free to pick the
// optimal widening-SIMD shape for the PLAIN loop (16-bit diffs,
// widening-multiply-add squares), which measurably beats any hand-fixed
// int32 lane layout — bench_qps showed the 16-lane variant at ~0.5x the
// auto-vectorized plain loop on gcc -O2, so the lanes were removed.
template <typename Acc>
struct LanesOf {
  static constexpr std::size_t value = 8;
};

inline constexpr std::size_t kFloatLanes = LanesOf<float>::value;

// Fixed pairwise (halving) reduction tree over the accumulator lanes. The
// order is part of the kernel contract: it makes float results
// deterministic.
template <typename Acc, std::size_t L>
inline float lane_sum(Acc (&acc)[L]) {
  static_assert((L & (L - 1)) == 0);
  for (std::size_t width = L / 2; width >= 1; width /= 2) {
    for (std::size_t j = 0; j < width; ++j) acc[j] += acc[j + width];
  }
  return static_cast<float>(acc[0]);
}

// L2^2; A and B may differ (the k-means path compares float centroids
// against integer points). Integer accumulation uses the plain loop (exact
// math — the compiler auto-vectorizes it with the optimal widening
// pattern); float uses the fixed 8-lane structure (the accumulation order
// is part of the contract).
template <typename A, typename B, typename Acc>
inline float l2_kernel(const A* a, const B* b, std::size_t d) {
  if constexpr (std::is_integral_v<Acc>) {
    Acc acc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      Acc diff = static_cast<Acc>(a[i]) - static_cast<Acc>(b[i]);
      acc += diff * diff;
    }
    return static_cast<float>(acc);
  } else {
    constexpr std::size_t kLanes = LanesOf<Acc>::value;
    Acc acc[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= d; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        Acc diff = static_cast<Acc>(a[i + j]) - static_cast<Acc>(b[i + j]);
        acc[j] += diff * diff;
      }
    }
    for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
      Acc diff = static_cast<Acc>(a[i]) - static_cast<Acc>(b[i]);
      acc[j] += diff * diff;
    }
    return lane_sum(acc);
  }
}

template <typename A, typename B, typename Acc>
inline float dot_kernel(const A* a, const B* b, std::size_t d) {
  if constexpr (std::is_integral_v<Acc>) {
    Acc acc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      acc += static_cast<Acc>(a[i]) * static_cast<Acc>(b[i]);
    }
    return static_cast<float>(acc);
  } else {
    constexpr std::size_t kLanes = LanesOf<Acc>::value;
    Acc acc[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= d; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        acc[j] += static_cast<Acc>(a[i + j]) * static_cast<Acc>(b[i + j]);
      }
    }
    for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
      acc[j] += static_cast<Acc>(a[i]) * static_cast<Acc>(b[i]);
    }
    return lane_sum(acc);
  }
}

// dot(a,b) and |b|^2 in one pass (the cosine fast path: |a|^2 is hoisted
// into the prepared query state). Always float lanes — cosine is float math
// for every point type, as in the original kernel.
template <typename T>
inline void dot_norm_kernel(const T* a, const T* b, std::size_t d, float& dot,
                            float& nb) {
  constexpr std::size_t kLanes = kFloatLanes;
  float dacc[kLanes] = {};
  float nacc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= d; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      float x = static_cast<float>(a[i + j]);
      float y = static_cast<float>(b[i + j]);
      dacc[j] += x * y;
      nacc[j] += y * y;
    }
  }
  for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
    float x = static_cast<float>(a[i]);
    float y = static_cast<float>(b[i]);
    dacc[j] += x * y;
    nacc[j] += y * y;
  }
  dot = lane_sum(dacc);
  nb = lane_sum(nacc);
}

// dot(a,b), |a|^2 and |b|^2 fused in one pass — the two-argument cosine
// entry point, used per-pair by the construction paths where no query
// context exists. The |a|^2 lanes follow the exact pattern of self_dot, so
// the result is bit-identical to the prepare()+eval(prep,...) split.
template <typename T>
inline void dot_norm2_kernel(const T* a, const T* b, std::size_t d,
                             float& dot, float& na, float& nb) {
  constexpr std::size_t kLanes = kFloatLanes;
  float dacc[kLanes] = {};
  float aacc[kLanes] = {};
  float bacc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= d; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      float x = static_cast<float>(a[i + j]);
      float y = static_cast<float>(b[i + j]);
      dacc[j] += x * y;
      aacc[j] += x * x;
      bacc[j] += y * y;
    }
  }
  for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
    float x = static_cast<float>(a[i]);
    float y = static_cast<float>(b[i]);
    dacc[j] += x * y;
    aacc[j] += x * x;
    bacc[j] += y * y;
  }
  dot = lane_sum(dacc);
  na = lane_sum(aacc);
  nb = lane_sum(bacc);
}

template <typename T>
inline float self_dot(const T* a, std::size_t d) {
  constexpr std::size_t kLanes = kFloatLanes;
  float acc[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= d; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      float x = static_cast<float>(a[i + j]);
      acc[j] += x * x;
    }
  }
  for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
    float x = static_cast<float>(a[i]);
    acc[j] += x * x;
  }
  return lane_sum(acc);
}

// The generic and scalar tiers' nearest_l2_block (kernel_table.h): one
// l2_kernel<float, float, float> sum per column of the dims-major block,
// read down the column, in a sequential first-minimum scan.
inline simd::BlockArgmin nearest_l2_block(const float* block,
                                          std::size_t width, const float* q,
                                          std::size_t d) {
  constexpr std::size_t kLanes = kFloatLanes;
  simd::BlockArgmin best{0, std::numeric_limits<float>::infinity()};
  for (std::size_t c = 0; c < width; ++c) {
    const float* col = block + c;
    float acc[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= d; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        float diff = col[(i + j) * width] - q[i + j];
        acc[j] += diff * diff;
      }
    }
    for (std::size_t j = 0; j < kLanes && i < d; ++i, ++j) {
      float diff = col[i * width] - q[i];
      acc[j] += diff * diff;
    }
    const float dist = lane_sum(acc);
    if (dist < best.dist) best = {static_cast<std::uint32_t>(c), dist};
  }
  return best;
}

}  // namespace internal

// Argmin of L2^2 between q and the columns of a dims-major centroid block
// (layout in kernel_table.h), routed through the active tier. Uncounted:
// callers bump DistanceCounter by their real centroid count.
inline simd::BlockArgmin nearest_l2_block(const float* block,
                                          std::size_t width, const float* q,
                                          std::size_t d) {
  if (const simd::KernelTable* t = simd::active_table()) {
    return t->nearest_l2_block(block, width, q, d);
  }
  return internal::nearest_l2_block(block, width, q, d);
}

// Empty per-query state for metrics with no query-only precomputation.
struct NoQueryState {};

struct EuclideanSquared {
  static constexpr const char* kName = "euclidean_sq";

  using Prepared = NoQueryState;

  template <typename T>
  static Prepared prepare(const T*, std::size_t) {
    return {};
  }

  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    if constexpr (simd::kHasKernels<T>) {
      if (const simd::KernelTable* t = simd::active_table()) {
        return (t->*simd::KernelsOf<T>::l2)(a, b, d);
      }
    }
    using Acc = typename internal::AccumOf<T>::type;
    return internal::l2_kernel<T, T, Acc>(a, b, d);
  }

  template <typename T>
  static float eval(const Prepared&, const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

struct NegInnerProduct {
  static constexpr const char* kName = "neg_inner_product";

  using Prepared = NoQueryState;

  template <typename T>
  static Prepared prepare(const T*, std::size_t) {
    return {};
  }

  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    if constexpr (simd::kHasKernels<T>) {
      if (const simd::KernelTable* t = simd::active_table()) {
        return -(t->*simd::KernelsOf<T>::dot)(a, b, d);
      }
    }
    using Acc = typename internal::AccumOf<T>::type;
    return -internal::dot_kernel<T, T, Acc>(a, b, d);
  }

  template <typename T>
  static float eval(const Prepared&, const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

struct Cosine {
  static constexpr const char* kName = "cosine";

  // The query's norm does not change across a search; prepare() computes it
  // once so the inner loop does two accumulations instead of three.
  struct Prepared {
    float query_norm = 0.0f;  // sqrt(<q, q>)
  };

  template <typename T>
  static Prepared prepare(const T* q, std::size_t d) {
    if constexpr (simd::kHasKernels<T>) {
      if (const simd::KernelTable* t = simd::active_table()) {
        return {std::sqrt((t->*simd::KernelsOf<T>::self_dot)(q, d))};
      }
    }
    return {std::sqrt(internal::self_dot(q, d))};
  }

  template <typename T>
  static float eval(const Prepared& prep, const T* a, const T* b,
                    std::size_t d) {
    float dot = 0.0f, nb = 0.0f;
    if constexpr (simd::kHasKernels<T>) {
      if (const simd::KernelTable* t = simd::active_table()) {
        (t->*simd::KernelsOf<T>::dot_norm)(a, b, d, dot, nb);
        float denom = prep.query_norm * std::sqrt(nb);
        if (denom == 0.0f) return 1.0f;
        return 1.0f - dot / denom;
      }
    }
    internal::dot_norm_kernel(a, b, d, dot, nb);
    float denom = prep.query_norm * std::sqrt(nb);
    if (denom == 0.0f) return 1.0f;
    return 1.0f - dot / denom;
  }

  // Fused single pass (per-pair construction call sites have no query
  // context to hoist into). Its |a|^2 lanes mirror prepare()'s self_dot
  // exactly — in the inline kernels AND in every SIMD tier's table — so the
  // two entry points stay bit-identical per tier. Asserted by
  // tests/test_distance_kernels.cpp and tests/test_simd_kernels.cpp.
  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    float dot = 0.0f, na = 0.0f, nb = 0.0f;
    if constexpr (simd::kHasKernels<T>) {
      if (const simd::KernelTable* t = simd::active_table()) {
        (t->*simd::KernelsOf<T>::dot_norm2)(a, b, d, dot, na, nb);
        float denom = std::sqrt(na) * std::sqrt(nb);
        if (denom == 0.0f) return 1.0f;
        return 1.0f - dot / denom;
      }
    }
    internal::dot_norm2_kernel(a, b, d, dot, na, nb);
    float denom = std::sqrt(na) * std::sqrt(nb);
    if (denom == 0.0f) return 1.0f;
    return 1.0f - dot / denom;
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

// --- scalar reference kernels ------------------------------------------------
//
// The pre-vectorization sequential loops, kept under the same protocol so a
// whole search can be instantiated against them (bench_qps does, to prove
// byte-identical results at a fraction of the throughput). Not used by any
// production path.
namespace scalarref {

struct EuclideanSquared {
  static constexpr const char* kName = "euclidean_sq_scalarref";

  using Prepared = NoQueryState;

  template <typename T>
  static Prepared prepare(const T*, std::size_t) {
    return {};
  }

  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    using Acc = typename internal::AccumOf<T>::type;
    Acc acc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      Acc diff = static_cast<Acc>(a[i]) - static_cast<Acc>(b[i]);
      acc += diff * diff;
    }
    return static_cast<float>(acc);
  }

  template <typename T>
  static float eval(const Prepared&, const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

struct NegInnerProduct {
  static constexpr const char* kName = "neg_inner_product_scalarref";

  using Prepared = NoQueryState;

  template <typename T>
  static Prepared prepare(const T*, std::size_t) {
    return {};
  }

  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    using Acc = typename internal::AccumOf<T>::type;
    Acc acc = 0;
    for (std::size_t i = 0; i < d; ++i) {
      acc += static_cast<Acc>(a[i]) * static_cast<Acc>(b[i]);
    }
    return -static_cast<float>(acc);
  }

  template <typename T>
  static float eval(const Prepared&, const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

struct Cosine {
  static constexpr const char* kName = "cosine_scalarref";

  using Prepared = NoQueryState;

  template <typename T>
  static Prepared prepare(const T*, std::size_t) {
    return {};
  }

  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    float dot = 0.0f, na = 0.0f, nb = 0.0f;
    for (std::size_t i = 0; i < d; ++i) {
      float x = static_cast<float>(a[i]);
      float y = static_cast<float>(b[i]);
      dot += x * y;
      na += x * x;
      nb += y * y;
    }
    float denom = std::sqrt(na) * std::sqrt(nb);
    if (denom == 0.0f) return 1.0f;
    return 1.0f - dot / denom;
  }

  template <typename T>
  static float eval(const Prepared&, const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }

  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    DistanceCounter::bump();
    return eval(a, b, d);
  }
};

}  // namespace scalarref

}  // namespace ann
