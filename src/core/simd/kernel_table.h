// The dispatch surface between core/distance.h and the per-ISA kernel
// translation units (simd_avx2.cpp, simd_avx512.cpp, simd_neon.cpp).
//
// A KernelTable is one tier's complete primitive set as plain function
// pointers — the same five primitives the generic kernels in distance.h
// implement, for each of float/uint8/int8:
//
//   l2        L2^2 (uint8/int8 accumulate exactly in int32, cast at return)
//   dot       <a,b> (same integer contract; NegInnerProduct negates it)
//   dot_norm  <a,b> and |b|^2 in one pass   — cosine, prepared-query path
//   dot_norm2 <a,b>, |a|^2, |b|^2 one pass  — cosine, per-pair path
//   self_dot  |a|^2                          — cosine prepare()
//
// plus one float-only entry, the k-means assignment step:
//
//   nearest_l2_block  argmin of L2^2 over a dims-major centroid block
//
// Unlike the float distance kernels, nearest_l2_block is BIT-identical
// across tiers: every tier sums each centroid in the generic l2_kernel's
// order (dim i into lane i % 8, in order, then the fixed halving tree) with
// separate multiply and add, so the ISA tiers only change how many
// centroids are summed at once. The ISA versions are compiled with
// floating-point contraction off; GCC otherwise fuses mul+add intrinsics
// into vfmadd under -mfma.
//
// Cosine is float math for every element type, so the u8/i8 cosine-family
// entries widen to float and fall under the FLOAT determinism rules: fixed
// accumulation order within a tier, last-ulp divergence across tiers. The
// cosine-family contract every tier must uphold: self_dot(a) is BITWISE
// equal to the |a|^2 output of dot_norm2(a, ...), and dot_norm agrees
// bitwise with dot_norm2's dot/|b|^2 — that is what makes prepare()+eval
// bit-identical to the plain two-argument eval (asserted per tier by
// tests/test_simd_kernels.cpp).
//
// Dispatch cost: Metric::eval loads one inline atomic pointer (relaxed).
// nullptr means "run the inline generic kernels" — which is also the safe
// zero-initialized state if some static initializer computes a distance
// before the resolver has run. Resolution happens once, at the dynamic
// initialization of g_dispatch below (process start), from cpuid + the
// ANN_SIMD override (caps.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/simd/caps.h"

namespace ann::simd {

// The centroid block nearest_l2_block reads: dim i of centroid c at
// block[i * width + c], with width a multiple of kCentroidBlockWidth (one
// AVX-512 register of floats) and the columns past the last centroid
// filled with +inf, so they never win.
inline constexpr std::size_t kCentroidBlockWidth = 16;

// Nearest centroid's index (ties -> smaller index) and its L2^2. When no
// distance is below +inf the result is {0, +inf}.
struct BlockArgmin {
  std::uint32_t index;
  float dist;
};

struct KernelTable {
  const char* name;  // tier_name() of the owning tier

  float (*l2_f32)(const float* a, const float* b, std::size_t d);
  float (*l2_u8)(const std::uint8_t* a, const std::uint8_t* b, std::size_t d);
  float (*l2_i8)(const std::int8_t* a, const std::int8_t* b, std::size_t d);

  float (*dot_f32)(const float* a, const float* b, std::size_t d);
  float (*dot_u8)(const std::uint8_t* a, const std::uint8_t* b, std::size_t d);
  float (*dot_i8)(const std::int8_t* a, const std::int8_t* b, std::size_t d);

  void (*dot_norm_f32)(const float* a, const float* b, std::size_t d,
                       float& dot, float& nb);
  void (*dot_norm_u8)(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t d, float& dot, float& nb);
  void (*dot_norm_i8)(const std::int8_t* a, const std::int8_t* b,
                      std::size_t d, float& dot, float& nb);

  void (*dot_norm2_f32)(const float* a, const float* b, std::size_t d,
                        float& dot, float& na, float& nb);
  void (*dot_norm2_u8)(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t d, float& dot, float& na, float& nb);
  void (*dot_norm2_i8)(const std::int8_t* a, const std::int8_t* b,
                       std::size_t d, float& dot, float& na, float& nb);

  float (*self_dot_f32)(const float* a, std::size_t d);
  float (*self_dot_u8)(const std::uint8_t* a, std::size_t d);
  float (*self_dot_i8)(const std::int8_t* a, std::size_t d);

  BlockArgmin (*nearest_l2_block)(const float* block, std::size_t width,
                                  const float* q, std::size_t d);
};

// The tier's table, independent of what is active — this is how the
// differential conformance suite compares every available tier in one
// process. kGeneric and kScalar always return a table (the generic one
// wraps the inline kernels of distance.h, for direct A/B calls); kAvx2 /
// kAvx512 return nullptr when tier_supported() is false.
const KernelTable* table_for(Tier tier);

// Per-ISA table constructors, one per translation unit. Each returns
// nullptr when its ISA support was not compiled in (non-x86 builds) — the
// runtime caps check lives in table_for/set_active_tier, not here.
const KernelTable* avx2_table();    // simd_avx2.cpp   (-mavx2 -mfma)
const KernelTable* avx512_table();  // simd_avx512.cpp (-mavx512f/bw/dq/vl)
const KernelTable* neon_table();    // simd_neon.cpp   (scaffolding: nullptr)

namespace internal {

// Resolves caps + ANN_SIMD into the dispatch pointer (dispatch.cpp) and
// records requested/active tier. Runs once at the dynamic initialization
// below; reads that beat it see the zero-initialized nullptr, i.e. the
// generic tier — correct results, just not yet the chosen ISA.
const KernelTable* resolve_dispatch();

// nullptr == generic inline path. Atomic so tests/benches can retarget the
// tier between phases with the scheduler's worker threads parked; the
// relaxed load is a single move on x86, and the scheduler's job handoff
// provides the happens-before edge for any retarget.
inline std::atomic<const KernelTable*> g_dispatch{resolve_dispatch()};

}  // namespace internal

// The table Metric::eval routes through right now; nullptr = generic.
inline const KernelTable* active_table() {
  return internal::g_dispatch.load(std::memory_order_relaxed);
}

// Per-element-type member selection for the dispatch shim in distance.h.
template <typename T>
struct KernelsOf;

template <>
struct KernelsOf<float> {
  static constexpr auto l2 = &KernelTable::l2_f32;
  static constexpr auto dot = &KernelTable::dot_f32;
  static constexpr auto dot_norm = &KernelTable::dot_norm_f32;
  static constexpr auto dot_norm2 = &KernelTable::dot_norm2_f32;
  static constexpr auto self_dot = &KernelTable::self_dot_f32;
};

template <>
struct KernelsOf<std::uint8_t> {
  static constexpr auto l2 = &KernelTable::l2_u8;
  static constexpr auto dot = &KernelTable::dot_u8;
  static constexpr auto dot_norm = &KernelTable::dot_norm_u8;
  static constexpr auto dot_norm2 = &KernelTable::dot_norm2_u8;
  static constexpr auto self_dot = &KernelTable::self_dot_u8;
};

template <>
struct KernelsOf<std::int8_t> {
  static constexpr auto l2 = &KernelTable::l2_i8;
  static constexpr auto dot = &KernelTable::dot_i8;
  static constexpr auto dot_norm = &KernelTable::dot_norm_i8;
  static constexpr auto dot_norm2 = &KernelTable::dot_norm2_i8;
  static constexpr auto self_dot = &KernelTable::self_dot_i8;
};

// True for the element types the SIMD tiers implement; everything else
// (e.g. the float-vs-uint8 k-means kernel) stays on the generic path.
template <typename T>
inline constexpr bool kHasKernels = false;
template <>
inline constexpr bool kHasKernels<float> = true;
template <>
inline constexpr bool kHasKernels<std::uint8_t> = true;
template <>
inline constexpr bool kHasKernels<std::int8_t> = true;

}  // namespace ann::simd
