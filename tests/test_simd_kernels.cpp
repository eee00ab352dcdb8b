// Differential conformance suite for the SIMD kernel tiers (src/core/simd/,
// docs/SIMD.md). Every tier available on this machine is compared against
// ann::scalarref and against the generic tier, across all three metrics,
// all three element types, and a dim sweep that straddles every lane width
// and remainder loop (0, 1, 7, 8, 15, 16, 17, 31, 63, 64, 100, 128, 960).
//
// The contract being verified:
//   * integer (uint8/int8) L2 and dot are BIT-identical across all tiers —
//     int32 accumulation is exact, so loop shape cannot matter;
//   * within one tier, cosine's prepare()+eval(prep) is BITWISE equal to
//     the plain eval (self_dot's accumulation structure matches
//     dot_norm2's |a|^2 stream, dot_norm matches dot_norm2's dot/|b|^2);
//   * float kernels agree with a double-precision reference — and hence
//     with each other — within a documented reassociation bound, including
//     on adversarial values (denormals, large-magnitude cancellation,
//     zero-norm cosine);
//   * a tier is a pure function: repeated calls are bitwise identical;
//   * nearest_l2_block (the k-means assignment kernel) is BIT-identical on
//     every tier to a row-major l2_kernel scan: same index, same distance
//     bits, ties to the smaller index.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"

namespace {

using ann::simd::Tier;

const std::vector<std::size_t>& test_dims() {
  static const std::vector<std::size_t> dims = {0,  1,  7,  8,   15,  16, 17,
                                                31, 63, 64, 100, 128, 960};
  return dims;
}

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < ann::simd::kNumTiers; ++t) {
    if (ann::simd::tier_supported(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

// A (a, b) float vector pair; generators below produce the adversarial
// cases alongside the uniform one.
struct FloatPair {
  const char* label;
  std::vector<float> a;
  std::vector<float> b;
};

std::vector<FloatPair> float_pairs(std::size_t d) {
  std::vector<FloatPair> pairs;
  {
    FloatPair p{"uniform", std::vector<float>(d), std::vector<float>(d)};
    if (d > 0) {
      auto pts = ann::make_uniform<float>(2, d, -10.0, 10.0, 1234 + d);
      for (std::size_t i = 0; i < d; ++i) {
        p.a[i] = pts[0][i];
        p.b[i] = pts[1][i];
      }
    }
    pairs.push_back(std::move(p));
  }
  {
    // Denormals: products underflow to zero in float; the double reference
    // keeps them, so the comparison exercises the absolute floor of the
    // error bound.
    FloatPair p{"denormal", std::vector<float>(d), std::vector<float>(d)};
    for (std::size_t i = 0; i < d; ++i) {
      p.a[i] = (i % 2 == 0 ? 1.0e-41f : -3.0e-42f);
      p.b[i] = (i % 3 == 0 ? -2.0e-41f : 1.0e-41f);
    }
    pairs.push_back(std::move(p));
  }
  {
    // Large-magnitude cancellation: alternating-sign 1e4 entries make the
    // dot's partial sums live at 1e8 scale while the true sum sits near
    // zero — the worst case for reassociation differences.
    FloatPair p{"cancel", std::vector<float>(d), std::vector<float>(d)};
    for (std::size_t i = 0; i < d; ++i) {
      p.a[i] = (i % 2 == 0 ? 1.0e4f : -1.0e4f) + static_cast<float>(i % 7);
      p.b[i] = 1.0e4f + static_cast<float>(i % 5);
    }
    pairs.push_back(std::move(p));
  }
  return pairs;
}

// Reassociation bound for comparing a float kernel against the double
// reference: any fixed summation order differs from the exact sum by at
// most ~n_adds * eps * sum(|terms|); the factor 4 covers the per-term
// product rounding and fma-vs-mul differences, and the 4*FLT_MIN floor
// covers results that underflow entirely (denormal inputs).
double float_bound(std::size_t d, double abs_term_sum) {
  return std::max(4.0 * static_cast<double>(FLT_MIN),
                  4.0 * static_cast<double>(d + 8) *
                      static_cast<double>(FLT_EPSILON) * abs_term_sum);
}

// --- integer bit-identity across every tier ----------------------------------

template <typename T>
void check_integer_identity(std::size_t d) {
  std::vector<T> a(d), b(d);
  if (d > 0) {
    auto pts = ann::make_uniform<T>(2, d, -120, 250, 99 + d);
    for (std::size_t i = 0; i < d; ++i) {
      a[i] = pts[0][i];
      b[i] = pts[1][i];
    }
  }
  const float ref_l2 = ann::scalarref::EuclideanSquared::eval(a.data(),
                                                              b.data(), d);
  const float ref_dot =
      -ann::scalarref::NegInnerProduct::eval(a.data(), b.data(), d);
  // Exact check against 64-bit integer arithmetic as well, so a wrong
  // scalarref could not vacuously pass.
  long long exact_l2 = 0, exact_dot = 0;
  for (std::size_t i = 0; i < d; ++i) {
    long long diff =
        static_cast<long long>(a[i]) - static_cast<long long>(b[i]);
    exact_l2 += diff * diff;
    exact_dot += static_cast<long long>(a[i]) * static_cast<long long>(b[i]);
  }
  ASSERT_EQ(ref_l2, static_cast<float>(exact_l2));
  ASSERT_EQ(ref_dot, static_cast<float>(exact_dot));

  for (Tier tier : available_tiers()) {
    const ann::simd::KernelTable* t = ann::simd::table_for(tier);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ((t->*ann::simd::KernelsOf<T>::l2)(a.data(), b.data(), d), ref_l2)
        << "l2 tier=" << t->name << " d=" << d;
    EXPECT_EQ((t->*ann::simd::KernelsOf<T>::dot)(a.data(), b.data(), d),
              ref_dot)
        << "dot tier=" << t->name << " d=" << d;
  }
}

TEST(SimdKernels, IntegerL2AndDotBitIdenticalAcrossAllTiers) {
  for (std::size_t d : test_dims()) {
    check_integer_identity<std::uint8_t>(d);
    check_integer_identity<std::int8_t>(d);
  }
}

// Integer results must also be bit-identical through the METRIC dispatch
// shim (the path builds and searches actually take).
TEST(SimdKernels, IntegerMetricDispatchBitIdenticalAcrossAllTiers) {
  for (std::size_t d : test_dims()) {
    std::vector<std::uint8_t> a(d), b(d);
    if (d > 0) {
      auto pts = ann::make_uniform<std::uint8_t>(2, d, 0, 255, 7 + d);
      for (std::size_t i = 0; i < d; ++i) {
        a[i] = pts[0][i];
        b[i] = pts[1][i];
      }
    }
    const float ref_l2 =
        ann::scalarref::EuclideanSquared::eval(a.data(), b.data(), d);
    const float ref_ip =
        ann::scalarref::NegInnerProduct::eval(a.data(), b.data(), d);
    for (Tier tier : available_tiers()) {
      ann::simd::ScopedTier scoped(tier);
      EXPECT_EQ(ann::EuclideanSquared::eval(a.data(), b.data(), d), ref_l2)
          << ann::simd::tier_name(tier) << " d=" << d;
      EXPECT_EQ(ann::NegInnerProduct::eval(a.data(), b.data(), d), ref_ip)
          << ann::simd::tier_name(tier) << " d=" << d;
    }
  }
}

// --- float agreement within the documented bound -----------------------------

TEST(SimdKernels, FloatL2AndDotWithinReassociationBoundOfDoubleReference) {
  for (std::size_t d : test_dims()) {
    for (const FloatPair& p : float_pairs(d)) {
      double exact_l2 = 0, exact_dot = 0, abs_l2 = 0, abs_dot = 0;
      for (std::size_t i = 0; i < d; ++i) {
        double diff = static_cast<double>(p.a[i]) - static_cast<double>(p.b[i]);
        exact_l2 += diff * diff;
        abs_l2 += diff * diff;
        double prod = static_cast<double>(p.a[i]) * static_cast<double>(p.b[i]);
        exact_dot += prod;
        abs_dot += std::fabs(prod);
      }
      const double l2_tol = float_bound(d, abs_l2);
      const double dot_tol = float_bound(d, abs_dot);
      float generic_l2 = 0, generic_dot = 0;
      for (Tier tier : available_tiers()) {
        const ann::simd::KernelTable* t = ann::simd::table_for(tier);
        float l2 = t->l2_f32(p.a.data(), p.b.data(), d);
        float dot = t->dot_f32(p.a.data(), p.b.data(), d);
        EXPECT_NEAR(static_cast<double>(l2), exact_l2, l2_tol)
            << p.label << " tier=" << t->name << " d=" << d;
        EXPECT_NEAR(static_cast<double>(dot), exact_dot, dot_tol)
            << p.label << " tier=" << t->name << " d=" << d;
        // scalarref agreement, same bound (it is one more summation order).
        EXPECT_NEAR(l2,
                    ann::scalarref::EuclideanSquared::eval(p.a.data(),
                                                           p.b.data(), d),
                    2 * l2_tol)
            << p.label << " tier=" << t->name << " d=" << d;
        if (tier == Tier::kGeneric) {
          generic_l2 = l2;
          generic_dot = dot;
        }
      }
      // Tier-vs-generic: each side is within `tol` of the exact value, so
      // they sit within 2*tol of each other.
      for (Tier tier : available_tiers()) {
        const ann::simd::KernelTable* t = ann::simd::table_for(tier);
        EXPECT_NEAR(t->l2_f32(p.a.data(), p.b.data(), d), generic_l2,
                    2 * l2_tol)
            << p.label << " tier=" << t->name << " d=" << d;
        EXPECT_NEAR(t->dot_f32(p.a.data(), p.b.data(), d), generic_dot,
                    2 * dot_tol)
            << p.label << " tier=" << t->name << " d=" << d;
      }
    }
  }
}

TEST(SimdKernels, CosineMetricAgreesAcrossTiersAndWithScalarref) {
  for (std::size_t d : test_dims()) {
    for (const FloatPair& p : float_pairs(d)) {
      const float ref =
          ann::scalarref::Cosine::eval(p.a.data(), p.b.data(), d);
      for (Tier tier : available_tiers()) {
        ann::simd::ScopedTier scoped(tier);
        float got = ann::Cosine::eval(p.a.data(), p.b.data(), d);
        EXPECT_TRUE(std::isfinite(got))
            << p.label << " " << ann::simd::tier_name(tier) << " d=" << d;
        // Cosine divides by the norms, so the reassociation error is
        // relative; 1e-4 matches the tolerance the generic kernels are
        // already held to in test_distance_kernels.cpp. The cancellation
        // pair is excluded: its dot is ill-conditioned by construction
        // (|sum| << sum|terms|), where no absolute tolerance on the final
        // ratio is meaningful — the kernel-level bound above covers it.
        if (std::string_view(p.label) != "cancel") {
          EXPECT_NEAR(got, ref, 1e-4)
              << p.label << " " << ann::simd::tier_name(tier) << " d=" << d;
        }
      }
    }
  }
}

// --- cosine family: prepared == plain, bitwise, per tier ---------------------

template <typename T>
void check_cosine_family_bitwise(const T* a, const T* b, std::size_t d) {
  for (Tier tier : available_tiers()) {
    const ann::simd::KernelTable* t = ann::simd::table_for(tier);
    float sd = (t->*ann::simd::KernelsOf<T>::self_dot)(a, d);
    float dot2 = 0, na2 = 0, nb2 = 0;
    (t->*ann::simd::KernelsOf<T>::dot_norm2)(a, b, d, dot2, na2, nb2);
    float dot1 = 0, nb1 = 0;
    (t->*ann::simd::KernelsOf<T>::dot_norm)(a, b, d, dot1, nb1);
    EXPECT_EQ(sd, na2) << "self_dot vs dot_norm2 |a|^2, tier=" << t->name
                       << " d=" << d;
    EXPECT_EQ(dot1, dot2) << "dot_norm vs dot_norm2 dot, tier=" << t->name
                          << " d=" << d;
    EXPECT_EQ(nb1, nb2) << "dot_norm vs dot_norm2 |b|^2, tier=" << t->name
                        << " d=" << d;

    // Metric level through the dispatch shim: prepare()+eval(prep) must be
    // bitwise equal to the plain two-argument eval within the tier.
    ann::simd::ScopedTier scoped(tier);
    auto prep = ann::Cosine::prepare(a, d);
    EXPECT_EQ(ann::Cosine::eval(prep, a, b, d), ann::Cosine::eval(a, b, d))
        << "prepared vs plain, tier=" << t->name << " d=" << d;
  }
}

TEST(SimdKernels, CosinePreparedEqualsPlainBitwisePerTier) {
  for (std::size_t d : test_dims()) {
    for (const FloatPair& p : float_pairs(d)) {
      check_cosine_family_bitwise(p.a.data(), p.b.data(), d);
    }
    std::vector<std::uint8_t> ua(d), ub(d);
    std::vector<std::int8_t> ia(d), ib(d);
    if (d > 0) {
      auto u = ann::make_uniform<std::uint8_t>(2, d, 0, 255, 11 + d);
      auto s = ann::make_uniform<std::int8_t>(2, d, -128, 127, 13 + d);
      for (std::size_t i = 0; i < d; ++i) {
        ua[i] = u[0][i];
        ub[i] = u[1][i];
        ia[i] = s[0][i];
        ib[i] = s[1][i];
      }
    }
    check_cosine_family_bitwise(ua.data(), ub.data(), d);
    check_cosine_family_bitwise(ia.data(), ib.data(), d);
  }
}

TEST(SimdKernels, CosineZeroNormReturnsOneOnEveryTier) {
  for (std::size_t d : test_dims()) {
    std::vector<float> zero(d, 0.0f);
    std::vector<float> ones(d, 1.0f);
    for (Tier tier : available_tiers()) {
      ann::simd::ScopedTier scoped(tier);
      EXPECT_EQ(ann::Cosine::eval(zero.data(), ones.data(), d), 1.0f)
          << ann::simd::tier_name(tier) << " d=" << d;
      EXPECT_EQ(ann::Cosine::eval(ones.data(), zero.data(), d), 1.0f)
          << ann::simd::tier_name(tier) << " d=" << d;
      EXPECT_EQ(ann::Cosine::eval(zero.data(), zero.data(), d), 1.0f)
          << ann::simd::tier_name(tier) << " d=" << d;
      auto prep = ann::Cosine::prepare(zero.data(), d);
      EXPECT_EQ(ann::Cosine::eval(prep, zero.data(), ones.data(), d), 1.0f)
          << ann::simd::tier_name(tier) << " d=" << d;
    }
  }
}

// --- k-means assignment kernel -----------------------------------------------

// The +inf-padded dims-major block of kernel_table.h.
std::vector<float> centroid_block(const std::vector<std::vector<float>>& rows,
                                  std::size_t d, std::size_t& width) {
  const std::size_t w = ann::simd::kCentroidBlockWidth;
  width = (rows.size() + w - 1) / w * w;
  std::vector<float> block(d * width, std::numeric_limits<float>::infinity());
  for (std::size_t c = 0; c < rows.size(); ++c) {
    for (std::size_t j = 0; j < d; ++j) block[j * width + c] = rows[c][j];
  }
  return block;
}

// The assignment k-means ran before the kernel existed: one generic
// l2_kernel per centroid row, first strict minimum.
ann::simd::BlockArgmin row_scan(const std::vector<std::vector<float>>& rows,
                                const float* q, std::size_t d) {
  ann::simd::BlockArgmin best{0, std::numeric_limits<float>::infinity()};
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const float dist =
        ann::internal::l2_kernel<float, float, float>(rows[c].data(), q, d);
    if (dist < best.dist) best = {static_cast<std::uint32_t>(c), dist};
  }
  return best;
}

void expect_block_matches_scan(const std::vector<std::vector<float>>& rows,
                               const std::vector<float>& q, std::size_t d,
                               const char* label) {
  std::size_t width = 0;
  const std::vector<float> block = centroid_block(rows, d, width);
  const ann::simd::BlockArgmin want = row_scan(rows, q.data(), d);
  for (Tier tier : available_tiers()) {
    const ann::simd::KernelTable* t = ann::simd::table_for(tier);
    const ann::simd::BlockArgmin got =
        t->nearest_l2_block(block.data(), width, q.data(), d);
    EXPECT_EQ(got.index, want.index)
        << label << " tier=" << t->name << " d=" << d << " k=" << rows.size();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.dist),
              std::bit_cast<std::uint32_t>(want.dist))
        << label << " tier=" << t->name << " d=" << d << " k=" << rows.size()
        << " got " << got.dist << " want " << want.dist;
  }
}

std::vector<std::vector<float>> float_rows(std::size_t k, std::size_t d,
                                           std::uint64_t seed) {
  auto pts = ann::make_uniform<float>(k, d, -50.0, 50.0, seed);
  std::vector<std::vector<float>> rows(k);
  for (std::size_t c = 0; c < k; ++c) {
    rows[c].assign(pts[static_cast<ann::PointId>(c)],
                   pts[static_cast<ann::PointId>(c)] + d);
  }
  return rows;
}

// Bit-equal distances, not just equal indices: a kernel whose mul+add got
// fused into fma still picks the same centroid almost always, so only the
// distance bits show the changed summation.
TEST(SimdKernels, NearestL2BlockBitIdenticalToRowScanOnEveryTier) {
  for (std::size_t d : {1, 7, 8, 9, 17, 128, 200}) {
    for (std::size_t k : {1, 15, 16, 17, 100, 256}) {
      const auto rows = float_rows(k, d, 1000 * d + k);
      for (std::uint64_t qs = 0; qs < 8; ++qs) {
        const auto q = float_rows(1, d, 7 + qs * 131 + d * k)[0];
        expect_block_matches_scan(rows, q, d, "random");
      }
      // A query equal to a centroid.
      expect_block_matches_scan(rows, rows[k / 2], d, "query==centroid");
      // Every centroid repeated from a pool of three: ties everywhere, and
      // the query sits on a repeated one.
      auto dup = rows;
      for (std::size_t c = 0; c < k; ++c) dup[c] = rows[c % 3];
      expect_block_matches_scan(dup, rows[std::min<std::size_t>(k - 1, 2)],
                                d, "duplicates");
      expect_block_matches_scan(dup, float_rows(1, d, 99 + d)[0], d,
                                "duplicates/random");
    }
  }
}

TEST(SimdKernels, NearestL2BlockTiePicksSmallerIndexOnEveryTier) {
  const std::size_t d = 8;
  auto rows = float_rows(40, d, 5);
  rows[33] = rows[21];
  rows[38] = rows[21];
  for (Tier tier : available_tiers()) {
    std::size_t width = 0;
    const std::vector<float> block = centroid_block(rows, d, width);
    const auto got = ann::simd::table_for(tier)->nearest_l2_block(
        block.data(), width, rows[38].data(), d);
    EXPECT_EQ(got.index, 21u) << ann::simd::tier_name(tier);
    EXPECT_EQ(got.dist, 0.0f) << ann::simd::tier_name(tier);
  }
}

// Every distance overflows to +inf: the row scan never improves on its
// starting {0, +inf}, and every tier must return exactly that.
TEST(SimdKernels, NearestL2BlockAllInfiniteReturnsZeroOnEveryTier) {
  for (std::size_t k : {1, 17, 100}) {
    const std::size_t d = 9;
    std::vector<std::vector<float>> rows(k, std::vector<float>(d, 3.0e30f));
    const std::vector<float> q(d, -3.0e30f);
    expect_block_matches_scan(rows, q, d, "all +inf");
    std::size_t width = 0;
    const std::vector<float> block = centroid_block(rows, d, width);
    for (Tier tier : available_tiers()) {
      const auto got = ann::simd::table_for(tier)->nearest_l2_block(
          block.data(), width, q.data(), d);
      EXPECT_EQ(got.index, 0u) << ann::simd::tier_name(tier);
      EXPECT_EQ(got.dist, std::numeric_limits<float>::infinity())
          << ann::simd::tier_name(tier);
    }
  }
}

// --- purity / determinism ----------------------------------------------------

TEST(SimdKernels, RepeatedCallsBitwiseIdenticalPerTier) {
  const std::size_t d = 100;
  auto pts = ann::make_uniform<float>(2, d, -5.0, 5.0, 321);
  for (Tier tier : available_tiers()) {
    const ann::simd::KernelTable* t = ann::simd::table_for(tier);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(t->l2_f32(pts[0], pts[1], d), t->l2_f32(pts[0], pts[1], d));
      EXPECT_EQ(t->dot_f32(pts[0], pts[1], d), t->dot_f32(pts[0], pts[1], d));
      EXPECT_EQ(t->self_dot_f32(pts[0], d), t->self_dot_f32(pts[0], d));
    }
  }
}

// --- selection machinery -----------------------------------------------------

TEST(SimdSelection, ParseEnvCoversTheDocumentedGrammar) {
  auto req = ann::simd::parse_env(nullptr);
  EXPECT_TRUE(req.valid);
  EXPECT_TRUE(req.auto_);
  req = ann::simd::parse_env("");
  EXPECT_TRUE(req.valid);
  EXPECT_TRUE(req.auto_);
  req = ann::simd::parse_env("auto");
  EXPECT_TRUE(req.valid);
  EXPECT_TRUE(req.auto_);
  req = ann::simd::parse_env("scalar");
  EXPECT_TRUE(req.valid);
  EXPECT_FALSE(req.auto_);
  EXPECT_EQ(req.tier, Tier::kScalar);
  req = ann::simd::parse_env("generic");
  EXPECT_TRUE(req.valid);
  EXPECT_FALSE(req.auto_);
  EXPECT_EQ(req.tier, Tier::kGeneric);
  // "neon" is reserved scaffolding: maps to generic until a table exists.
  req = ann::simd::parse_env("neon");
  EXPECT_TRUE(req.valid);
  EXPECT_FALSE(req.auto_);
  EXPECT_EQ(req.tier, Tier::kGeneric);
  req = ann::simd::parse_env("avx2");
  EXPECT_TRUE(req.valid);
  EXPECT_FALSE(req.auto_);
  EXPECT_EQ(req.tier, Tier::kAvx2);
  req = ann::simd::parse_env("avx512");
  EXPECT_TRUE(req.valid);
  EXPECT_FALSE(req.auto_);
  EXPECT_EQ(req.tier, Tier::kAvx512);
  EXPECT_FALSE(ann::simd::parse_env("sse9").valid);
  EXPECT_FALSE(ann::simd::parse_env("AVX2").valid);  // case-sensitive
}

TEST(SimdSelection, CapsAndTierStateAreConsistent) {
  // Whatever tier is active must be supported, and its table name must
  // round-trip through tier_name.
  Tier active = ann::simd::active_tier();
  EXPECT_TRUE(ann::simd::tier_supported(active));
  EXPECT_TRUE(ann::simd::tier_supported(Tier::kScalar));
  EXPECT_TRUE(ann::simd::tier_supported(Tier::kGeneric));
  EXPECT_FALSE(ann::simd::caps_string().empty());
  for (Tier tier : available_tiers()) {
    const ann::simd::KernelTable* t = ann::simd::table_for(tier);
    ASSERT_NE(t, nullptr) << ann::simd::tier_name(tier);
    EXPECT_STREQ(t->name, ann::simd::tier_name(tier));
  }
  // ISA tiers imply their caps bits.
  if (ann::simd::tier_supported(Tier::kAvx2)) {
    EXPECT_TRUE(ann::simd::caps().avx2);
    EXPECT_TRUE(ann::simd::caps().fma);
  }
  if (ann::simd::tier_supported(Tier::kAvx512)) {
    EXPECT_TRUE(ann::simd::caps().avx512f);
    EXPECT_TRUE(ann::simd::caps().avx512bw);
    EXPECT_TRUE(ann::simd::caps().avx512dq);
    EXPECT_TRUE(ann::simd::caps().avx512vl);
  }
}

TEST(SimdSelection, ScopedTierRestoresAndUnsupportedForceThrows) {
  const Tier before = ann::simd::active_tier();
  {
    ann::simd::ScopedTier scoped(Tier::kScalar);
    EXPECT_EQ(ann::simd::active_tier(), Tier::kScalar);
    // While the scalar tier is active, the metric shim must route through
    // it (a distance evaluated now equals the scalarref value bitwise for
    // integers).
    std::vector<std::uint8_t> a(33, 7), b(33, 9);
    EXPECT_EQ(ann::EuclideanSquared::eval(a.data(), b.data(), 33),
              ann::scalarref::EuclideanSquared::eval(a.data(), b.data(), 33));
  }
  EXPECT_EQ(ann::simd::active_tier(), before);
  for (int t = 0; t < ann::simd::kNumTiers; ++t) {
    Tier tier = static_cast<Tier>(t);
    if (!ann::simd::tier_supported(tier)) {
      EXPECT_THROW(ann::simd::set_active_tier(tier), std::invalid_argument);
    }
  }
}

}  // namespace
