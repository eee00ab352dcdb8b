// Deterministic parallel Lloyd k-means — the clustering substrate for the
// IVF and PQ baselines (FAISS-style, §5 "Baseline Algorithms").
//
// Determinism: seeding samples distinct input points via a seeded
// permutation; assignment ties break toward the smaller centroid index and
// sums each distance in one order on every SIMD tier (CentroidBlock);
// centroid updates accumulate group members in semisort (id) order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/semisort.h"
#include "parlay/sequence_ops.h"

#include "algorithms/common.h"
#include "core/distance.h"
#include "core/points.h"

namespace ann {

// Distance between a float centroid and a point of any element type
// (counted as a distance comparison like every other kernel). Uses the
// shared 8-lane L2 kernel with float accumulation for the mixed types.
template <typename T>
inline float centroid_distance(const float* c, const T* p, std::size_t d) {
  DistanceCounter::bump();
  return internal::l2_kernel<float, T, float>(c, p, d);
}

struct KMeansParams {
  std::uint32_t num_clusters = 16;
  std::uint32_t max_iters = 10;
  std::uint64_t seed = 7;
};

struct KMeansResult {
  PointSet<float> centroids;
  std::vector<std::uint32_t> assignment;  // point -> cluster
};

// A centroid set transposed once into the dims-major, +inf-padded block
// the dispatched nearest_l2_block kernel scans (layout in
// core/simd/kernel_table.h). Every tier sums each centroid in
// centroid_distance's order, so assignments are the same on every tier.
class CentroidBlock {
 public:
  explicit CentroidBlock(const PointSet<float>& centroids)
      : k_(centroids.size()),
        d_(centroids.dims()),
        width_((k_ + simd::kCentroidBlockWidth - 1) /
               simd::kCentroidBlockWidth * simd::kCentroidBlockWidth),
        data_(d_ * width_, std::numeric_limits<float>::infinity()) {
    for (std::size_t c = 0; c < k_; ++c) {
      const float* row = centroids[static_cast<PointId>(c)];
      for (std::size_t j = 0; j < d_; ++j) data_[j * width_ + c] = row[j];
    }
  }

  // Index of the nearest centroid to the float row q (ties -> smaller
  // index), counted as k distance comparisons.
  std::uint32_t nearest(const float* q) const {
    DistanceCounter::bump(k_);
    return nearest_l2_block(data_.data(), width_, q, d_).index;
  }

 private:
  std::size_t k_;
  std::size_t d_;
  std::size_t width_;
  std::vector<float> data_;
};

// f(i, row) for every point i, with row = point i as floats: the point
// itself for float sets, else a cast into one scratch row per chunk.
template <typename T, typename F>
void for_each_float_row(const PointSet<T>& points, F&& f) {
  constexpr std::size_t kChunk = 256;
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  parlay::parallel_for(0, (n + kChunk - 1) / kChunk, [&](std::size_t b) {
    std::vector<float> scratch(std::is_same_v<T, float> ? 0 : d);
    const std::size_t end = std::min(n, (b + 1) * kChunk);
    for (std::size_t i = b * kChunk; i < end; ++i) {
      const T* p = points[static_cast<PointId>(i)];
      if constexpr (std::is_same_v<T, float>) {
        f(i, p);
      } else {
        for (std::size_t j = 0; j < d; ++j) {
          scratch[j] = static_cast<float>(p[j]);
        }
        f(i, scratch.data());
      }
    }
  }, 1);
}

// Index of the nearest centroid to p (ties -> smaller index); a one-point
// convenience over CentroidBlock, which loops should build once instead.
template <typename T>
std::uint32_t nearest_centroid(const PointSet<float>& centroids, const T* p,
                               std::size_t d) {
  std::vector<float> row(p, p + d);
  return CentroidBlock(centroids).nearest(row.data());
}

template <typename T>
KMeansResult kmeans(const PointSet<T>& points, const KMeansParams& params) {
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  const std::uint32_t k =
      static_cast<std::uint32_t>(std::min<std::size_t>(params.num_clusters,
                                                       std::max<std::size_t>(n, 1)));
  KMeansResult res;
  res.centroids = PointSet<float>(k, d);
  res.assignment.assign(n, 0);
  if (n == 0 || k == 0) return res;

  // Seed with k distinct points.
  auto perm = deterministic_permutation(n, params.seed);
  for (std::uint32_t c = 0; c < k; ++c) {
    const T* p = points[perm[c]];
    float* row = res.centroids.mutable_point(c);
    for (std::size_t j = 0; j < d; ++j) row[j] = static_cast<float>(p[j]);
  }

  for (std::uint32_t iter = 0; iter < params.max_iters; ++iter) {
    // Assign.
    const CentroidBlock block(res.centroids);
    std::vector<std::uint32_t> new_assignment(n);
    for_each_float_row(points, [&](std::size_t i, const float* row) {
      new_assignment[i] = block.nearest(row);
    });
    bool changed = new_assignment != res.assignment;
    res.assignment = std::move(new_assignment);
    if (!changed && iter > 0) break;

    // Update: group members per cluster (semisort), mean in group order.
    auto pairs = parlay::tabulate(n, [&](std::size_t i) {
      return std::pair<std::uint32_t, PointId>{res.assignment[i],
                                               static_cast<PointId>(i)};
    });
    auto groups = parlay::group_by_key(std::move(pairs));
    parlay::parallel_for(0, groups.size(), [&](std::size_t gi) {
      std::uint32_t c = groups[gi].key;
      const auto& members = groups[gi].values;
      std::vector<double> acc(d, 0.0);
      for (PointId p : members) {
        const T* row = points[p];
        for (std::size_t j = 0; j < d; ++j) acc[j] += static_cast<double>(row[j]);
      }
      float* out = res.centroids.mutable_point(c);
      for (std::size_t j = 0; j < d; ++j) {
        out[j] = static_cast<float>(acc[j] / static_cast<double>(members.size()));
      }
    }, 1);
    // Clusters with no members keep their previous centroid (groups only
    // contains non-empty clusters).
  }
  return res;
}

}  // namespace ann
