// Shared helpers for the graph index builders: deterministic medoid
// computation, deterministic permutations, prefix-doubling batch schedule
// (Alg. 3's while-loop), and the uniform searchable-index wrappers the
// benches and examples consume.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/random.h"
#include "parlay/sequence_ops.h"
#include "parlay/sort.h"

#include "core/beam_search.h"
#include "core/graph.h"
#include "core/points.h"

namespace ann {

namespace internal {

// Flat staging buffer for the lock-free reverse-edge merge phases (Alg. 3
// lines 10-14), shared by the diskann / hnsw / hybrid batch inserters.
//
// Phase 1 writes each batch member's out-edges as (target, {source,
// d(source, target)}) pairs into a fixed stride of `rev` — the distance was
// just computed by the member's own search + prune, so carrying it here is
// what lets phase 2 reuse it instead of evaluating d(target, source) again
// (the kernels are bitwise symmetric). Unused slots keep the kInvalidPoint
// key and stably sort to the end. One stable sort by target then replaces
// the old vector-of-vectors + group_by_key merge: groups become contiguous
// runs processed in place, so no per-group small vectors are ever
// materialized, and the buffers are reused across batches (steady-state
// batch inserts allocate nothing here).
struct ReverseEdgeScratch {
  std::vector<std::pair<PointId, Neighbor>> rev;
  std::vector<std::size_t> starts;  // group boundaries + end sentinel

  // Lay out `members * stride` empty slots (stride = per-member out-degree
  // cap). assign() keeps the previous capacity.
  void prepare(std::size_t members, std::size_t stride) {
    rev.assign(members * stride, {kInvalidPoint, Neighbor{}});
  }

  // Stable-sort by target and compute the contiguous group runs over the
  // valid prefix. Returns the group count; group g spans
  // [starts[g], starts[g + 1]) with all pairs sharing rev[starts[g]].first.
  // Within a run, pairs keep batch-member order (sort stability + the fixed
  // member-indexed layout), matching the old group_by_key value order.
  // Boundary detection is parallel (tabulate + pack_index, as group_by_key
  // did) so the merge phase has no Theta(E) serial component.
  std::size_t group() {
    parlay::sort_by_key_inplace(rev);
    // Padding slots carry the maximal key, so the valid prefix ends at the
    // sorted partition point.
    std::size_t valid = static_cast<std::size_t>(
        std::partition_point(rev.begin(), rev.end(),
                             [](const std::pair<PointId, Neighbor>& e) {
                               return e.first != kInvalidPoint;
                             }) -
        rev.begin());
    auto is_start =
        parlay::tabulate(valid, [&](std::size_t i) -> unsigned char {
          return (i == 0 || rev[i].first != rev[i - 1].first) ? 1 : 0;
        });
    auto start_idx = parlay::pack_index(is_start);
    starts.assign(start_idx.begin(), start_idx.end());
    std::size_t groups = starts.size();
    starts.push_back(valid);
    return groups;
  }
};

}  // namespace internal

// The point closest to the coordinate-wise mean — the canonical deterministic
// entry point ("start point s") used by DiskANN-style indexes.
template <typename Metric, typename T>
PointId find_medoid(const PointSet<T>& points) {
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  if (n == 0) return kInvalidPoint;
  // Deterministic mean: per-dimension sums with a fixed two-level blocked
  // reduction (block boundaries independent of worker count).
  const std::size_t block = 1024;
  const std::size_t nblocks = (n + block - 1) / block;
  std::vector<std::vector<double>> partial(nblocks);
  parlay::parallel_for(0, nblocks, [&](std::size_t b) {
    std::vector<double> acc(d, 0.0);
    std::size_t lo = b * block, hi = std::min(lo + block, n);
    for (std::size_t i = lo; i < hi; ++i) {
      const T* row = points[static_cast<PointId>(i)];
      for (std::size_t j = 0; j < d; ++j) acc[j] += static_cast<double>(row[j]);
    }
    partial[b] = std::move(acc);
  }, 1);
  std::vector<double> mean(d, 0.0);
  for (const auto& acc : partial) {
    for (std::size_t j = 0; j < d; ++j) mean[j] += acc[j];
  }
  for (std::size_t j = 0; j < d; ++j) mean[j] /= static_cast<double>(n);

  std::vector<T> mean_t(d);
  for (std::size_t j = 0; j < d; ++j) {
    mean_t[j] = static_cast<T>(mean[j]);
  }
  // Argmin distance to mean, deterministic tie-break by id. The mean acts
  // as the query: prepare it once, evaluate with the raw kernel, count the
  // whole pass in one bump.
  const T* mean_row = mean_t.data();
  const auto prep = Metric::prepare(mean_row, d);
  auto best = parlay::reduce(
      parlay::tabulate(n, [&](std::size_t i) {
        return Neighbor{static_cast<PointId>(i),
                        Metric::eval(prep, mean_row,
                                     points[static_cast<PointId>(i)], d)};
      }),
      Neighbor{}, [](Neighbor a, Neighbor b) { return a < b ? a : b; });
  DistanceCounter::bump(n);
  return best.id;
}

// Deterministic Fisher-Yates permutation of [0, n) driven by random_source.
inline std::vector<PointId> deterministic_permutation(std::size_t n,
                                                      std::uint64_t seed) {
  std::vector<PointId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<PointId>(i);
  parlay::random_source rs(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = rs.ith_rand_bounded(i, i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

// Prefix-doubling batch boundaries (Alg. 3): batches double in size, capped
// at `cap_fraction * n` (the paper's theta = 0.02n batch-size truncation).
// cap_fraction <= 0 disables the cap; batch_size_one yields the sequential
// schedule used by the prefix-doubling ablation.
struct BatchSchedule {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [start, end)

  static BatchSchedule prefix_doubling(std::size_t n, double cap_fraction) {
    BatchSchedule s;
    std::size_t cap = cap_fraction > 0
                          ? std::max<std::size_t>(
                                1, static_cast<std::size_t>(
                                       cap_fraction * static_cast<double>(n)))
                          : n;
    std::size_t start = 0;
    while (start < n) {
      std::size_t size = start == 0 ? 1 : std::min(start, cap);
      std::size_t end = std::min(start + size, n);
      s.ranges.push_back({start, end});
      start = end;
    }
    return s;
  }

  static BatchSchedule sequential(std::size_t n) {
    BatchSchedule s;
    s.ranges.reserve(n);
    for (std::size_t i = 0; i < n; ++i) s.ranges.push_back({i, i + 1});
    return s;
  }
};

// A built flat-graph index (DiskANN / HCNNG / PyNNDescent all produce this
// shape — the paper notes they share one search routine, §4.5).
template <typename Metric, typename T>
struct GraphIndex {
  Graph graph;
  PointId start = kInvalidPoint;

  std::vector<PointId> query(const T* q, const PointSet<T>& points,
                             const SearchParams& params) const {
    return query_full(q, points, params).top_k_ids(params.k);
  }

  SearchResult query_full(const T* q, const PointSet<T>& points,
                          const SearchParams& params) const {
    std::vector<PointId> starts{start};
    return beam_search<Metric>(q, points, graph, starts, params);
  }
};

}  // namespace ann
