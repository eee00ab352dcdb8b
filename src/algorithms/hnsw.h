// ParlayHNSW (§4.2): hierarchical navigable small world graphs built with
// per-layer batch insertion.
//
// Deviations from locks-and-CAS hnswlib, per the paper:
//   * levels are assigned deterministically as a pure function of
//     (seed, point id): floor(-ln U * mL), mL = 1/ln(m);
//   * prefix doubling over the insertion order; within a batch every point
//     computes its per-layer neighborhoods against the pre-batch snapshot;
//   * reverse edges merged per layer with a semisort — "we carefully remove
//     locks in all internal data structures";
//   * bottom layer degree bound is 2m, upper layers m (hnswlib convention
//     kept by the paper: 2m = R to match DiskANN).
//
// Search descends with beam 1 through the upper layers and runs the shared
// beam search at layer 0 (Alg. 1).
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/random.h"

#include "algorithms/common.h"
#include "core/beam_search.h"
#include "core/graph.h"
#include "core/points.h"
#include "core/prune.h"

namespace ann {

struct HNSWParams {
  std::uint32_t m = 16;           // degree bound (upper layers); bottom 2m
  std::uint32_t ef_construction = 64;  // build beam width (efc)
  float alpha = 1.0f;             // heuristic prune parameter
  double batch_cap_fraction = 0.02;
  std::uint64_t seed = 2;
  bool shuffle = true;
};

template <typename Metric, typename T>
struct HNSWIndex {
  std::vector<Graph> layers;          // layers[0] = bottom (all points)
  std::vector<std::uint32_t> levels;  // per-point top level
  PointId entry = kInvalidPoint;
  std::uint32_t entry_level = 0;

  // Greedy beam-1 descent from the entry through layers (top..target+1],
  // measured by `oracle`: ExactOracle, or a quantized view (no row reads).
  template <typename Oracle>
  PointId descend_to(const Oracle& oracle, std::uint32_t target_layer,
                     SearchScratch& scratch = local_search_scratch()) const {
    PointId cur = entry;
    const SearchParams one{.beam_width = 1, .k = 1};
    for (std::uint32_t l = entry_level; l > target_layer; --l) {
      auto res = internal::unfiltered_walk<ApproxVisitedSet>(
          oracle, layers[l], std::span<const PointId>(&cur, 1), one, scratch);
      if (!res.frontier.empty()) cur = res.frontier[0].id;
    }
    return cur;
  }

  std::vector<PointId> query(const T* q, const PointSet<T>& points,
                             const SearchParams& params) const {
    return query_full(q, points, params).top_k_ids(params.k);
  }

  SearchResult query_full(const T* q, const PointSet<T>& points,
                          const SearchParams& params) const {
    std::vector<PointId> starts{
        descend_to(ExactOracle<Metric, T>(q, points), 0)};
    return beam_search<Metric>(q, points, layers[0], starts, params);
  }
};

namespace internal {

// Deterministic geometric level: floor(-ln(U) * mL).
inline std::uint32_t hnsw_level(const parlay::random_source& rs, PointId p,
                                double mL, std::uint32_t max_level) {
  double u = rs.ith_rand_double(p);
  if (u <= 0.0) u = 1e-12;
  auto lvl = static_cast<std::uint32_t>(-std::log(u) * mL);
  return std::min(lvl, max_level);
}

}  // namespace internal

template <typename Metric, typename T>
HNSWIndex<Metric, T> build_hnsw(const PointSet<T>& points,
                                const HNSWParams& params) {
  const std::size_t n = points.size();
  HNSWIndex<Metric, T> index;
  if (n == 0) return index;

  const double mL = 1.0 / std::log(std::max<double>(2.0, params.m));
  const std::uint32_t kMaxLevel = 24;
  parlay::random_source level_rs =
      parlay::random_source(params.seed).fork(0xabcd);

  index.levels = parlay::tabulate(n, [&](std::size_t i) {
    return internal::hnsw_level(level_rs, static_cast<PointId>(i), mL,
                                kMaxLevel);
  });
  std::uint32_t top = 0;
  for (std::size_t i = 0; i < n; ++i) top = std::max(top, index.levels[i]);

  // Layer degree bounds: bottom 2m (with 2x slack for pre-prune overflow,
  // like DiskANN), upper m.
  index.layers.reserve(top + 1);
  for (std::uint32_t l = 0; l <= top; ++l) {
    std::uint32_t bound = (l == 0) ? 2 * params.m : params.m;
    index.layers.emplace_back(n, 2 * bound);
  }

  std::vector<PointId> order =
      params.shuffle ? deterministic_permutation(n, params.seed)
                     : parlay::tabulate(n, [](std::size_t i) {
                         return static_cast<PointId>(i);
                       });

  // The first point in the order bootstraps the hierarchy as the entry.
  index.entry = order[0];
  index.entry_level = index.levels[order[0]];

  auto schedule = BatchSchedule::prefix_doubling(n - 1,
                                                 params.batch_cap_fraction);
  std::span<const PointId> rest(order.data() + 1, n - 1);
  internal::ReverseEdgeScratch rev_scratch;  // reused across batches/layers

  for (auto [lo, hi] : schedule.ranges) {
    auto batch = rest.subspan(lo, hi - lo);
    // Link only up to the current entry's level (a batch point above it has
    // nothing to link to there; it becomes the new entry below and acquires
    // those edges from later inserts — hnswlib semantics).
    const std::uint32_t link_top = std::min(top, index.entry_level);

    // Phase 1: every member computes its out-lists for ALL of its layers
    // against the pre-batch snapshot (nothing is written until every member
    // has finished searching, so a member can never encounter itself or a
    // partially-written row — batch members are mutually invisible).
    // Out-lists keep their (id, dist) pairs: phase 2 reuses the distances
    // for the reverse-edge re-prunes.
    std::vector<std::vector<std::vector<Neighbor>>> out_lists(batch.size());
    parlay::parallel_for(0, batch.size(), [&](std::size_t i) {
      PointId p = batch[i];
      const std::uint32_t p_top = std::min(index.levels[p], link_top);
      out_lists[i].assign(p_top + 1, {});
      PointId ep =
          index.descend_to(ExactOracle<Metric, T>(points[p], points), p_top);
      // Insertion layers: efc search, prune, carry the closest point down.
      SearchParams search{.beam_width = params.ef_construction, .k = 1};
      for (std::int64_t dl = p_top; dl >= 0; --dl) {
        auto layer = static_cast<std::uint32_t>(dl);
        std::uint32_t bound = (layer == 0) ? 2 * params.m : params.m;
        std::vector<PointId> st{ep};
        auto res = beam_search<Metric>(points[p], points, index.layers[layer],
                                       st, search);
        if (!res.frontier.empty()) ep = res.frontier[0].id;
        auto& ps = local_build_scratch();
        robust_prune_into<Metric>(p, res.visited, points,
                                  PruneParams{bound, params.alpha}, ps);
        out_lists[i][layer].assign(ps.result_nbrs.begin(),
                                   ps.result_nbrs.end());
      }
    }, 1);

    // Phase 2 per layer: install out-lists, then merge reverse edges via
    // the flat semisorted pair buffer and re-prune overfull vertices with
    // the phase-1 distances reused.
    std::vector<PointId> ids_buf;
    for (std::uint32_t layer = 0; layer <= link_top; ++layer) {
      Graph& g = index.layers[layer];
      std::uint32_t bound = (layer == 0) ? 2 * params.m : params.m;
      const PruneParams prune{bound, params.alpha};
      const std::size_t stride = bound;
      rev_scratch.prepare(batch.size(), stride);
      auto* rev = rev_scratch.rev.data();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (layer >= out_lists[i].size()) continue;
        const auto& row = out_lists[i][layer];
        ids_buf.clear();
        for (std::size_t j = 0; j < row.size(); ++j) {
          ids_buf.push_back(row[j].id);
          rev[i * stride + j] = {row[j].id, Neighbor{batch[i], row[j].dist}};
        }
        g.set_neighbors(batch[i], ids_buf);
      }
      const std::size_t ngroups = rev_scratch.group();
      parlay::parallel_for(0, ngroups, [&](std::size_t gi) {
        const std::size_t lo = rev_scratch.starts[gi];
        const std::size_t hi = rev_scratch.starts[gi + 1];
        const PointId target = rev[lo].first;
        auto& ps = local_build_scratch();
        ps.merge_known.clear();
        ps.merge_ids.clear();
        for (std::size_t e = lo; e < hi; ++e) {
          ps.merge_known.push_back(rev[e].second);
          ps.merge_ids.push_back(rev[e].second.id);
        }
        auto existing = g.neighbors(target);
        ps.merge_existing.assign(existing.begin(), existing.end());
        std::size_t appended = g.append_neighbors(target, ps.merge_ids);
        if (appended < ps.merge_ids.size() || g.degree(target) > bound) {
          auto kept = robust_prune_mixed<Metric>(target, ps.merge_known,
                                                 ps.merge_existing, points,
                                                 prune, ps);
          g.set_neighbors(target, kept);
        }
      }, 1);
    }

    // New global entry: highest-level point so far (deterministic tie-break:
    // smallest id).
    for (PointId p : batch) {
      if (index.levels[p] > index.entry_level ||
          (index.levels[p] == index.entry_level && p < index.entry)) {
        index.entry = p;
        index.entry_level = index.levels[p];
      }
    }
  }
  // Every layer's degrees are back under its bound; drop the append slack.
  for (std::uint32_t l = 0; l < index.layers.size(); ++l) {
    index.layers[l].compact((l == 0) ? 2 * params.m : params.m);
  }
  return index;
}

}  // namespace ann
