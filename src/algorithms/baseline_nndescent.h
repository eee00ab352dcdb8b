// Lock-based asynchronous NN-descent — the "original implementation" style
// for PyNNDescent in Fig. 1 (§4.4, §5.3): the classic Dong et al. local-join
// update where improvements are pushed into BOTH endpoints' neighbor lists
// under per-vertex locks, immediately visible to concurrent updates. Fast
// sequentially, non-deterministic and contention-bound in parallel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/random.h"

#include "algorithms/baseline_incremental.h"  // LockTable
#include "algorithms/common.h"
#include "algorithms/pynndescent.h"
#include "core/graph.h"
#include "core/points.h"
#include "core/prune.h"

namespace ann {

template <typename Metric, typename T>
GraphIndex<Metric, T> build_baseline_nndescent(const PointSet<T>& points,
                                               const PyNNDescentParams& params) {
  const std::size_t n = points.size();
  GraphIndex<Metric, T> index;
  index.graph = Graph(n, params.k);
  if (n == 0) return index;
  index.start = find_medoid<Metric>(points);

  // Random initial K-NN rows (the original seeds with random neighbors).
  parlay::random_source rs(params.seed);
  std::vector<std::vector<Neighbor>> rows(n);
  parlay::parallel_for(0, n, [&](std::size_t v) {
    auto vrs = rs.fork(v);
    std::vector<Neighbor> row;
    for (std::uint32_t j = 0; j < params.k && n > 1; ++j) {
      PointId u = static_cast<PointId>(vrs.ith_rand_bounded(j, n));
      if (u == v) u = static_cast<PointId>((u + 1) % n);
      row.push_back({u, Metric::distance(points[static_cast<PointId>(v)],
                                         points[u], points.dims())});
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end(),
                          [](const Neighbor& a, const Neighbor& b) {
                            return a.id == b.id;
                          }),
              row.end());
    rows[v] = std::move(row);
  }, 1);

  LockTable locks(n);
  // Push candidate u into v's row under v's lock; returns true if inserted.
  auto push = [&](PointId v, PointId u) {
    if (u == v) return false;
    float d = Metric::distance(points[v], points[u], points.dims());
    Neighbor nb{u, d};
    std::lock_guard<std::mutex> guard(locks[v]);
    auto& row = rows[v];
    auto it = std::lower_bound(row.begin(), row.end(), nb);
    if (it != row.end() && it->id == u) return false;
    // Position before the eviction: pop_back() may invalidate `it`.
    const auto pos = it - row.begin();
    if (row.size() >= params.k) {
      if (!(nb < row.back())) return false;
      row.pop_back();
    }
    row.insert(row.begin() + pos, nb);
    return true;
  };

  for (std::uint32_t round = 0; round < params.max_rounds; ++round) {
    std::atomic<std::size_t> changed{0};
    parlay::parallel_for(0, n, [&](std::size_t v) {
      // Local join: all pairs among v's current neighbors (snapshot copy).
      std::vector<PointId> neigh;
      {
        std::lock_guard<std::mutex> guard(locks[v]);
        for (const auto& nb : rows[v]) neigh.push_back(nb.id);
      }
      std::size_t local_changed = 0;
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        for (std::size_t j = i + 1; j < neigh.size(); ++j) {
          if (push(neigh[i], neigh[j])) ++local_changed;
          if (push(neigh[j], neigh[i])) ++local_changed;
        }
      }
      if (local_changed != 0) changed += local_changed;
    }, 1);
    if (static_cast<double>(changed.load()) <
        params.termination_frac * static_cast<double>(n) *
            static_cast<double>(params.k)) {
      break;
    }
  }

  const PruneParams prune{params.k, params.alpha};
  parlay::parallel_for(0, n, [&](std::size_t v) {
    auto pruned = robust_prune<Metric>(static_cast<PointId>(v), rows[v],
                                       points, prune);
    index.graph.set_neighbors(static_cast<PointId>(v), pruned);
  }, 1);
  return index;
}

}  // namespace ann
