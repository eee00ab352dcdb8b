// Lock-based incremental graph build — the "original implementation" style
// the paper compares against in Fig. 1 (§1, §5.3).
//
// All points are inserted in ONE parallel loop over the live graph, with a
// per-vertex mutex taken for every neighbor-list read and write (the
// DiskANN/hnswlib concurrency discipline). Consequences the paper documents
// and our Fig. 1 bench reproduces:
//   * lock acquisition order makes the built graph NON-DETERMINISTIC when
//     run with >1 worker;
//   * contention on hub vertices (the medoid above all) throttles
//     scalability as workers increase.
//
// With one worker this is exactly sequential Vamana, which is why Fig. 1
// normalizes every curve to this implementation's one-thread time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "parlay/parallel.h"

#include "algorithms/common.h"
#include "algorithms/diskann.h"
#include "core/beam_search.h"
#include "core/graph.h"
#include "core/points.h"
#include "core/prune.h"

namespace ann {

// Thin lock table: one mutex per vertex.
class LockTable {
 public:
  explicit LockTable(std::size_t n) : locks_(std::make_unique<std::mutex[]>(n)) {}
  std::mutex& operator[](PointId v) { return locks_[v]; }

 private:
  std::unique_ptr<std::mutex[]> locks_;
};

namespace internal {

// Beam search over a live, concurrently mutated graph: neighbor lists are
// copied under the vertex lock before expansion. Distance work runs on the
// prepared raw kernels with one batched count per search (the lock
// discipline stays the baseline's — that is what it measures).
template <typename Metric, typename T>
SearchResult locked_beam_search(const T* query, const PointSet<T>& points,
                                const Graph& g, LockTable& locks,
                                PointId start, const SearchParams& params) {
  const std::size_t L = std::max<std::size_t>(params.beam_width, 1);
  const std::size_t dims = points.dims();
  const auto prep = Metric::prepare(query, dims);
  std::uint64_t evals = 0;
  ApproxVisitedSet seen(L);
  std::vector<Neighbor> beam;
  std::vector<unsigned char> processed;
  SearchResult result;

  auto insert_candidate = [&](PointId id, float dist) {
    Neighbor nb{id, dist};
    auto it = std::lower_bound(beam.begin(), beam.end(), nb);
    if (it != beam.end() && it->id == id) return;
    // Position before the eviction: pop_back() may invalidate `it`.
    const auto pos = static_cast<std::size_t>(it - beam.begin());
    if (beam.size() >= L) {
      if (!(nb < beam.back())) return;
      beam.pop_back();
      processed.pop_back();
    }
    beam.insert(beam.begin() + pos, nb);
    processed.insert(processed.begin() + pos, 0);
  };

  seen.test_and_set(start);
  ++evals;
  insert_candidate(start, Metric::eval(prep, query, points[start], dims));

  std::vector<PointId> neigh_copy;
  while (true) {
    std::size_t pi = 0;
    while (pi < beam.size() && processed[pi]) ++pi;
    if (pi == beam.size()) break;
    processed[pi] = 1;
    Neighbor current = beam[pi];
    result.visited.push_back(current);

    {
      std::lock_guard<std::mutex> guard(locks[current.id]);
      auto neigh = g.neighbors(current.id);
      neigh_copy.assign(neigh.begin(), neigh.end());
    }
    float worst = beam.size() >= L ? beam.back().dist
                                   : std::numeric_limits<float>::infinity();
    for (PointId nb_id : neigh_copy) {
      if (seen.test_and_set(nb_id)) continue;
      ++evals;
      float d = Metric::eval(prep, query, points[nb_id], dims);
      if (d > worst) continue;
      insert_candidate(nb_id, d);
      worst = beam.size() >= L ? beam.back().dist
                               : std::numeric_limits<float>::infinity();
    }
  }
  DistanceCounter::bump(evals);
  result.frontier = std::move(beam);
  return result;
}

}  // namespace internal

// Build a Vamana graph the lock-based way. Same parameters as
// build_diskann; `prefix_doubling`/`batch_cap_fraction` are ignored (there
// are no batches — that is the point).
template <typename Metric, typename T>
GraphIndex<Metric, T> build_locked_vamana(const PointSet<T>& points,
                                          const DiskANNParams& params) {
  const std::size_t n = points.size();
  GraphIndex<Metric, T> index;
  index.graph = Graph(n, 2 * params.degree_bound);
  if (n == 0) return index;
  index.start = find_medoid<Metric>(points);
  LockTable locks(n);
  Graph& g = index.graph;
  const PruneParams prune{params.degree_bound, params.alpha};

  std::vector<PointId> order =
      params.shuffle ? deterministic_permutation(n, params.seed)
                     : parlay::tabulate(n, [](std::size_t i) {
                         return static_cast<PointId>(i);
                       });
  std::erase(order, index.start);

  SearchParams search{.beam_width = params.beam_width, .k = 1};
  parlay::parallel_for(0, order.size(), [&](std::size_t i) {
    PointId p = order[i];
    auto res = internal::locked_beam_search<Metric>(points[p], points, g,
                                                    locks, index.start, search);
    auto neigh =
        robust_prune<Metric>(p, std::move(res.visited), points, prune);
    {
      std::lock_guard<std::mutex> guard(locks[p]);
      g.set_neighbors(p, neigh);
    }
    // Reverse edges, one lock per target (the contention source).
    for (PointId q : neigh) {
      std::lock_guard<std::mutex> guard(locks[q]);
      PointId pv[1] = {p};
      std::size_t appended = g.append_neighbors(q, pv);
      if (appended == 0 || g.degree(q) > params.degree_bound) {
        std::vector<PointId> cands(g.neighbors(q).begin(),
                                   g.neighbors(q).end());
        if (appended == 0) cands.push_back(p);
        auto pruned = robust_prune_ids<Metric>(q, cands, points, prune);
        g.set_neighbors(q, pruned);
      }
    }
  }, 1);
  return index;
}

}  // namespace ann
