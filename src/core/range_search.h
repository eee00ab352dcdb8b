// Range search on ANNS graphs — the paper's Open Question 4 ("How do
// graph-based and other existing ANNS algorithms adapt to various range
// search problems at billion or larger scale?"), and the query mode of the
// SSNPP dataset whose build parameters appear in the paper's appendix
// (Fig. 7: DiskANN R=150, L=400, alpha=1.2).
//
// Algorithm: a standard beam search locates the query's neighborhood; every
// in-range point found seeds a deterministic flood that expands through
// graph neighbors, admitting every point within the radius. The flood
// processes its queue in insertion order and dedupes through the same
// one-sided-error visited table as the beam search, so results are exact
// over the reachable subgraph and deterministic.
//
// Hot-path notes: both phases draw their scratch (visited tables, flood
// queue) from the per-thread SearchScratch pool, evaluate distances with
// the raw prepared-query kernels, and report evaluation counts in batched
// DistanceCounter::bump(n) calls.
#pragma once

#include <algorithm>
#include <vector>

#include "beam_search.h"
#include "distance.h"
#include "graph.h"
#include "points.h"
#include "visited_set.h"

namespace ann {

struct RangeSearchParams {
  float radius = 0.0f;             // admit points with distance <= radius
  std::uint32_t beam_width = 32;   // initial beam search width
  std::size_t flood_limit = 100000;  // safety cap on flood expansion
};

struct RangeResult {
  // In-range points sorted ascending by (dist, id).
  std::vector<Neighbor> matches;
  std::size_t flood_steps = 0;  // vertices expanded during the flood phase
};

namespace internal {

template <typename Metric, typename T, typename VisitedSet>
RangeResult range_search_impl(const T* query, const PointSet<T>& points,
                              const Graph& g,
                              const SearchResult& beam,
                              const RangeSearchParams& params,
                              VisitedSet& seen, SearchScratch& scratch) {
  const std::size_t dims = points.dims();
  const auto prep = Metric::prepare(query, dims);

  RangeResult result;
  std::vector<Neighbor>& queue = scratch.flood;
  queue.clear();

  auto admit = [&](Neighbor nb) {
    if (nb.dist <= params.radius) {
      result.matches.push_back(nb);
      queue.push_back(nb);  // in-range points expand further
    }
  };
  for (const auto& nb : beam.frontier) {
    if (!seen.test_and_set(nb.id)) admit(nb);
  }
  for (const auto& nb : beam.visited) {
    if (!seen.test_and_set(nb.id)) admit(nb);
  }

  // Phase 2: flood outward from every in-range point.
  std::uint64_t evals = 0;
  for (std::size_t qi = 0;
       qi < queue.size() && result.flood_steps < params.flood_limit; ++qi) {
    Neighbor current = queue[qi];
    ++result.flood_steps;
    scratch.gather.clear();
    for (PointId nb_id : g.neighbors(current.id)) {
      if (seen.test_and_set(nb_id)) continue;
      scratch.gather.push_back(nb_id);
      beam_prefetch_point(points[nb_id], dims);
    }
    evals += scratch.gather.size();
    for (PointId nb_id : scratch.gather) {
      admit({nb_id, Metric::eval(prep, query, points[nb_id], dims)});
    }
  }
  DistanceCounter::bump(evals);
  // Anti-pinning: a single huge-radius query must not strand its flood
  // queue's capacity in the pooled scratch forever.
  if (queue.capacity() > (std::size_t{1} << 16)) {
    queue.clear();
    queue.shrink_to_fit();
  }

  std::sort(result.matches.begin(), result.matches.end());
  result.matches.erase(
      std::unique(result.matches.begin(), result.matches.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.id == b.id;
                  }),
      result.matches.end());
  return result;
}

}  // namespace internal

template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
RangeResult range_search(const T* query, const PointSet<T>& points,
                         const Graph& g, std::span<const PointId> starts,
                         const RangeSearchParams& params) {
  SearchScratch& scratch = local_search_scratch();
  // Phase 1: navigate into the query's neighborhood.
  SearchParams sp{.beam_width = params.beam_width, .k = params.beam_width};
  auto beam =
      beam_search<Metric, T, VisitedSet>(query, points, g, starts, sp, scratch);

  // The beam phase is done with the pooled seen-table, so the flood phase
  // can reset and reuse it (the two phases intentionally do NOT share seen
  // state: frontier/visited entries re-seed the flood).
  const std::size_t flood_beam = std::max<std::size_t>(params.beam_width, 64);
  return internal::with_seen_table<VisitedSet>(
      scratch, flood_beam, [&](auto& seen) {
        return internal::range_search_impl<Metric>(query, points, g, beam,
                                                   params, seen, scratch);
      });
}

// Exact range ground truth by brute force (per query, deterministic order).
template <typename Metric, typename T>
std::vector<std::vector<Neighbor>> range_ground_truth(
    const PointSet<T>& base, const PointSet<T>& queries, float radius) {
  std::vector<std::vector<Neighbor>> gt(queries.size());
  parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
    std::vector<Neighbor> row;
    const T* qp = queries[static_cast<PointId>(q)];
    const auto prep = Metric::prepare(qp, base.dims());
    for (std::size_t i = 0; i < base.size(); ++i) {
      float d = Metric::eval(prep, qp, base[static_cast<PointId>(i)],
                             base.dims());
      if (d <= radius) row.push_back({static_cast<PointId>(i), d});
    }
    DistanceCounter::bump(base.size());
    std::sort(row.begin(), row.end());
    gt[q] = std::move(row);
  }, 1);
  return gt;
}

// Set recall of one range result against the exact in-range set.
inline double range_recall_of(const std::vector<Neighbor>& got,
                              const std::vector<Neighbor>& truth) {
  if (truth.empty()) return 1.0;
  std::size_t hits = 0;
  std::size_t gi = 0;
  for (const auto& t : truth) {
    while (gi < got.size() && got[gi] < t) ++gi;
    if (gi < got.size() && got[gi].id == t.id) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace ann
