// Greedy beam search (Algorithm 1 of the paper) with the two search
// optimizations of §4.5:
//   * an approximate, one-sided-error "seen" hash table sized beam^2,
//   * (1+eps) candidate pruning (Iwasaki & Miyazaki): candidates farther
//     than (1+eps) times the current k-th nearest distance are not queued.
//
// Every search in the library is ONE walk, internal::beam_walk, with two
// compile-time parameters:
//   * a distance oracle: eval(id) is the query's distance to point id and
//     prefetch(id) starts loading that point's row. ExactOracle (below)
//     wraps Metric::prepare(query) over the full-precision rows;
//     QuantizedQuery (quant/quantized_store.h) evaluates compressed codes.
//   * an admission policy: AdmitAll makes the beam itself the result
//     frontier; AdmitMatched keeps a separate predicate-gated result list
//     (filtered search), offered every evaluated point BEFORE the beam's
//     worst/epsilon cuts.
// The traversal width Lt is passed in: beam_width everywhere except the
// filtered wrapper, which widens it by filter_beam_factor.
//
// The search is deterministic: the beam is kept sorted by (distance, id), so
// ties never depend on traversal order, and all inputs (graph, starts) are
// deterministic upstream.
//
// Hot-path structure:
//   * Evaluations are counted locally and reported in one
//     DistanceCounter::bump(n) per search.
//   * Scratch state (the seen table, the beam, processed flags, the
//     neighbor gather buffer, the matched list) lives in a per-thread
//     SearchScratch pool, so a steady-state query allocates nothing but its
//     own result vectors. The pooled ApproxVisitedSet is epoch-cleared:
//     resetting it between queries is O(1), not a table memset.
//   * Neighbor expansion is two-phase: gather the unseen neighbor ids
//     (prefetching their rows through the oracle), then evaluate distances
//     — by the time the kernel runs, the rows are on their way into cache.
//   * A node is processed at most once, BY CONSTRUCTION: an exact
//     processed-id set guards the expansion, so result.visited (the prune
//     candidate pool during construction) never holds duplicates even when
//     the approximate seen-table drops ids on collisions.
//
// The same walk serves queries and index construction (the insert path of
// the incremental algorithms uses the visited list as the prune candidate
// pool), exactly as in ParlayANN where DiskANN/HCNNG/PyNNDescent share one
// search implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "distance.h"
#include "graph.h"
#include "points.h"
#include "visited_set.h"

namespace ann {

struct Neighbor {
  PointId id = kInvalidPoint;
  float dist = std::numeric_limits<float>::infinity();

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;  // total order: deterministic tie-breaking
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.dist == b.dist;
  }
};

struct SearchParams {
  std::uint32_t beam_width = 10;  // L: max candidates retained
  std::uint32_t k = 10;           // neighbors requested
  float epsilon = 0.0f;           // (1+eps) pruning; paper uses eps <= 0.25
  std::size_t visit_limit = std::numeric_limits<std::size_t>::max();
  // Filtered search only: traversal-beam widening multiplier. The traversal
  // beam runs at ceil(beam_width * filter_beam_factor) while the result list
  // stays at beam_width, so low-selectivity filters keep enough admissible
  // candidates in flight. <= 0 means AUTO: AnyIndex resolves it from the
  // filter's estimated selectivity (ann::auto_filter_beam_factor) before
  // dispatch. Ignored by unfiltered search.
  float filter_beam_factor = 0.0f;
  // Quantized search only: number of top compressed-domain candidates to
  // re-score from full-precision rows after the traversal (the DiskANN
  // rerank knob). 0 disables rerank — results carry ADC distances.
  // Clamped up to k and down to the frontier size at the rerank site.
  // Ignored by full-precision search.
  std::uint32_t rerank_count = 0;
};

struct SearchResult {
  // Best candidates seen, sorted ascending by (dist, id); size <= beam_width.
  std::vector<Neighbor> frontier;
  // Processed ("visited") points in processing order, duplicate-free. This
  // is the candidate pool V handed to prune() during index construction.
  std::vector<Neighbor> visited;

  std::vector<PointId> top_k_ids(std::size_t k) const {
    std::vector<PointId> ids;
    ids.reserve(std::min(k, frontier.size()));
    for (std::size_t i = 0; i < frontier.size() && i < k; ++i) {
      ids.push_back(frontier[i].id);
    }
    return ids;
  }
};

// Reusable per-thread search state. Everything a beam search (or the flood
// phase of a range search) needs beyond its result vectors; pooled via
// local_search_scratch() so steady-state queries do zero scratch
// allocations. AnyIndex::batch_search's parallel fan-out picks up one
// scratch per worker thread automatically.
struct SearchScratch {
  ApproxVisitedSet seen{0};
  ExactIdSet processed_ids{0};
  std::vector<Neighbor> beam;
  std::vector<unsigned char> processed;  // parallel to beam
  std::vector<PointId> gather;           // unseen neighbors of one node
  std::vector<Neighbor> flood;           // range-search flood queue
  std::vector<Neighbor> matched;         // filtered-search result list
  // Quantized-search buffers (src/quant/): the per-query ADC lookup table,
  // a float image of the query for table filling, and the int8-quantized
  // query. Sized once per (store, params) shape and reused — steady-state
  // quantized queries allocate nothing, same contract as the rest of the
  // scratch.
  std::vector<float> adc_table;
  std::vector<float> quant_query_f;
  std::vector<std::int8_t> quant_query_i8;
};

inline SearchScratch& local_search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

// Prefetch the first cache lines of a coordinate row. Shared with the
// construction hot path (core/prune.h gathers candidate rows the same way
// the beam loop gathers neighbor rows). Forced inline: GCC deduces that a
// function whose only effect is a prefetch is pure and deletes calls to it,
// so behind a call (e.g. an oracle's prefetch) the rows went unprefetched.
template <typename T>
[[gnu::always_inline]] inline void beam_prefetch_point(const T* row,
                                                       std::size_t d) {
  const char* p = reinterpret_cast<const char*>(row);
  __builtin_prefetch(p, 0, 3);
  if (d * sizeof(T) > 64) __builtin_prefetch(p + 64, 0, 3);
}

// Distance oracle over full-precision rows: the query prepared once
// (Metric::prepare — e.g. Cosine hoists the query norm) and evaluated with
// the raw, uncounted kernels.
template <typename Metric, typename T>
struct ExactOracle {
  ExactOracle(const T* q, const PointSet<T>& pts)
      : query(q),
        points(&pts),
        dims(pts.dims()),
        prep(Metric::prepare(q, pts.dims())) {}

  float eval(PointId id) const {
    return Metric::eval(prep, query, (*points)[id], dims);
  }
  // Forced inline for the reason given at beam_prefetch_point.
  [[gnu::always_inline]] void prefetch(PointId id) const {
    beam_prefetch_point((*points)[id], dims);
  }

  const T* query;
  const PointSet<T>* points;
  std::size_t dims;
  decltype(Metric::prepare(std::declval<const T*>(), std::size_t{})) prep;
};

namespace internal {

inline constexpr std::size_t kNotInserted = static_cast<std::size_t>(-1);

// Insert nb into `list`, kept sorted by (dist, id) and capped at `cap`
// entries. Returns the insert position, or kNotInserted if nb is already
// present or does not beat a full list's worst entry. The position is taken
// BEFORE the eviction, as pop_back() invalidates iterators into the list.
inline std::size_t sorted_insert(std::vector<Neighbor>& list, std::size_t cap,
                                 Neighbor nb) {
  auto it = std::lower_bound(list.begin(), list.end(), nb);
  if (it != list.end() && *it == nb) return kNotInserted;
  const auto pos = static_cast<std::size_t>(it - list.begin());
  if (list.size() >= cap) {
    if (!(nb < list.back())) return kNotInserted;
    list.pop_back();
  }
  list.insert(list.begin() + static_cast<std::ptrdiff_t>(pos), nb);
  return pos;
}

// Admission policy "none": the beam is the result frontier.
struct AdmitAll {
  void offer(PointId, float) const {}
  const std::vector<Neighbor>& frontier(
      const std::vector<Neighbor>& beam) const {
    return beam;
  }
};

// Admission policy "matched list": the predicate gates ADMISSION, not
// traversal. Every evaluated point still competes for the beam
// (filtered-out points conduct the walk toward the filtered region —
// dropping them would disconnect the graph under selective filters), but
// only predicate-passing points enter `matched`, the result frontier
// (sorted, at most `cap` entries). Offered before the beam's cuts, so a
// matching point too far to steer the walk can still be a result. The
// predicate runs only for points that could still place — a deterministic
// gate, since it depends only on distances and the (dist, id) order.
template <typename Pred>
struct AdmitMatched {
  const Pred& pred;
  std::vector<Neighbor>& matched;
  std::size_t cap;

  void offer(PointId id, float dist) const {
    const Neighbor nb{id, dist};
    if (matched.size() >= cap && !(nb < matched.back())) return;
    if (!pred(id)) return;
    sorted_insert(matched, cap, nb);
  }
  const std::vector<Neighbor>& frontier(const std::vector<Neighbor>&) const {
    return matched;
  }
};

// The VisitedSet dispatch every search entry point shares: fn(seen) runs
// with the pooled, epoch-cleared ApproxVisitedSet reset to `width`, or with
// a fresh table of any other kind (ExactVisitedSet, the reference).
template <typename VisitedSet, typename Fn>
auto with_seen_table(SearchScratch& scratch, std::size_t width, Fn&& fn) {
  if constexpr (std::is_same_v<VisitedSet, ApproxVisitedSet>) {
    scratch.seen.reset(width);
    return fn(scratch.seen);
  } else {
    VisitedSet seen(width);
    return fn(seen);
  }
}

// The beam walk. Lt is the traversal beam's width; params.k sets the
// (1+eps) pruning radius and params.visit_limit caps the expansions.
// result.visited lists the processed points in processing order; the
// result frontier comes from the admission policy.
template <typename Oracle, typename Admission, typename VisitedSet>
SearchResult beam_walk(const Oracle& oracle, const Graph& g,
                       std::span<const PointId> starts,
                       const SearchParams& params, std::size_t Lt,
                       const Admission& admit, VisitedSet& seen,
                       SearchScratch& scratch) {
  const std::size_t k = std::max<std::size_t>(params.k, 1);
  const float cut = 1.0f + params.epsilon;

  std::vector<Neighbor>& beam = scratch.beam;
  std::vector<unsigned char>& processed = scratch.processed;  // parallel
  beam.clear();
  beam.reserve(Lt + 1);
  processed.clear();
  processed.reserve(Lt + 1);
  scratch.processed_ids.reset(
      std::min<std::size_t>(params.visit_limit, 4 * Lt));

  SearchResult result;
  result.visited.reserve(std::min(params.visit_limit, 4 * Lt));
  std::uint64_t evals = 0;

  auto insert_candidate = [&](PointId id, float dist) {
    const std::size_t before = beam.size();
    const std::size_t pos = sorted_insert(beam, Lt, {id, dist});
    if (pos == kNotInserted) return;
    if (beam.size() == before) processed.pop_back();  // evicted the worst
    processed.insert(processed.begin() + static_cast<std::ptrdiff_t>(pos), 0);
  };

  for (PointId s : starts) {
    if (seen.test_and_set(s)) continue;
    ++evals;
    const float d = oracle.eval(s);
    admit.offer(s, d);
    insert_candidate(s, d);
  }

  while (result.visited.size() < params.visit_limit) {
    // Closest unprocessed beam entry.
    std::size_t pi = 0;
    while (pi < beam.size() && processed[pi]) ++pi;
    if (pi == beam.size()) break;

    processed[pi] = 1;
    const Neighbor current = beam[pi];
    // Re-processing guard: the seen-table may drop an id on a collision, so
    // it alone cannot keep an already-expanded node from re-entering the
    // beam; this exact set can. The duplicate-free visited contract is
    // enforced HERE, not assumed from beam policy —
    // tests/test_query_hot_path.cpp asserts it under collision-heavy tables.
    if (!scratch.processed_ids.insert(current.id)) continue;
    result.visited.push_back(current);

    // (1+eps) pruning radius: current k-th nearest seen (or worst if < k).
    const float dk = beam.size() >= k ? beam[k - 1].dist : beam.back().dist;
    const float radius = dk < 0 ? dk / cut : dk * cut;  // negative: MIPS
    float worst = beam.size() >= Lt ? beam.back().dist
                                    : std::numeric_limits<float>::infinity();

    // Phase 1: gather unseen neighbors, prefetching their rows.
    scratch.gather.clear();
    for (PointId nb_id : g.neighbors(current.id)) {
      if (seen.test_and_set(nb_id)) continue;
      scratch.gather.push_back(nb_id);
      oracle.prefetch(nb_id);
    }
    evals += scratch.gather.size();

    // Phase 2: evaluate, offer for admission, and queue.
    for (PointId nb_id : scratch.gather) {
      const float d = oracle.eval(nb_id);
      admit.offer(nb_id, d);
      if (d > worst) continue;
      if (params.epsilon > 0.0f && d > radius) continue;
      insert_candidate(nb_id, d);
      worst = beam.size() >= Lt ? beam.back().dist
                                : std::numeric_limits<float>::infinity();
    }
  }

  DistanceCounter::bump(evals);
  const std::vector<Neighbor>& frontier = admit.frontier(beam);
  result.frontier.assign(frontier.begin(), frontier.end());
  return result;
}

// Unfiltered walk of width beam_width (exact and quantized search).
template <typename VisitedSet, typename Oracle>
SearchResult unfiltered_walk(const Oracle& oracle, const Graph& g,
                             std::span<const PointId> starts,
                             const SearchParams& params,
                             SearchScratch& scratch) {
  const std::size_t L = std::max<std::size_t>(params.beam_width, 1);
  return with_seen_table<VisitedSet>(scratch, L, [&](auto& seen) {
    return beam_walk(oracle, g, starts, params, L, AdmitAll{}, seen, scratch);
  });
}

}  // namespace internal

// Quantized beam search over a bound QuantView, the walk's oracle over
// codes (store.bind(query, scratch) in src/quant/quantized_store.h; bind()
// counts the table construction). Rerank is layered on top by the caller
// (ann::exact_rerank) — this routine never reads coordinates, which is what
// lets the full-precision rows live out of RAM.
template <typename QuantView, typename VisitedSet = ApproxVisitedSet>
SearchResult quantized_beam_search(const QuantView& qv, const Graph& g,
                                   std::span<const PointId> starts,
                                   const SearchParams& params,
                                   SearchScratch& scratch) {
  return internal::unfiltered_walk<VisitedSet>(qv, g, starts, params,
                                               scratch);
}

// Filter-aware beam search: like beam_search, but only points for which
// pred(id) is true enter the result frontier (at most max(beam_width, k)
// entries); filtered-out points still conduct the traversal, whose beam
// params.filter_beam_factor widens (see SearchParams; <= 1 means no
// widening here — AnyIndex resolves AUTO before calling down).
template <typename Metric, typename T, typename Pred,
          typename VisitedSet = ApproxVisitedSet>
SearchResult filtered_beam_search(const T* query, const PointSet<T>& points,
                                  const Graph& g,
                                  std::span<const PointId> starts,
                                  const SearchParams& params, const Pred& pred,
                                  SearchScratch& scratch) {
  const std::size_t L = std::max<std::size_t>(params.beam_width, 1);
  const float factor = std::max(params.filter_beam_factor, 1.0f);
  const std::size_t Lt = std::max<std::size_t>(
      L, static_cast<std::size_t>(std::ceil(static_cast<double>(L) * factor)));
  const std::size_t cap = std::max<std::size_t>(L, params.k);
  scratch.matched.clear();
  scratch.matched.reserve(cap + 1);
  const internal::AdmitMatched<Pred> admit{pred, scratch.matched, cap};
  const ExactOracle<Metric, T> oracle(query, points);
  return internal::with_seen_table<VisitedSet>(scratch, Lt, [&](auto& seen) {
    return internal::beam_walk(oracle, g, starts, params, Lt, admit, seen,
                               scratch);
  });
}

// Convenience overload on the per-thread scratch pool.
template <typename Metric, typename T, typename Pred,
          typename VisitedSet = ApproxVisitedSet>
SearchResult filtered_beam_search(const T* query, const PointSet<T>& points,
                                  const Graph& g,
                                  std::span<const PointId> starts,
                                  const SearchParams& params,
                                  const Pred& pred) {
  return filtered_beam_search<Metric, T, Pred, VisitedSet>(
      query, points, g, starts, params, pred, local_search_scratch());
}

// Beam search for `query` over graph g from the given start points, using
// the caller's scratch. VisitedSet is ApproxVisitedSet (default, the
// paper's optimization — drawn from the scratch pool) or ExactVisitedSet
// (reference; used by the ablation bench and property tests).
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
SearchResult beam_search(const T* query, const PointSet<T>& points,
                         const Graph& g, std::span<const PointId> starts,
                         const SearchParams& params, SearchScratch& scratch) {
  return internal::unfiltered_walk<VisitedSet>(
      ExactOracle<Metric, T>(query, points), g, starts, params, scratch);
}

// Convenience overload on the per-thread scratch pool.
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
SearchResult beam_search(const T* query, const PointSet<T>& points,
                         const Graph& g, std::span<const PointId> starts,
                         const SearchParams& params) {
  return beam_search<Metric, T, VisitedSet>(query, points, g, starts, params,
                                            local_search_scratch());
}

// Convenience wrapper: ids of the k approximate nearest neighbors.
template <typename Metric, typename T, typename VisitedSet = ApproxVisitedSet>
std::vector<PointId> search_knn(const T* query, const PointSet<T>& points,
                                const Graph& g,
                                std::span<const PointId> starts,
                                const SearchParams& params) {
  auto res = beam_search<Metric, T, VisitedSet>(query, points, g, starts,
                                                params);
  return res.top_k_ids(params.k);
}

}  // namespace ann
