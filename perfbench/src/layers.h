// Per-layer probes for the traced run. Each probe calls one layer's public
// functions from here, on the workload's own data and graph, wraps the calls
// in spans, and derives its figures from those spans. Nothing inside the
// library is instrumented.
//
// Layers (named after the src/ modules):
//   diskann      algorithms/diskann.h + common.h: the build, replayed round
//                by round so each round's insert work (search + prune of the
//                batch on a copy of the pre-round graph) separates from the
//                rest of the round (reverse-edge merge and re-prune)
//   beam_search  core/beam_search.h on that graph, one thread
//   distance     core/distance.h kernels, in cache and replayed over the
//                neighbour-id stream of the recorded traversals
//   visited_set  core/visited_set.h probes replayed over the same stream
//   any_index    api/any_index.h dispatch on top of the traversal
//   filter/quant filter/ and quant/ search paths
//   prune        core/prune.h on candidate pools recorded from searches
//   serve        serve/search_service.h under open-loop load
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/scheduler.h"

#include "algorithms/common.h"
#include "algorithms/diskann.h"
#include "api/ann.h"
#include "core/beam_search.h"
#include "core/prune.h"
#include "core/visited_set.h"
#include "filter/filter_spec.h"
#include "serve/search_service.h"

#include "bench.h"
#include "data.h"
#include "serve_rung.h"
#include "trace.h"

namespace perfbench {

// The serving rates at which per-layer serving figures are taken.
inline constexpr double kServeProbeRates[] = {5000.0, 40000.0};

// Every per-layer figure, in the order they are reported. A traced run of any
// workload fills all of them from its own data.
struct LayerFigures {
  double distance_cache_mevals_s = 0, distance_stream_mevals_s = 0;
  double visited_probe_ns = 0, visited_repeat_eval_frac = 0;
  double beam_us = 0, beam_us_low = 0, beam_evals = 0, beam_expansions = 0,
         beam_bookkeeping_us = 0;
  double dispatch_us = 0, batch_scaling = 0;
  double filter_us = 0, filter_evals = 0;
  double quant_us = 0, quant_attach_s = 0;
  double prune_us = 0, prune_candidates = 0, prune_kept = 0, prune_evals = 0;
  double diskann_insert_s = 0, diskann_merge_s = 0, diskann_rounds = 0,
         diskann_medoid_s = 0, diskann_evals_per_point = 0;
  struct Serve {
    double submit_us = 0, occupancy = 0, dispatches_per_batch = 0,
           exec_ms = 0, queue_wait_ms = 0, generator_lag_ms = 0;
  } serve[2];
  double overhead_frac = 0;

  void emit(Result& res) const {
    res.metric("distance.cache_mevals_s", distance_cache_mevals_s, "Mevals/s");
    res.metric("distance.stream_mevals_s", distance_stream_mevals_s,
               "Mevals/s");
    res.metric("visited_set.probe_ns", visited_probe_ns, "ns");
    res.metric("visited_set.repeat_eval_frac", visited_repeat_eval_frac,
               "ratio");
    res.metric("beam_search.us_per_query", beam_us, "us");
    res.metric("beam_search.us_per_query_L16", beam_us_low, "us");
    res.metric("beam_search.evals_per_query", beam_evals, "count");
    res.metric("beam_search.expansions_per_query", beam_expansions, "count");
    res.metric("beam_search.bookkeeping_us_per_query", beam_bookkeeping_us,
               "us");
    res.metric("any_index.dispatch_us_per_query", dispatch_us, "us");
    res.metric("any_index.batch_scaling", batch_scaling, "ratio");
    res.metric("filter.us_per_query", filter_us, "us");
    res.metric("filter.evals_per_query", filter_evals, "count");
    res.metric("quant.us_per_query", quant_us, "us");
    res.metric("quant.attach_s", quant_attach_s, "s");
    res.metric("prune.us_per_call", prune_us, "us");
    res.metric("prune.candidates_per_call", prune_candidates, "count");
    res.metric("prune.kept_per_call", prune_kept, "count");
    res.metric("prune.evals_per_call", prune_evals, "count");
    res.metric("diskann.insert_s", diskann_insert_s, "s");
    res.metric("diskann.merge_s", diskann_merge_s, "s");
    res.metric("diskann.rounds", diskann_rounds, "count");
    res.metric("diskann.medoid_s", diskann_medoid_s, "s");
    res.metric("diskann.evals_per_point", diskann_evals_per_point, "count");
    const char* tags[2] = {"5k", "40k"};
    for (int i = 0; i < 2; ++i) {
      const std::string t = tags[i];
      res.metric("serve.submit_us_" + t, serve[i].submit_us, "us");
      res.metric("serve.batch_occupancy_" + t, serve[i].occupancy, "count");
      res.metric("serve.dispatches_per_batch_" + t,
                 serve[i].dispatches_per_batch, "count");
      res.metric("serve.exec_ms_per_batch_" + t, serve[i].exec_ms, "ms");
      res.metric("serve.queue_wait_ms_" + t, serve[i].queue_wait_ms, "ms");
      res.metric("serve.generator_lag_ms_" + t, serve[i].generator_lag_ms,
                 "ms");
    }
    res.metric("trace.overhead_frac", overhead_frac, "ratio");
  }
};

// --- diskann ---------------------------------------------------------------

// Rebuild the index exactly as ann::build_diskann does, timing each
// prefix-doubling round, and before each round replaying the round's insert
// work (search + prune of every batch member) on a copy of the pre-round
// graph. Returns the built graph, identical to the library's.
template <typename M, typename T>
ann::GraphIndex<M, T> probe_diskann(const ann::PointSet<T>& points,
                                    const ann::DiskANNParams& params,
                                    LayerFigures& fig) {
  Tracer& tr = Tracer::get();
  const std::size_t n = points.size();
  ann::GraphIndex<M, T> index;
  index.graph = ann::Graph(n, 2 * params.degree_bound);
  {
    Span s("diskann.medoid");
    index.start = ann::find_medoid<M>(points);
  }
  std::vector<ann::PointId> order =
      ann::deterministic_permutation(n, params.seed);
  std::erase(order, index.start);
  const auto schedule = params.prefix_doubling
                            ? ann::BatchSchedule::prefix_doubling(
                                  order.size(), params.batch_cap_fraction)
                            : ann::BatchSchedule::sequential(order.size());
  const ann::PruneParams prune{params.degree_bound, params.alpha};
  const ann::SearchParams search{.beam_width = params.beam_width, .k = 1};
  const std::vector<ann::PointId> starts{index.start};
  ann::internal::ReverseEdgeScratch rev;
  for (std::size_t r = 0; r < schedule.ranges.size(); ++r) {
    const auto [lo, hi] = schedule.ranges[r];
    const auto batch =
        std::span<const ann::PointId>(order).subspan(lo, hi - lo);
    {
      ann::Graph copy = index.graph;
      Span s("diskann.insert_replay", static_cast<std::int64_t>(r));
      parlay::parallel_for(0, batch.size(), [&](std::size_t i) {
        const ann::PointId p = batch[i];
        auto found =
            ann::beam_search<M>(points[p], points, copy, starts, search);
        auto kept = ann::robust_prune_into<M>(p, found.visited, points, prune,
                                              ann::local_build_scratch());
        copy.set_neighbors(p, kept);
      }, 1);
    }
    Span s("diskann.round", static_cast<std::int64_t>(r));
    ann::internal::diskann_batch_insert<M>(index.graph, points, batch,
                                           index.start, params, rev);
  }
  index.graph.compact(params.degree_bound);

  // The same build with counted kernels: its evaluations per point.
  reset_distance_evals();
  (void)ann::build_diskann<Counted<M>>(points, params);
  fig.diskann_evals_per_point =
      static_cast<double>(distance_evals()) / static_cast<double>(n);
  fig.diskann_rounds = static_cast<double>(schedule.ranges.size());
  fig.diskann_medoid_s = tr.agg("diskann.medoid").total_s();
  fig.diskann_insert_s = tr.agg("diskann.insert_replay").total_s();
  fig.diskann_merge_s =
      tr.agg("diskann.round").total_s() - fig.diskann_insert_s;
  return index;
}

// --- search layers ---------------------------------------------------------

// One-thread searches over the first `nq` queries on the graph `g` (the
// index's own graph, rebuilt by probe_diskann), at the workload's beam L and
// at L = 16. Checks that the graph answers exactly as the index does. Each
// pass runs over every query before the next pass starts, so no call finds
// the rows its query's previous call just loaded.
template <typename M, typename T>
void probe_search(const ann::AnyIndex& index, const ann::GraphIndex<M, T>& g,
                  const ann::PointSet<T>& points,
                  const ann::PointSet<T>& queries, std::size_t nq,
                  std::uint32_t L, LayerFigures& fig, Result& res) {
  Tracer& tr = Tracer::get();
  const std::size_t d = points.dims();
  const std::vector<ann::PointId> starts{g.start};
  const ann::QueryParams qp{.beam_width = L, .k = 10};
  const ann::QueryParams qp_low{.beam_width = 16, .k = 10};
  auto query = [&](std::size_t i) {
    return queries[static_cast<ann::PointId>(i)];
  };

  // The index and the bare traversal alternate (index, beam, beam, index)
  // so that neither pass always runs on the caches the other left.
  std::vector<std::vector<ann::Neighbor>> via_index(nq);
  std::size_t differ = 0;
  auto index_pass = [&] {
    for (std::size_t i = 0; i < nq; ++i) {
      Span s("any_index.search", static_cast<std::int64_t>(i));
      via_index[i] = index.search(query(i), qp);
    }
  };
  auto beam_pass = [&] {
    for (std::size_t i = 0; i < nq; ++i) {
      ann::SearchResult r;
      {
        Span s("beam_search", static_cast<std::int64_t>(i));
        r = ann::beam_search<M>(query(i), points, g.graph, starts, qp);
      }
      r.frontier.resize(std::min<std::size_t>(r.frontier.size(), 10));
      differ += r.frontier != via_index[i];
    }
  };
  index_pass();
  beam_pass();
  beam_pass();
  index_pass();
  res.check(differ == 0, "rebuilt graph answers differently from the index");
  for (std::size_t i = 0; i < nq; ++i) {
    Span s("beam_search.L16", static_cast<std::int64_t>(i));
    (void)ann::beam_search<M>(query(i), points, g.graph, starts, qp_low);
  }

  // Untimed recording pass: the evaluation stream and the probe stream.
  std::vector<std::vector<const T*>> evals(nq);
  std::vector<std::vector<ann::PointId>> probes(nq);
  std::size_t total_evals = 0, total_probes = 0, expansions = 0, repeats = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    auto& rows = Recorded<M>::rows();
    rows.clear();
    auto r =
        ann::beam_search<Recorded<M>>(query(i), points, g.graph, starts, qp);
    std::unordered_set<const void*> seen_rows;
    for (const void* row : rows) {
      evals[i].push_back(static_cast<const T*>(row));
      repeats += !seen_rows.insert(row).second;
    }
    probes[i].assign(starts.begin(), starts.end());
    for (const ann::Neighbor& v : r.visited) {
      auto nb = g.graph.neighbors(v.id);
      probes[i].insert(probes[i].end(), nb.begin(), nb.end());
    }
    total_evals += evals[i].size();
    total_probes += probes[i].size();
    expansions += r.visited.size();
  }

  double sink = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    Span s("distance.stream", static_cast<std::int64_t>(i));
    const T* q = query(i);
    const auto prep = M::prepare(q, d);
    float acc = 0;
    for (const T* row : evals[i]) acc += M::eval(prep, q, row, d);
    sink += acc;
  }
  ann::ApproxVisitedSet seen(L);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    Span s("visited_set.probe", static_cast<std::int64_t>(i));
    seen.reset(L);
    for (ann::PointId id : probes[i]) hits += seen.test_and_set(id);
  }
  // In cache: the same number of evaluations against 32 resident rows.
  {
    Span s("distance.cache");
    const std::size_t rows = std::min<std::size_t>(32, points.size());
    for (std::size_t done = 0, i = 0; done < total_evals; ++i) {
      const T* q = query(i % nq);
      const auto prep = M::prepare(q, d);
      float acc = 0;
      for (std::size_t j = 0; j < rows; ++j) {
        acc += M::eval(prep, q, points[static_cast<ann::PointId>(j)], d);
      }
      sink += acc;
      done += rows;
    }
  }
  keep(sink + static_cast<double>(hits));

  const double stream_s = tr.agg("distance.stream").total_s();
  const double probe_s = tr.agg("visited_set.probe").total_s();
  const double nqd = static_cast<double>(nq);
  fig.beam_us = tr.agg("beam_search").mean_us();
  fig.beam_us_low = tr.agg("beam_search.L16").mean_us();
  fig.beam_evals = static_cast<double>(total_evals) / nqd;
  fig.beam_expansions = static_cast<double>(expansions) / nqd;
  fig.beam_bookkeeping_us = fig.beam_us - (stream_s + probe_s) / nqd * 1e6;
  fig.distance_stream_mevals_s =
      static_cast<double>(total_evals) / stream_s / 1e6;
  fig.distance_cache_mevals_s = static_cast<double>(total_evals) /
                                tr.agg("distance.cache").total_s() / 1e6;
  fig.visited_probe_ns = probe_s * 1e9 / static_cast<double>(total_probes);
  fig.visited_repeat_eval_frac =
      static_cast<double>(repeats) / static_cast<double>(total_evals);
  fig.dispatch_us = tr.agg("any_index.search").mean_us() - fig.beam_us;
}

// All-worker batch_search QPS over the first nq queries against the
// one-thread AnyIndex::search rate measured by probe_search.
template <typename T>
void probe_batch_scaling(const ann::AnyIndex& index,
                         const ann::PointSet<T>& queries, std::uint32_t L,
                         LayerFigures& fig) {
  const ann::QueryParams qp{.beam_width = L, .k = 10};
  (void)index.batch_search(queries, qp);  // warm
  double secs = 0;
  {
    Span s("any_index.batch_search");
    secs = time_s([&] { (void)index.batch_search(queries, qp); });
  }
  const double all_qps = static_cast<double>(queries.size()) / secs;
  const double one_qps = 1e6 / Tracer::get().agg("any_index.search").mean_us();
  fig.batch_scaling = all_qps / one_qps;
}

// Filtered searches through the index (timed) and through the library's
// filtered traversal with counted kernels (evaluations).
template <typename M, typename T>
void probe_filter(const ann::AnyIndex& index, const ann::GraphIndex<M, T>& g,
                  const ann::PointSet<T>& points,
                  const ann::PointSet<T>& queries, std::size_t nq,
                  const ann::FilterSpec& spec, std::uint32_t L,
                  LayerFigures& fig) {
  const ann::QueryParams qp{.beam_width = L, .k = 10};
  for (std::size_t i = 0; i < nq; ++i) {
    Span s("filter.search", static_cast<std::int64_t>(i));
    (void)index.filtered_search(queries[static_cast<ann::PointId>(i)], spec,
                                qp);
  }
  const ann::BoundFilter bound(spec, &index.labels());
  ann::QueryParams counted = qp;
  counted.filter_beam_factor =
      ann::auto_filter_beam_factor(bound.estimated_selectivity(points.size()));
  const std::vector<ann::PointId> starts{g.start};
  reset_distance_evals();
  for (std::size_t i = 0; i < nq; ++i) {
    (void)ann::filtered_beam_search<Counted<M>>(
        queries[static_cast<ann::PointId>(i)], points, g.graph, starts, counted,
        [&](ann::PointId id) { return bound.matches(id); });
  }
  fig.filter_us = Tracer::get().agg("filter.search").mean_us();
  fig.filter_evals =
      static_cast<double>(distance_evals()) / static_cast<double>(nq);
}

template <typename T>
void probe_quant(const ann::AnyIndex& index, const ann::PointSet<T>& queries,
                 std::size_t nq, std::uint32_t L, LayerFigures& fig) {
  const ann::QueryParams qp{.beam_width = L, .k = 10, .rerank_count = 50};
  for (std::size_t i = 0; i < nq; ++i) {
    Span s("quant.search", static_cast<std::int64_t>(i));
    (void)index.quantized_search(queries[static_cast<ann::PointId>(i)], qp);
  }
  fig.quant_us = Tracer::get().agg("quant.search").mean_us();
  fig.quant_attach_s = Tracer::get().agg("quant.attach").total_s();
}

// robust_prune_into on the candidate pools that build-style searches (the
// build beam, k = 1) of `calls` base points produce on the finished graph.
template <typename M, typename T>
void probe_prune(const ann::GraphIndex<M, T>& g, const ann::PointSet<T>& points,
                 const ann::DiskANNParams& params, std::size_t calls,
                 LayerFigures& fig) {
  const std::vector<ann::PointId> starts{g.start};
  const ann::SearchParams search{.beam_width = params.beam_width, .k = 1};
  const ann::PruneParams prune{params.degree_bound, params.alpha};
  const std::size_t step = std::max<std::size_t>(1, points.size() / calls);
  std::vector<std::pair<ann::PointId, std::vector<ann::Neighbor>>> pools;
  for (std::size_t p = 0; p < points.size() && pools.size() < calls;
       p += step) {
    const auto id = static_cast<ann::PointId>(p);
    pools.push_back(
        {id, ann::beam_search<M>(points[id], points, g.graph, starts, search)
                 .visited});
  }
  std::size_t candidates = 0, kept = 0;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    Span s("prune", static_cast<std::int64_t>(i));
    kept += ann::robust_prune_into<M>(pools[i].first, pools[i].second, points,
                                      prune, ann::local_build_scratch())
                .size();
    candidates += pools[i].second.size();
  }
  reset_distance_evals();
  for (const auto& [id, pool] : pools) {
    (void)ann::robust_prune_into<Counted<M>>(id, pool, points, prune,
                                             ann::local_build_scratch());
  }
  const double calls_d = static_cast<double>(pools.size());
  fig.prune_us = Tracer::get().agg("prune").mean_us();
  fig.prune_candidates = static_cast<double>(candidates) / calls_d;
  fig.prune_kept = static_cast<double>(kept) / calls_d;
  fig.prune_evals = static_cast<double>(distance_evals()) / calls_d;
}

// --- serve -----------------------------------------------------------------

// Direct batch_search time of batches of 1..64 queries (the sizes the
// micro-batcher flushes), median of repeats, on the current worker count.
// Call before the index is handed to a service.
template <typename T>
std::vector<double> exec_ms_by_batch(const ann::AnyIndex& index,
                                     const ann::PointSet<T>& queries,
                                     const ann::QueryParams& qp) {
  std::vector<double> ms(65, 0.0);
  for (std::size_t b = 1; b <= 64; b *= 2) {
    const ann::PointSet<T> batch = head(queries, b);
    std::vector<double> t;
    for (int rep = 0; rep < 40; ++rep) {
      Span s(span_name("serve.exec_batch_" + std::to_string(b)));
      t.push_back(time_s([&] { (void)index.batch_search(batch, qp); }) * 1e3);
    }
    ms[b] = median(t);
  }
  // Linear in between the measured powers of two.
  for (std::size_t b = 2; b <= 64; ++b) {
    if (ms[b] != 0.0) continue;
    std::size_t lo = 1;
    while (lo * 2 < b) lo *= 2;
    const std::size_t hi = lo * 2;
    const double f = static_cast<double>(b - lo) / static_cast<double>(hi - lo);
    ms[b] = ms[lo] + (ms[hi] - ms[lo]) * f;
  }
  return ms;
}

// Serving figures of one rung, from its spans and the service's counters.
inline void serve_figures(const RungResult& r, const std::string& tag,
                          const std::vector<double>& exec_ms,
                          LayerFigures::Serve& out) {
  Tracer& tr = Tracer::get();
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(r.batches, 1));
  out.submit_us = tr.agg("serve.submit." + tag).mean_us();
  out.occupancy = static_cast<double>(r.completed) / batches;
  out.dispatches_per_batch = static_cast<double>(r.dispatches) / batches;
  const auto b = static_cast<std::size_t>(
      std::clamp(std::lround(out.occupancy), 1L, 64L));
  out.exec_ms = exec_ms[b];
  out.queue_wait_ms = tr.agg("serve.request." + tag).mean_ms() - out.exec_ms;
  out.generator_lag_ms = quantile(r.lag_ms, 0.99);
}

// Worker count while serving: the generator and the dispatcher take the
// remaining core.
inline unsigned serve_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, hw - 1);
}

// Serve `index` (moved in) at the probe rates with serve_workers() workers:
// each rate runs once without spans and once with them. Fills the serving
// figures from the traced rungs and returns the tracing overhead at the
// lower rate, where the service keeps up (traced over untraced mean
// latency, minus one). Restores the worker count.
template <typename T>
double probe_serve(ann::AnyIndex index, const Traffic<T>& traffic,
                   double seconds_per_rung, LayerFigures& fig, Result& res) {
  Tracer& tr = Tracer::get();
  const unsigned workers = parlay::num_workers();
  parlay::set_num_workers(serve_workers());
  const auto exec_ms = exec_ms_by_batch(index, traffic.queries, traffic.params);
  double overhead = 0;
  {
    auto svc = ann::serve<T>(
        std::move(index), {.queue_capacity = 1 << 16,
                           .backpressure = ann::BackpressurePolicy::kReject});
    (void)run_rung(*svc, traffic, 0, 5000, 0.3, 1 << 14, "warm");
    for (int i = 0; i < 2; ++i) {
      const std::string tag = i == 0 ? "5k" : "40k";
      tr.set_enabled(false);
      RungResult plain = run_rung(*svc, traffic, 0, kServeProbeRates[i],
                                  seconds_per_rung, 1 << 14, tag);
      tr.set_enabled(true);
      RungResult traced = run_rung(*svc, traffic, 0, kServeProbeRates[i],
                                   seconds_per_rung, 1 << 14, tag);
      for (const RungResult* r : {&plain, &traced}) {
        res.check(r->mismatched == 0 && r->drained,
                  "serve probe: a served result differs or never completed");
        res.count_ops(r->sent, r->failed);
      }
      serve_figures(traced, tag, exec_ms, fig.serve[i]);
      if (i == 0) {
        overhead = mean(traced.latency_ms) / mean(plain.latency_ms) - 1.0;
      }
    }
    svc->shutdown();
  }
  parlay::set_num_workers(workers);
  return overhead;
}

}  // namespace perfbench
