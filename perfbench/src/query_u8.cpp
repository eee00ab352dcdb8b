// query-u8: closed-loop query throughput. One driver thread calls
// batch_search, filtered_batch_search and quantized_batch_search, each fanned
// out over every worker, on a BIGANN-like uint8 corpus (d = 128, n = 100k,
// about 26 MB of rows and graph: far beyond one core's L2). Build and serving
// do no work while it is timed, so the distance kernel, the visited set, beam
// bookkeeping and AnyIndex dispatch account for nearly all of it. L = 80
// against L = 16 separates bookkeeping-bound from kernel-bound traversal; the
// exact, filtered and PQ phases run the three beam loops.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "parlay/scheduler.h"

#include "api/ann.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/recall.h"

#include "bench.h"
#include "data.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

using T = std::uint8_t;
using M = ann::EuclideanSquared;

constexpr std::size_t kN = 100'000;
constexpr std::size_t kPool = 10'000;  // queries cycled through by the phases
constexpr std::size_t kTruth = 1'000;  // queries with ground truth
constexpr std::size_t kChunk = 2'000;  // queries per timed batch call
constexpr std::size_t kLatencySample = 1'000;  // p99 has 10 samples past it
constexpr ann::LabelId kFilterLabel = 0;

// Recall floors; a run below any of them fails.
constexpr double kFloorL80 = 0.99, kFloorL16 = 0.90, kFloorFiltered = 0.90,
                 kFloorQuantized = 0.90;

const ann::DiskANNParams kBuild{.degree_bound = 32, .beam_width = 64};
const ann::QueryParams kL80{.beam_width = 80, .k = 10};
const ann::QueryParams kL16{.beam_width = 16, .k = 10};
const ann::QueryParams kPQ{.beam_width = 80, .k = 10, .rerank_count = 50};

struct Setup {
  ann::Dataset<T> data;
  ann::GroundTruth truth, filtered_truth;
  ann::AnyIndex index;
  double build_s = 0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  {
    Span span("setup.data");
    s->data = ann::make_bigann_like(kN, kPool, seed);
  }
  const ann::PointSet<T> truth_queries = head(s->data.queries, kTruth);
  ann::LabelStore labels = make_labels(kN, seed);
  {
    Span span("setup.ground_truth");
    s->truth = ann::compute_ground_truth<M>(s->data.base, truth_queries, 10);
    s->filtered_truth = ann::compute_filtered_ground_truth<M>(
        s->data.base, truth_queries, 10,
        [&](ann::PointId p) { return labels.has_label(p, kFilterLabel); });
  }
  s->index = ann::make_index({.algorithm = "diskann", .metric = "euclidean",
                              .dtype = "uint8", .params = kBuild});
  {
    Span span("setup.build");
    s->build_s = time_s([&] { s->index.build(s->data.base); });
  }
  s->index.attach_labels(std::move(labels));
  ann::QuantizedSpec pq;
  pq.pq.num_subspaces = 16;
  {
    Span span("quant.attach");
    s->index.attach_quantized(pq);
  }
  return s;
}

// The query pool as kChunk-query batches, one per timed call.
std::vector<ann::PointSet<T>> chunks_of(const ann::PointSet<T>& pool) {
  std::vector<ann::PointSet<T>> chunks;
  for (std::size_t first = 0; first < pool.size(); first += kChunk) {
    chunks.push_back(slice(pool, first, kChunk));
  }
  return chunks;
}

// The traced run's overhead measurement: exact L = 80 calls on consecutive
// chunks until `seconds` pass (at least 3 calls); the median per-call QPS.
double exact_qps(const ann::AnyIndex& index,
                 const std::vector<ann::PointSet<T>>& chunks, double seconds,
                 std::uint64_t& attempted) {
  (void)index.batch_search(chunks[0], kL80);  // warm
  std::vector<double> qps;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t c = 0; qps.size() < 3 || now_ns() < end; ++c) {
    Span sp("query.exact_L80", static_cast<std::int64_t>(c));
    const double t = time_s(
        [&] { (void)index.batch_search(chunks[c % chunks.size()], kL80); });
    qps.push_back(static_cast<double>(kChunk) / t);
    attempted += kChunk;
  }
  return median(qps);
}

}  // namespace

void run_query_u8(const Options& opt, Result& res) {
  std::printf("# workload query-u8: n=%zu d=128 uint8, %u workers\n", kN,
              parlay::num_workers());
  Tracer& tr = Tracer::get();

  // Setup, repeated: setup_s is the median, the last one is used.
  const int reps = opt.trace ? 1 : 3;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Setup> s;
  for (int r = 0; r < reps; ++r) {
    s.reset();
    setup_s.push_back(time_s([&] { s = set_up(opt.seed); }));
    build_s.push_back(s->build_s);
  }
  const ann::AnyIndex& index = s->index;
  const ann::PointSet<T> truth_queries = head(s->data.queries, kTruth);
  const ann::FilterSpec filter = label_filter(kFilterLabel);
  std::uint64_t attempted = 0;

  // Correctness: recall floors and filter admission on the truth queries.
  const double recall80 = ann::average_recall(
      index.batch_search(truth_queries, kL80), s->truth, 10);
  const double recall16 = ann::average_recall(
      index.batch_search(truth_queries, kL16), s->truth, 10);
  const auto filtered =
      index.filtered_batch_search(truth_queries, filter, kL80);
  const double recall_f =
      ann::average_filtered_recall(filtered, s->filtered_truth, 10);
  const double recall_q = ann::average_recall(
      index.quantized_batch_search(truth_queries, kPQ), s->truth, 10);
  std::size_t inadmissible = 0;
  for (const auto& row : filtered) {
    for (const ann::Neighbor& nb : row) {
      inadmissible += !index.labels().has_label(nb.id, kFilterLabel);
    }
  }
  res.check(recall80 >= kFloorL80, "exact recall at L=80 below floor");
  res.check(recall16 >= kFloorL16, "exact recall at L=16 below floor");
  res.check(recall_f >= kFloorFiltered, "filtered recall below floor");
  res.check(recall_q >= kFloorQuantized, "quantized recall below floor");
  res.check(inadmissible == 0, "filtered search returned a non-matching point");

  if (!opt.trace) {
    // The phases run round-robin, one call each per round, until the run's
    // seconds pass: every figure samples the whole run, so a few slow
    // seconds of the machine weigh on all of them alike, and each is the
    // median over rounds.
    const ann::PointSet<T> sample = head(s->data.queries, kLatencySample);
    const auto batch = index.batch_search(sample, kL80);
    const auto chunks = chunks_of(s->data.queries);
    std::vector<double> qps80, qps16, qps_f, qps_q, p50s, p99s;
    std::size_t differ = 0;
    auto rate = [&](auto&& search, const ann::PointSet<T>& q) {
      attempted += q.size();
      return static_cast<double>(q.size()) / time_s(search);
    };
    (void)index.batch_search(chunks[0], kL80);  // warm every path once
    (void)index.filtered_batch_search(chunks[0], filter, kL80);
    (void)index.quantized_batch_search(chunks[0], kPQ);
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    for (std::size_t round = 0; round < 3 || now_ns() < end; ++round) {
      const ann::PointSet<T>& q = chunks[round % chunks.size()];
      qps80.push_back(rate([&] { (void)index.batch_search(q, kL80); }, q));
      qps16.push_back(rate([&] { (void)index.batch_search(q, kL16); }, q));
      qps_f.push_back(rate(
          [&] { (void)index.filtered_batch_search(q, filter, kL80); }, q));
      qps_q.push_back(
          rate([&] { (void)index.quantized_batch_search(q, kPQ); }, q));
      // One-thread latency of single searches, each checked against the
      // batch answer for the same query; p50 and p99 per pass of the sample.
      std::vector<double> lat_ms;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        std::vector<ann::Neighbor> one;
        lat_ms.push_back(time_s([&] {
          one = index.search(sample[static_cast<ann::PointId>(i)], kL80);
        }) * 1e3);
        differ += one != batch[i];
      }
      attempted += sample.size();
      p50s.push_back(quantile(lat_ms, 0.5));
      p99s.push_back(quantile(lat_ms, 0.99));
    }
    res.check(differ == 0, "batch_search differs from per-query search");

    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("build_pts_per_s", static_cast<double>(kN) / median(build_s),
               "1/s");
    res.metric("qps", median(qps80), "1/s");
    res.metric("recall_at10", recall16, "ratio");
    res.note("p50_ms_single", median(p50s), "ms");
    res.note("p99_ms_single", median(p99s), "ms");
    res.note("qps_L16", median(qps16), "1/s");
    res.note("filtered_qps", median(qps_f), "1/s");
    res.note("filtered_recall_at10", recall_f, "ratio");
    res.note("quantized_qps", median(qps_q), "1/s");
    res.note("quantized_recall_at10", recall_q, "ratio");
    res.note("recall_at10_L80", recall80, "ratio");
    res.note("fail_frac", 0.0, "ratio");
    res.count_ops(attempted, 0);
    return;
  }

  // Traced run. Overhead: the L=80 phase without, then with, spans.
  LayerFigures fig;
  const auto chunks = chunks_of(s->data.queries);
  tr.set_enabled(false);
  const double plain = exact_qps(index, chunks, 0.25 * opt.seconds, attempted);
  tr.set_enabled(true);
  const double traced = exact_qps(index, chunks, 0.25 * opt.seconds, attempted);
  fig.overhead_frac = plain / traced - 1.0;

  const auto graph = probe_diskann<M>(s->data.base, kBuild, fig);
  probe_search(index, graph, s->data.base, s->data.queries, kTruth, 80, fig,
               res);
  probe_batch_scaling(index, s->data.queries, 80, fig);
  probe_filter(index, graph, s->data.base, s->data.queries, kTruth, filter, 80,
               fig);
  probe_quant(index, s->data.queries, kTruth, 80, fig);
  probe_prune(graph, s->data.base, kBuild, 1000, fig);
  const auto traffic =
      make_traffic(index, head(s->data.queries, 4000),
                   ann::QueryParams{.beam_width = 32, .k = 10});
  (void)probe_serve(std::move(s->index), traffic, 1.0, fig, res);
  res.count_ops(attempted, 0);
  fig.emit(res);
}

}  // namespace perfbench
