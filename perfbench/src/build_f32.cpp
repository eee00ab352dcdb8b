// build-f32: closed-loop index construction. One driver thread repeats a
// full diskann build (R = 32, L = 64, alpha = 1.0, inner product) over a
// TEXT2IMAGE-like float corpus (d = 200, n = 50k) on every worker. This is
// the write path: construction-time traversal, robust_prune and the
// reverse-edge merge dominate, queries are negligible, and the float kernel
// replaces the integer one.
#include <cstdio>
#include <memory>
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

using T = float;
using M = ann::NegInnerProduct;

constexpr std::size_t kN = 50'000;
// Check queries answered per build. The queries are out of distribution and
// drawn around kChecks / 50 clusters, so recall varies with the seed less
// the more queries there are.
constexpr std::size_t kChecks = 4'000;
constexpr std::size_t kLatencySample = 1'000;  // p99 has 10 samples past it
constexpr std::size_t kProbeQueries = 1'000;  // traced run
constexpr double kRecallFloor = 0.80;

const ann::DiskANNParams kBuild{.degree_bound = 32, .beam_width = 64,
                                .alpha = 1.0f};
const ann::QueryParams kQuery{.beam_width = 80, .k = 10};
const ann::IndexSpec kSpec{.algorithm = "diskann", .metric = "mips",
                           .dtype = "float", .params = kBuild};

struct Setup {
  ann::Dataset<T> data;
  ann::GroundTruth truth;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  {
    Span span("setup.data");
    s->data = ann::make_text2image_like(kN, kChecks, seed);
  }
  Span span("setup.ground_truth");
  s->truth = ann::compute_ground_truth<M>(s->data.base, s->data.queries, 10);
  return s;
}

ann::AnyIndex build(const Setup& s, double& seconds) {
  ann::AnyIndex index = ann::make_index(kSpec);
  Span span("any_index.build");
  seconds = time_s([&] { index.build(s.data.base); });
  return index;
}

}  // namespace

void run_build_f32(const Options& opt, Result& res) {
  std::printf("# workload build-f32: n=%zu d=200 float mips, %u workers\n", kN,
              parlay::num_workers());
  Tracer& tr = Tracer::get();
  const int reps = opt.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int r = 0; r < reps; ++r) {
    s.reset();
    setup_s.push_back(time_s([&] { s = set_up(opt.seed); }));
  }

  // The first build is the reference every later build must reproduce; it
  // also warms the allocator and caches, so it is not timed.
  double secs = 0;
  ann::AnyIndex index = build(*s, secs);
  const auto reference = index.batch_search(s->data.queries, kQuery);
  const double recall = ann::average_recall(reference, s->truth, 10);
  res.check(recall >= kRecallFloor, "recall of the built index below floor");
  std::uint64_t attempted = 1;

  if (!opt.trace) {
    // Per build: points/s, check-query QPS, and p50/p99 of single searches
    // on the fresh index; each reported as the median over builds.
    std::vector<double> pts_per_s, qps, p50s, p99s;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (pts_per_s.size() < 3 || now_ns() < end) {
      index = build(*s, secs);
      pts_per_s.push_back(static_cast<double>(kN) / secs);
      std::vector<std::vector<ann::Neighbor>> answers;
      qps.push_back(static_cast<double>(kChecks) / time_s([&] {
        answers = index.batch_search(s->data.queries, kQuery);
      }));
      res.check(answers == reference, "a rebuild answers differently");
      std::vector<double> lat_ms;
      for (std::size_t i = 0; i < kLatencySample; ++i) {
        std::vector<ann::Neighbor> one;
        lat_ms.push_back(time_s([&] {
          one = index.search(s->data.queries[static_cast<ann::PointId>(i)],
                             kQuery);
        }) * 1e3);
        res.check(one == reference[i], "search differs from batch_search");
      }
      p50s.push_back(quantile(lat_ms, 0.5));
      p99s.push_back(quantile(lat_ms, 0.99));
      attempted += 1 + kChecks + kLatencySample;
    }
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("build_pts_per_s", median(pts_per_s), "1/s");
    res.metric("qps", median(qps), "1/s");
    res.metric("recall_at10", recall, "ratio");
    res.note("p50_ms_single", median(p50s), "ms");
    res.note("p99_ms_single", median(p99s), "ms");
    res.note("builds", static_cast<double>(pts_per_s.size()), "count");
    res.note("build_s_median", static_cast<double>(kN) / median(pts_per_s),
             "s");
    res.note("fail_frac", 0.0, "ratio");
    res.count_ops(attempted, 0);
    return;
  }

  // Traced run. Overhead: one build without, then one with, spans.
  LayerFigures fig;
  double plain = 0, traced = 0;
  tr.set_enabled(false);
  index = build(*s, plain);
  tr.set_enabled(true);
  index = build(*s, traced);
  fig.overhead_frac = traced / plain - 1.0;
  res.check(index.batch_search(s->data.queries, kQuery) == reference,
            "a rebuild answers differently");

  const auto graph = probe_diskann<M>(s->data.base, kBuild, fig);
  probe_search(index, graph, s->data.base, s->data.queries, kProbeQueries, 80,
               fig, res);
  probe_batch_scaling(index, s->data.queries, 80, fig);
  index.attach_labels(make_labels(kN, opt.seed));
  probe_filter(index, graph, s->data.base, s->data.queries, kProbeQueries,
               label_filter(0), 80, fig);
  ann::QuantizedSpec pq;
  pq.pq.num_subspaces = 16;
  {
    Span span("quant.attach");
    index.attach_quantized(pq);
  }
  probe_quant(index, s->data.queries, kProbeQueries, 80, fig);
  probe_prune(graph, s->data.base, kBuild, 1000, fig);
  const auto traffic = make_traffic(
      index, s->data.queries, ann::QueryParams{.beam_width = 32, .k = 10});
  (void)probe_serve(std::move(index), traffic, 1.0, fig, res);
  res.count_ops(attempted, 0);
  fig.emit(res);
}

}  // namespace perfbench
