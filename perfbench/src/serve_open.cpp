// serve-open: open-loop serving. One generator thread submits requests
// through SearchService's callback path at a fixed ladder of absolute rates
// (never a fraction of a measured capacity), into a service with default
// ServeParams except a bounded queue that refuses when full. The index is a
// small uint8 diskann (n = 20k, about 5 MB of rows and graph, L = 32), so
// each search is short and queueing, batching and completion dominate; 10%
// of requests carry a label filter, so flushes split into groups. It is the
// only workload that runs src/serve/. Workers are nproc - 1, so the
// generator, the dispatcher and the workers together use at most nproc
// threads.
#include <cstdio>
#include <memory>
#include <vector>

#include "parlay/scheduler.h"

#include "api/ann.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/recall.h"
#include "serve/search_service.h"

#include "bench.h"
#include "data.h"
#include "layers.h"
#include "serve_rung.h"
#include "trace.h"

namespace perfbench {
namespace {

using T = std::uint8_t;
using M = ann::EuclideanSquared;

constexpr std::size_t kN = 20'000;
constexpr std::size_t kRequests = 4'000;  // distinct requests, cycled
constexpr std::size_t kTruth = 1'000;
constexpr std::size_t kQueueCapacity = 8'192;
constexpr std::size_t kAbortBacklog = 4'096;  // stop a rung that falls behind
constexpr double kP99LimitMs = 10.0;
constexpr std::size_t kSaturationWindow = 256;  // outstanding requests
// Three slices of the saturated closed loop, each this share of the run's
// seconds, placed after the early 5k rung, after the ladder and at the end,
// so its figure samples the whole run.
constexpr double kSaturationShare = 0.1;
constexpr double kRecallFloor = 0.90;

const ann::DiskANNParams kBuild{.degree_bound = 32, .beam_width = 64};
const ann::QueryParams kQuery{.beam_width = 32, .k = 10};

// The ladder, in requests per second, and each rung's share of the run.
// 5k and 40k are the rates whose latency is reported; 5k runs a second time
// at the end of the run (kLateShare), and its figures cover both rungs, so
// they sample the start and the end of the run.
struct Rung {
  double rate;
  double share;
};
constexpr Rung kLadder[] = {{5'000, 0.15}, {10'000, 0.05}, {20'000, 0.05},
                            {40'000, 0.10}, {60'000, 0.05}, {80'000, 0.05}};
constexpr double kLateShare = 0.15;

struct Setup {
  ann::Dataset<T> data;
  ann::GroundTruth truth;
  ann::AnyIndex index;
  Traffic<T> traffic;
  double build_s = 0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  {
    Span span("setup.data");
    s->data = ann::make_bigann_like(kN, kRequests, seed);
  }
  {
    Span span("setup.ground_truth");
    s->truth = ann::compute_ground_truth<M>(s->data.base,
                                            head(s->data.queries, kTruth), 10);
  }
  s->index = ann::make_index({.algorithm = "diskann", .metric = "euclidean",
                              .dtype = "uint8", .params = kBuild});
  {
    Span span("setup.build");
    s->build_s = time_s([&] { s->index.build(s->data.base); });
  }
  s->index.attach_labels(make_labels(kN, seed));
  Span span("setup.reference_answers");
  s->traffic = make_traffic(s->index, s->data.queries, kQuery);
  return s;
}

}  // namespace

void run_serve_open(const Options& opt, Result& res) {
  parlay::set_num_workers(serve_workers());
  std::printf("# workload serve-open: n=%zu d=128 uint8, %u workers + "
              "generator + dispatcher\n", kN, parlay::num_workers());
  const int reps = opt.trace ? 1 : 5;  // setup is cheap: more reps
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Setup> s;
  for (int r = 0; r < reps; ++r) {
    s.reset();
    setup_s.push_back(time_s([&] { s = set_up(opt.seed); }));
    build_s.push_back(s->build_s);
  }

  // Served answers are checked against these; their recall is the served
  // recall (plain requests among the ones with ground truth).
  double recall_sum = 0;
  std::size_t recall_n = 0;
  for (std::size_t j = 0; j < kTruth; ++j) {
    if (s->traffic.filters[j].active()) continue;
    std::vector<ann::PointId> ids;
    for (const ann::Neighbor& nb : s->traffic.expected[j]) ids.push_back(nb.id);
    recall_sum += ann::recall_of(ids, s->truth.row(j), 10);
    ++recall_n;
  }
  const double recall = recall_sum / static_cast<double>(recall_n);
  res.check(recall >= kRecallFloor, "served recall below floor");

  if (opt.trace) {
    LayerFigures fig;
    const auto graph = probe_diskann<M>(s->data.base, kBuild, fig);
    probe_search(s->index, graph, s->data.base, s->data.queries, kTruth, 32,
                 fig, res);
    probe_batch_scaling(s->index, s->data.queries, 32, fig);
    probe_filter(s->index, graph, s->data.base, s->data.queries, kTruth,
                 label_filter(0), 32, fig);
    ann::QuantizedSpec pq;
    pq.pq.num_subspaces = 16;
    {
      Span span("quant.attach");
      s->index.attach_quantized(pq);
    }
    probe_quant(s->index, s->data.queries, kTruth, 32, fig);
    probe_prune(graph, s->data.base, kBuild, 1000, fig);
    fig.overhead_frac = probe_serve(std::move(s->index), s->traffic,
                                    0.25 * opt.seconds, fig, res);
    fig.emit(res);
    return;
  }

  auto svc = ann::serve<T>(std::move(s->index),
                           {.queue_capacity = kQueueCapacity,
                            .backpressure = ann::BackpressurePolicy::kReject});
  const Traffic<T> traffic = s->traffic;
  {
    RungResult warm =
        run_rung(*svc, traffic, 0, 5'000, 0.5, kAbortBacklog, "warm");
    res.check(warm.mismatched == 0 && warm.drained, "warm-up rung failed");
  }

  double max_rate = 0;
  RungResult at_5k, at_40k;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t first = 0;
  auto rung = [&](double rate, double seconds) {
    RungResult r = run_rung(*svc, traffic, first, rate, seconds, kAbortBacklog,
                            "rung");
    first += r.sent;
    attempted += r.sent;
    failed += r.failed;
    res.check(r.mismatched == 0,
              "a served result differs from the direct call");
    res.check(r.drained, "an admitted request never completed");
    std::printf("  rung %6.0f/s: sent %7llu failed %5llu p50 %8.3f ms p99 "
                "%8.3f ms lag_p99 %7.3f ms occupancy %5.1f backlog %5zu %s\n",
                rate, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.failed), r.p50(), r.p99(),
                quantile(r.lag_ms, 0.99),
                static_cast<double>(r.completed) /
                    static_cast<double>(std::max<std::uint64_t>(r.batches, 1)),
                r.backlog_at_end,
                r.sustained(kP99LimitMs) ? "sustained" : "NOT sustained");
    return r;
  };
  // Saturated throughput: the service's capacity, measured as a steady
  // closed loop rather than read off the discrete ladder.
  std::vector<double> saturated;
  std::uint64_t saturated_bad = 0;
  auto saturate = [&] {
    run_saturated(*svc, traffic, kSaturationWindow,
                  kSaturationShare * opt.seconds, saturated, attempted,
                  saturated_bad);
  };
  // Every rung runs: one the service cannot keep up with stops sending
  // once kAbortBacklog requests are outstanding.
  for (const Rung& step : kLadder) {
    RungResult r = rung(step.rate, step.share * opt.seconds);
    if (r.sustained(kP99LimitMs)) max_rate = step.rate;
    if (step.rate == 5'000) {
      at_5k = std::move(r);
      saturate();
    }
    if (step.rate == 40'000) at_40k = std::move(r);
  }
  saturate();
  RungResult late = rung(5'000, kLateShare * opt.seconds);
  saturate();
  res.check(saturated_bad == 0, "a saturated-phase result differs or failed");
  const double saturated_qps = median(saturated);
  at_5k.latency_ms.insert(at_5k.latency_ms.end(), late.latency_ms.begin(),
                          late.latency_ms.end());
  const double p50_5k = at_5k.p50(), p99_5k = at_5k.p99();
  const double p50_40k = at_40k.p50(), p99_40k = at_40k.p99();
  svc->shutdown();

  res.metric("setup_s", median(setup_s), "s");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.metric("build_pts_per_s", static_cast<double>(kN) / median(build_s),
             "1/s");
  res.metric("qps", saturated_qps, "1/s");
  res.metric("recall_at10", recall, "ratio");
  res.note("max_rate_qps", max_rate, "1/s");
  res.note("p50_ms_5k", p50_5k, "ms");
  res.note("p99_ms_5k", p99_5k, "ms");
  res.note("p50_ms_40k", p50_40k, "ms");
  res.note("p99_ms_40k", p99_40k, "ms");
  res.note("fail_frac",
           static_cast<double>(failed) /
               static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
           "ratio");
  res.count_ops(attempted, failed);
}

}  // namespace perfbench
