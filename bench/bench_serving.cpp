// Serving-layer bench: what does the async batching front end cost, and
// what does it buy, against driving AnyIndex::batch_search directly?
//
//   section 1 — parity gate (ALWAYS enforced, non-zero exit on mismatch):
//     every result obtained through the service must be element-wise
//     identical to a direct batch_search with the same parameters.
//   section 2 — closed-loop sweep: C client threads submit-and-wait;
//     QPS + p50/p95/p99 latency + mean batch occupancy vs max_batch.
//     Batching gate (enforced at scale >= 1, report-only below): QPS at
//     max_batch=8 must reach 0.9x the QPS at max_batch=1. Batching may buy
//     little on a small machine, but it must never cost throughput: a
//     dispatcher that holds an idle executor back to fill a batch fails
//     this gate several times over.
//   section 3 — open-loop sweep: one generator paces submissions at a
//     target arrival rate (fractions of the directly measured engine
//     throughput) under kReject backpressure; latency and shed load vs
//     offered rate and max_batch.
//
// Usage: bench_serving [scale]   (default 1.0; ctest smoke runs 0.05)
//
// Single-machine caveat: client threads, the dispatcher, and the parlay
// workers share the same cores, so closed-loop QPS here is a lower bound
// on what a dedicated-core deployment would see; the relative shape across
// batch sizes is the signal.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/search_service.h"

namespace {

using namespace ann;

struct ServingRow {
  std::string setting;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double occupancy = 0;
  double comps_per_query = 0;
  double rejected_frac = 0;
};

void print_rows(const char* title, const std::vector<ServingRow>& rows,
                bool open_loop) {
  std::printf("\n## %s\n", title);
  std::vector<std::string> cols = {"setting",   "QPS",   "p50_ms",
                                   "p95_ms",    "p99_ms", "occupancy",
                                   "comps/query"};
  if (open_loop) cols.push_back("shed_frac");
  Table table(cols);
  for (const auto& r : rows) {
    std::vector<std::string> row = {
        r.setting,          fmt(r.qps, 0),       fmt(r.p50_ms, 3),
        fmt(r.p95_ms, 3),   fmt(r.p99_ms, 3),    fmt(r.occupancy, 2),
        fmt(r.comps_per_query, 0)};
    if (open_loop) row.push_back(fmt(r.rejected_frac, 3));
    table.add_row(row);
  }
  table.print();
}

ServingRow row_from_stats(const std::string& setting, const ServeStats& s,
                          double elapsed_s) {
  ServingRow r;
  r.setting = setting;
  r.qps = elapsed_s > 0 ? static_cast<double>(s.completed) / elapsed_s : 0;
  r.p50_ms = s.p50_ms;
  r.p95_ms = s.p95_ms;
  r.p99_ms = s.p99_ms;
  r.occupancy = s.mean_batch_occupancy;
  r.comps_per_query =
      s.completed > 0 ? static_cast<double>(s.distance_comps) /
                            static_cast<double>(s.completed)
                      : 0;
  std::uint64_t offered = s.completed + s.rejected;
  r.rejected_frac =
      offered > 0 ? static_cast<double>(s.rejected) /
                        static_cast<double>(offered)
                  : 0;
  return r;
}

AnyIndex build_index(const Dataset<std::uint8_t>& ds) {
  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "uint8",
                 .params = DiskANNParams{.degree_bound = 32, .beam_width = 64}};
  AnyIndex index = make_index(spec);
  index.build(ds.base);
  return index;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = bench::scale_arg(argc, argv);
  const std::size_t n = bench::scaled(20000, scale);
  const std::size_t nq = bench::scaled(1000, scale);
  const QueryParams qp{.beam_width = 32, .k = 10};

  std::printf("# bench_serving (scale %.2f): n=%zu, %zu queries, %u workers\n",
              scale, n, nq, parlay::num_workers());
  auto ds = make_bigann_like(n, nq, /*seed=*/11);

  std::printf("building diskann index...\n");
  AnyIndex direct = build_index(ds);

  // Reference results + raw engine throughput (the service-less baseline).
  std::vector<std::vector<Neighbor>> expected;
  double direct_s = bench::time_s([&] {
    expected = direct.batch_search(ds.queries, qp);
  });
  double direct_qps = static_cast<double>(nq) / direct_s;
  std::printf("direct batch_search: %.0f QPS over one %zu-query batch\n",
              direct_qps, nq);

  // --- section 1: parity gate ------------------------------------------------
  std::printf("\n## 1. service-vs-direct parity (enforced)\n");
  std::size_t mismatches = 0;
  {
    SearchService<std::uint8_t> service(
        build_index(ds), {.max_batch = 8});
    std::vector<std::future<std::vector<Neighbor>>> futures;
    futures.reserve(nq);
    for (std::size_t i = 0; i < nq; ++i) {
      futures.push_back(service.submit(ds.queries[static_cast<PointId>(i)], qp));
    }
    for (std::size_t i = 0; i < nq; ++i) {
      if (futures[i].get() != expected[i]) ++mismatches;
    }
  }
  std::printf("element-wise mismatches vs direct batch_search: %zu %s\n",
              mismatches, mismatches == 0 ? "(PASS)" : "(FAIL)");

  // The batching gate reads the first two closed-loop rows: 1 and 8.
  const std::vector<std::size_t> batch_sizes = {1, 8, 32, 64};
  constexpr double kMinBatchedRatio = 0.9;
  double batched_ratio = 0;  // closed-loop QPS, max_batch=8 over max_batch=1

  // --- section 2: closed-loop sweep ------------------------------------------
  // C clients submit-and-wait: arrival adapts to service throughput, so
  // this measures sustainable QPS and the latency cost of coalescing.
  {
    const unsigned kClients = 4;
    const std::size_t per_client = std::max<std::size_t>(nq / kClients, 32);
    std::vector<ServingRow> rows;
    for (std::size_t max_batch : batch_sizes) {
      SearchService<std::uint8_t> service(
          build_index(ds),
          {.max_batch = max_batch, .queue_capacity = 4096});
      double elapsed = bench::time_s([&] {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            for (std::size_t i = 0; i < per_client; ++i) {
              std::size_t q = (c * per_client + i) % nq;
              service.submit(ds.queries[static_cast<PointId>(q)], qp).get();
            }
          });
        }
        for (auto& t : clients) t.join();
      });
      char label[64];
      std::snprintf(label, sizeof(label), "max_batch=%zu", max_batch);
      rows.push_back(row_from_stats(label, service.stats(), elapsed));
    }
    char title[96];
    std::snprintf(title, sizeof(title),
                  "2. closed-loop: %u clients x %zu requests", kClients,
                  per_client);
    print_rows(title, rows, /*open_loop=*/false);
    batched_ratio = rows[0].qps > 0 ? rows[1].qps / rows[0].qps : 0;
    std::printf("batching gate: max_batch=8 / max_batch=1 QPS = %.2f "
                "(need >= %.2f%s)\n",
                batched_ratio, kMinBatchedRatio,
                scale >= 1.0 ? "" : ", report-only below scale 1");
  }

  // --- section 3: open-loop sweep --------------------------------------------
  // One generator paces submissions at a fixed arrival rate (independent of
  // completions — the paper's concurrent-load model) under kReject, so
  // overload surfaces as shed requests instead of unbounded queueing.
  {
    std::vector<ServingRow> rows;
    const std::size_t total = std::max<std::size_t>(2 * nq, 64);
    for (double fraction : {0.25, 0.5, 1.0}) {
      double rate = direct_qps * fraction;
      if (rate < 1.0) rate = 1.0;
      for (std::size_t max_batch : {std::size_t{8}, std::size_t{64}}) {
        SearchService<std::uint8_t> service(
            build_index(ds),
            {.max_batch = max_batch, .queue_capacity = 1024,
             .backpressure = BackpressurePolicy::kReject});
        std::vector<std::future<std::vector<Neighbor>>> futures;
        futures.reserve(total);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < total; ++i) {
          auto due = t0 + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / rate));
          std::this_thread::sleep_until(due);
          try {
            futures.push_back(service.submit(
                ds.queries[static_cast<PointId>(i % nq)], qp));
          } catch (const queue_full&) {
            // shed; counted by the service
          }
        }
        for (auto& f : futures) f.get();
        auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0).count();
        char label[96];
        std::snprintf(label, sizeof(label),
                      "offered=%.0f/s max_batch=%zu", rate, max_batch);
        rows.push_back(row_from_stats(label, service.stats(), elapsed));
      }
    }
    print_rows("3. open-loop arrival sweep (kReject)", rows,
               /*open_loop=*/true);
  }

  if (mismatches != 0) {
    std::printf("\nFAIL: service results diverged from direct batch_search\n");
    return 1;
  }
  if (scale >= 1.0 && batched_ratio < kMinBatchedRatio) {
    std::printf("\nFAIL: closed-loop max_batch=8 QPS is %.2fx max_batch=1\n",
                batched_ratio);
    return 1;
  }
  std::printf("\nall serving gates passed\n");
  return 0;
}
