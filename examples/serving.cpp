// Serving walkthrough: stand up a SearchService over a built index, drive
// it from concurrent client threads (futures and callbacks), and read the
// operational stats — the full life cycle of docs/SERVING.md in one file.
//
//   $ ./example_serving
#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "api/ann.h"
#include "core/dataset.h"
#include "serve/search_service.h"

int main() {
  using namespace ann;

  // 1. A built index — the service refuses to serve an empty one.
  auto ds = make_bigann_like(/*n=*/20000, /*nq=*/256, /*seed=*/42);
  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "uint8",
                 .params = DiskANNParams{.degree_bound = 32, .beam_width = 64}};
  AnyIndex index = make_index(spec);
  index.build(ds.base);

  // 2. Wrap it in a service: requests that queue up while a batch runs
  //    go out together, up to 32 at a time; bound the queue, block
  //    producers when full.
  SearchService<std::uint8_t> service(
      std::move(index),
      {.max_batch = 32, .queue_capacity = 1024,
       .backpressure = BackpressurePolicy::kBlock});

  // 3. Closed-loop clients: submit, wait, repeat. Each request can carry
  //    its own QueryParams; the micro-batcher groups compatible ones.
  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  std::atomic<int> total_hits{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryParams qp{.beam_width = c % 2 == 0 ? 32u : 64u, .k = 10};
      for (int i = 0; i < kPerClient; ++i) {
        auto q = static_cast<PointId>((c * kPerClient + i) % ds.queries.size());
        auto hits = service.submit(ds.queries[q], qp).get();
        total_hits.fetch_add(static_cast<int>(hits.size()));
      }
    });
  }
  for (auto& t : clients) t.join();

  // 4. Fire-and-forget via the callback path (runs on the dispatcher
  //    thread — keep it cheap, never let it throw).
  std::promise<std::size_t> first_id;
  service.submit(std::span<const std::uint8_t>(ds.queries[0], service.dims()),
                 {.beam_width = 40, .k = 10},
                 [&first_id](std::vector<Neighbor> hits,
                             std::exception_ptr error) {
                   first_id.set_value(error || hits.empty() ? size_t{0}
                                                            : hits[0].id);
                 });
  std::printf("callback answered: nearest id %zu\n", first_id.get_future().get());

  // 5. Operational stats, same idiom as AnyIndex::stats().
  auto stats = service.stats();
  std::printf("served %llu requests in %llu batches "
              "(occupancy %.1f, %llu dispatches)\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_occupancy,
              static_cast<unsigned long long>(stats.dispatches));
  std::printf("throughput %.0f QPS | latency p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms | %.0f dist comps/query\n",
              stats.qps, stats.p50_ms, stats.p95_ms, stats.p99_ms,
              stats.completed
                  ? static_cast<double>(stats.distance_comps) /
                        static_cast<double>(stats.completed)
                  : 0.0);

  // 6. Graceful shutdown: stop admission, drain, join. (The destructor
  //    would do the same.)
  service.shutdown();
  const int expected = kClients * kPerClient * 10;
  std::printf("total neighbor hits: %d (expected %d)\n", total_hits.load(),
              expected);
  return total_hits.load() == expected ? 0 : 1;
}
