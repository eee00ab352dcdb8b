// Serving-layer suite: the determinism boundary (batched-service results
// element-wise identical to direct AnyIndex::batch_search), the
// work-conserving batcher's coalescing, both backpressure policies, the
// error paths, and submit/shutdown races. Runs under the ASan+UBSan CI job
// like every other test.
//
// Scheduler interplay note: while a SearchService is live its dispatcher is
// the one external thread driving parlay parallel regions, so the tests do
// their own direct batch_search calls before the service starts or after
// shutdown, never concurrently with it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/ann.h"
#include "core/dataset.h"
#include "serve/mpmc_queue.h"
#include "serve/search_service.h"

namespace ann {
namespace {

constexpr std::size_t kN = 2000;
constexpr std::size_t kNumQueries = 64;

const Dataset<std::uint8_t>& dataset() {
  static Dataset<std::uint8_t> ds =
      make_bigann_like(kN, kNumQueries, /*seed=*/7);
  return ds;
}

AnyIndex make_built_index() {
  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "uint8",
                 .params = DiskANNParams{.degree_bound = 24, .beam_width = 48}};
  AnyIndex index = make_index(spec);
  index.build(dataset().base);
  return index;
}

// Occupies the dispatcher with one request whose callback blocks until
// release(); everything submitted meanwhile stays queued behind it. The
// constructor returns once that callback runs, so the plug's own batch is
// already closed. The destructor releases a plug the test left in.
class DispatcherPlug {
 public:
  explicit DispatcherPlug(SearchService<std::uint8_t>& service) {
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> running = entered->get_future();
    service.submit(
        std::span<const std::uint8_t>(dataset().queries[0], service.dims()),
        {.beam_width = 16, .k = 5},
        [entered, gate = gate_](std::vector<Neighbor>, std::exception_ptr) {
          entered->set_value();
          gate.wait();
        });
    running.wait();
  }
  ~DispatcherPlug() { release(); }

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future()};
  bool released_ = false;
};

// --- the queue itself --------------------------------------------------------

TEST(BoundedMpmcQueue, FifoSingleThread) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_EQ(q.ring_size(), 4u);
  int out = -1;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(BoundedMpmcQueue, ZeroCapacityRejected) {
  EXPECT_THROW(BoundedMpmcQueue<int>(0), std::invalid_argument);
}

TEST(BoundedMpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedMpmcQueue<int> q(64);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 2);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        while (!q.try_push(std::move(v))) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      int v;
      while (popped.load() < kProducers * kPerProducer) {
        if (q.try_pop(v)) {
          sum.fetch_add(v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- result parity -----------------------------------------------------------

// The acceptance-criteria test: results through the batching service are
// element-wise identical to a direct batch_search with the same request
// set, for every micro-batcher slicing the submission order produces.
TEST(SearchService, ResultsMatchDirectBatchSearch) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};

  AnyIndex direct = make_built_index();
  auto expected = direct.batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = 8});
  std::vector<std::future<std::vector<Neighbor>>> futures;
  futures.reserve(ds.queries.size());
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    futures.push_back(service.submit(ds.queries[static_cast<PointId>(i)], qp));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, ds.queries.size());
  EXPECT_EQ(stats.completed, ds.queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.dispatches, stats.batches);
  EXPECT_GT(stats.mean_batch_occupancy, 0.0);
  EXPECT_LE(stats.mean_batch_occupancy,
            static_cast<double>(service.params().max_batch));
  EXPECT_GT(stats.distance_comps, 0u);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
}

// Per-request QueryParams overrides: interleaved submissions with two
// different (beam, k) settings each get answered with their own params.
TEST(SearchService, PerRequestParamOverridesGroupCorrectly) {
  const auto& ds = dataset();
  QueryParams wide{.beam_width = 48, .k = 10};
  QueryParams narrow{.beam_width = 16, .k = 5};

  AnyIndex direct = make_built_index();
  auto expect_wide = direct.batch_search(ds.queries, wide);
  auto expect_narrow = direct.batch_search(ds.queries, narrow);

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = 16});
  std::vector<std::future<std::vector<Neighbor>>> wide_futures;
  std::vector<std::future<std::vector<Neighbor>>> narrow_futures;
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    const auto* q = ds.queries[static_cast<PointId>(i)];
    wide_futures.push_back(service.submit(q, wide));
    narrow_futures.push_back(service.submit(q, narrow));
  }
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    EXPECT_EQ(wide_futures[i].get(), expect_wide[i]) << "wide query " << i;
    EXPECT_EQ(narrow_futures[i].get(), expect_narrow[i])
        << "narrow query " << i;
  }
  service.shutdown();
  // Mixed-params flushes dispatch one batch_search per group.
  auto stats = service.stats();
  EXPECT_GE(stats.dispatches, stats.batches);
}

// submit_batch: one call, futures in row order, same parity.
TEST(SearchService, SubmitBatchParity) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};
  AnyIndex direct = make_built_index();
  auto expected = direct.batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = 32});
  auto futures = service.submit_batch(ds.queries, qp);
  ASSERT_EQ(futures.size(), ds.queries.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
}

// Parity must hold when many client threads interleave their submissions
// arbitrarily (the nondeterministic-arrival half of the determinism
// boundary).
TEST(SearchService, ConcurrentSubmittersStillGetExactResults) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};
  AnyIndex direct = make_built_index();
  auto expected = direct.batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = 8});
  constexpr int kThreads = 4;
  std::vector<std::vector<std::size_t>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t);
           i < ds.queries.size(); i += kThreads) {
        auto got =
            service.submit(ds.queries[static_cast<PointId>(i)], qp).get();
        if (got != expected[i]) mismatches[t].push_back(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[t].empty()) << "thread " << t;
  }
}

// --- work-conserving batching ----------------------------------------------

// The dispatcher never waits for company: requests queued while a batch
// executes coalesce into the next batches, max_batch at a time. With the
// plug's lone batch executing, 2 * max_batch + 1 queued requests must go
// out as exactly three more batches (full, full, one), each answered
// exactly as a direct batch_search answers it.
TEST(SearchService, ArrivalsDuringExecutionCoalesceUpToMaxBatch) {
  const auto& ds = dataset();
  constexpr std::size_t kMaxBatch = 4;
  const QueryParams qp{.beam_width = 32, .k = 10};
  AnyIndex direct = make_built_index();
  auto expected = direct.batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = kMaxBatch});
  DispatcherPlug plug(service);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (std::size_t i = 0; i < 2 * kMaxBatch + 1; ++i) {
    futures.push_back(service.submit(ds.queries[static_cast<PointId>(i)], qp));
  }
  EXPECT_EQ(service.stats().queue_depth, 2 * kMaxBatch + 1);
  plug.release();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
  service.shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u + 3u);
  EXPECT_EQ(stats.completed, 2 * kMaxBatch + 2);
}

// --- backpressure ------------------------------------------------------------

// Plug the dispatcher; the queue then fills deterministically and the
// policy is observable.
TEST(SearchService, RejectPolicyThrowsQueueFullWhenSaturated) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(
      make_built_index(),
      {.max_batch = 1, .queue_capacity = 2,
       .backpressure = BackpressurePolicy::kReject});
  DispatcherPlug plug(service);
  // Fill the queue to capacity behind the stuck dispatcher...
  std::vector<std::future<std::vector<Neighbor>>> queued;
  for (int i = 0; i < 2; ++i) {
    queued.push_back(service.submit(ds.queries[1], {.beam_width = 16, .k = 5}));
  }
  // ...and the next submit must be rejected, not blocked.
  EXPECT_THROW(service.submit(ds.queries[2], {.beam_width = 16, .k = 5}),
               queue_full);
  EXPECT_GE(service.stats().rejected, 1u);
  // All-or-nothing batch admission: a 2-row batch cannot fit either, and
  // nothing from it may be enqueued.
  EXPECT_THROW(service.submit_batch(ds.queries.slice(0, 2),
                                    {.beam_width = 16, .k = 5}),
               queue_full);
  plug.release();
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
  }
  service.shutdown();
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(SearchService, BlockPolicyThrottlesProducerUntilSpaceFrees) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(
      make_built_index(),
      {.max_batch = 1, .queue_capacity = 1,
       .backpressure = BackpressurePolicy::kBlock});
  DispatcherPlug plug(service);
  auto fill = service.submit(ds.queries[1], {.beam_width = 16, .k = 5});
  // The queue (capacity 1) is now full; this submit must block...
  std::atomic<bool> second_submitted{false};
  std::thread blocked([&] {
    auto f = service.submit(ds.queries[2], {.beam_width = 16, .k = 5});
    second_submitted.store(true);
    f.get();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_submitted.load());
  // ...until the dispatcher frees space.
  plug.release();
  blocked.join();
  EXPECT_TRUE(second_submitted.load());
  ASSERT_EQ(fill.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
}

// --- error paths -------------------------------------------------------------

TEST(SearchService, SubmitAfterShutdownThrowsCleanly) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(make_built_index(), {});
  service.shutdown();
  service.shutdown();  // idempotent
  EXPECT_THROW(service.submit(ds.queries[0]), std::logic_error);
  EXPECT_THROW(service.submit_batch(ds.queries.slice(0, 2)),
               std::logic_error);
}

TEST(SearchService, InvalidServeParamsRejectedAtConstruction) {
  EXPECT_THROW(SearchService<std::uint8_t>(make_built_index(),
                                           {.queue_capacity = 0}),
               std::invalid_argument);
  EXPECT_THROW(SearchService<std::uint8_t>(make_built_index(),
                                           {.max_batch = 0}),
               std::invalid_argument);
}

TEST(SearchService, DimsMismatchedQueriesRejected) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(make_built_index(), {});
  // Batch with the wrong dimensionality.
  PointSet<std::uint8_t> wrong(4, 32);
  EXPECT_THROW(service.submit_batch(wrong), std::invalid_argument);
  // Span with the wrong length.
  EXPECT_THROW(service.submit(std::span<const std::uint8_t>(
                   ds.queries[0], service.dims() - 1)),
               std::invalid_argument);
  // A batch larger than the queue can ever hold can never be admitted.
  SearchService<std::uint8_t> tiny(make_built_index(), {.queue_capacity = 4});
  EXPECT_THROW(tiny.submit_batch(ds.queries.slice(0, 8)),
               std::invalid_argument);
}

TEST(SearchService, UnbuiltOrMismatchedIndexRejectedAtConstruction) {
  // Built-but-empty / never-built index.
  AnyIndex unbuilt = make_index("diskann", "euclidean", "uint8");
  EXPECT_THROW(SearchService<std::uint8_t>(std::move(unbuilt), {}),
               std::invalid_argument);
  // dtype mismatch between the handle and the service instantiation.
  EXPECT_THROW(SearchService<float>(make_built_index(), {}),
               std::invalid_argument);
  // Empty handle.
  EXPECT_THROW(SearchService<std::uint8_t>(AnyIndex{}, {}),
               std::invalid_argument);
}

// --- shutdown races ----------------------------------------------------------

// Threads hammer submit while the main thread shuts the service down.
// Invariant: every future from a submit() that did not throw is fulfilled
// (the drain guarantee), and post-shutdown submits fail with logic_error,
// never anything else. ASan/UBSan in CI watches the lifetime handoff.
TEST(SearchService, ConcurrentSubmitAndShutdownDrainsAccepted) {
  const auto& ds = dataset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  auto service = std::make_unique<SearchService<std::uint8_t>>(
      make_built_index(),
      ServeParams{.max_batch = 16, .queue_capacity = 64});
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::vector<std::future<std::vector<Neighbor>>>> futures(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          futures[t].push_back(service->submit(
              ds.queries[static_cast<PointId>(i % ds.queries.size())],
              {.beam_width = 16, .k = 5}));
          accepted.fetch_add(1);
        } catch (const std::logic_error&) {
          refused.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->shutdown();
  for (auto& t : threads) t.join();
  int fulfilled = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_FALSE(f.get().empty());
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, accepted.load());
  EXPECT_EQ(accepted.load() + refused.load(), kThreads * kPerThread);
  EXPECT_EQ(service->stats().completed,
            static_cast<std::uint64_t>(accepted.load()));
}

// Destroying the service without an explicit shutdown() must also drain.
TEST(SearchService, DestructorDrainsInFlightRequests) {
  const auto& ds = dataset();
  std::vector<std::future<std::vector<Neighbor>>> futures;
  {
    SearchService<std::uint8_t> service(
        make_built_index(),
        {.max_batch = 8, .queue_capacity = 64});
    for (std::size_t i = 0; i < 32; ++i) {
      futures.push_back(service.submit(
          ds.queries[static_cast<PointId>(i % ds.queries.size())],
          {.beam_width = 16, .k = 5}));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_FALSE(f.get().empty());
  }
}

// --- filtered serving --------------------------------------------------------

// Deterministic label schedule over the shared dataset: parity (sel ~0.5)
// and decile (sel ~0.1) labels per point.
AnyIndex make_labeled_index() {
  AnyIndex index = make_built_index();
  LabelStore labels;
  for (std::size_t i = 0; i < kN; ++i) {
    labels.add_point_names({i % 2 == 0 ? "even" : "odd",
                            "decile_" + std::to_string(i % 10)});
  }
  index.attach_labels(std::move(labels));
  return index;
}

// Filtered submissions through the service must be element-wise identical
// to a direct filtered_batch_search with the same (filter, params) — the
// serving determinism boundary extends to filtered traffic.
TEST(SearchService, FilteredSubmitMatchesDirectFilteredBatchSearch) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};

  AnyIndex direct = make_labeled_index();
  auto spec = FilterSpec::match_any(direct.labels(), {"decile_3"});
  auto expected = direct.filtered_batch_search(ds.queries, spec, qp);

  SearchService<std::uint8_t> service(make_labeled_index(),
                                      {.max_batch = 8});
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    futures.push_back(
        service.submit(ds.queries[static_cast<PointId>(i)], spec, qp));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.filtered, ds.queries.size());
  // decile_3 admits ~10% of the index; the estimator sees label counts.
  EXPECT_NEAR(stats.mean_filter_selectivity, 0.1, 0.05);
}

// Mixed filtered/unfiltered traffic in the same flush: the micro-batcher
// splits the flush into per-(params, filter) groups and each request is
// answered with exactly its own filter.
TEST(SearchService, MixedFilteredAndUnfilteredBatchesGroupCorrectly) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};

  AnyIndex direct = make_labeled_index();
  auto even = FilterSpec::match_any(direct.labels(), {"even"});
  auto expect_plain = direct.batch_search(ds.queries, qp);
  auto expect_even = direct.filtered_batch_search(ds.queries, even, qp);

  SearchService<std::uint8_t> service(make_labeled_index(),
                                      {.max_batch = 16});
  std::vector<std::future<std::vector<Neighbor>>> plain_futures;
  std::vector<std::future<std::vector<Neighbor>>> even_futures;
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    const auto* q = ds.queries[static_cast<PointId>(i)];
    plain_futures.push_back(service.submit(q, qp));
    even_futures.push_back(service.submit(q, even, qp));
  }
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    EXPECT_EQ(plain_futures[i].get(), expect_plain[i]) << "plain " << i;
    EXPECT_EQ(even_futures[i].get(), expect_even[i]) << "filtered " << i;
  }
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.filtered, ds.queries.size());
  EXPECT_EQ(stats.completed, 2 * ds.queries.size());
  // Mixed flushes dispatch at least one call per distinct filter group.
  EXPECT_GE(stats.dispatches, stats.batches);
  // Every filtered request carried the ~0.5-selectivity "even" label.
  EXPECT_NEAR(stats.mean_filter_selectivity, 0.5, 0.05);
}

// Filtered submit_batch: one call, one FilterSpec for all rows.
TEST(SearchService, FilteredSubmitBatchParity) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};
  AnyIndex direct = make_labeled_index();
  auto spec = FilterSpec::match_all(direct.labels(), {"even", "decile_4"});
  auto expected = direct.filtered_batch_search(ds.queries, spec, qp);

  SearchService<std::uint8_t> service(make_labeled_index(),
                                      {.max_batch = 32});
  auto futures = service.submit_batch(ds.queries, spec, qp);
  ASSERT_EQ(futures.size(), ds.queries.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
}

// A label-referencing spec against an unlabeled index fails at submit time
// with invalid_argument — not as a broken future at dispatch time. A
// predicate-only spec needs no store and must be accepted.
TEST(SearchService, LabelFilterWithoutStoreRejectedAtSubmit) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(make_built_index(), {});
  auto labeled = FilterSpec::match_any({LabelId{0}});
  EXPECT_THROW(service.submit(ds.queries[0], labeled), std::invalid_argument);
  EXPECT_THROW(service.submit_batch(ds.queries.slice(0, 2), labeled),
               std::invalid_argument);
  auto predicate_only =
      FilterSpec::where([](PointId id) { return id % 2 == 0; });
  auto hits =
      service.submit(ds.queries[0], predicate_only, {.beam_width = 32, .k = 10})
          .get();
  for (const auto& nb : hits) EXPECT_EQ(nb.id % 2, 0u);
  EXPECT_FALSE(hits.empty());
}

// --- quantized serving -------------------------------------------------------

AnyIndex make_quantized_index() {
  AnyIndex index = make_built_index();
  index.attach_quantized({.kind = QuantKind::kInt8});
  return index;
}

// Quantized submissions are answered element-wise identically to a direct
// AnyIndex::quantized_search with the same params, for every batch slicing.
TEST(SearchService, QuantizedSubmitMatchesDirectQuantizedSearch) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10, .rerank_count = 30};

  AnyIndex direct = make_quantized_index();
  auto expected = direct.quantized_batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_quantized_index(),
                                      {.max_batch = 8});
  std::vector<std::future<std::vector<Neighbor>>> futures;
  futures.reserve(ds.queries.size());
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    futures.push_back(
        service.submit_quantized(ds.queries[static_cast<PointId>(i)], qp));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "query " << i;
  }
  service.shutdown();
  EXPECT_EQ(service.stats().quantized, ds.queries.size());
}

// Quantized and plain requests may share a flush but never a dispatch
// group, and rerank_count differences split groups too — each request is
// answered with exactly the path and params it asked for.
TEST(SearchService, QuantizedAndPlainRequestsGroupSeparately) {
  const auto& ds = dataset();
  QueryParams plain{.beam_width = 32, .k = 10};
  QueryParams rerank_a = plain;
  rerank_a.rerank_count = 20;
  QueryParams rerank_b = plain;
  rerank_b.rerank_count = 40;

  AnyIndex direct = make_quantized_index();
  SearchService<std::uint8_t> service(make_quantized_index(),
                                      {.max_batch = 16});
  std::vector<std::future<std::vector<Neighbor>>> futures;
  std::vector<std::vector<Neighbor>> expected;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::uint8_t* q = ds.queries[static_cast<PointId>(i)];
    switch (i % 3) {
      case 0:
        futures.push_back(service.submit(q, plain));
        expected.push_back(direct.search(q, plain));
        break;
      case 1:
        futures.push_back(service.submit_quantized(q, rerank_a));
        expected.push_back(direct.quantized_search(q, rerank_a));
        break;
      default:
        futures.push_back(service.submit_quantized(q, rerank_b));
        expected.push_back(direct.quantized_search(q, rerank_b));
        break;
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
  }
  service.shutdown();
  EXPECT_EQ(service.stats().quantized, 8u);
}

// A quantized submit against an index with no code store fails at submit
// time with invalid_argument, not as a broken future at dispatch time.
TEST(SearchService, QuantizedSubmitWithoutStoreRejectedAtSubmit) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(make_built_index(), {});
  EXPECT_THROW(service.submit_quantized(ds.queries[0], {.k = 10}),
               std::invalid_argument);
}

// --- deadlines, degradation, hot swap (docs/RELIABILITY.md) ------------------

// A request whose deadline elapses while it waits in the queue is failed
// with ann::deadline_exceeded at dispatch time; a batchmate without a
// deadline is searched and answered normally.
TEST(SearchService, DeadlineExpiresInQueueWithoutHarmingBatchmates) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};

  AnyIndex direct = make_built_index();
  auto expected = direct.batch_search(ds.queries, qp);

  SearchService<std::uint8_t> service(make_built_index(), {.max_batch = 8});
  DispatcherPlug plug(service);
  auto doomed = service.submit(
      std::span<const std::uint8_t>(ds.queries[0], service.dims()), qp,
      SubmitOptions{.deadline_ms = 1});
  auto healthy = service.submit(
      std::span<const std::uint8_t>(ds.queries[1], service.dims()), qp,
      SubmitOptions{.deadline_ms = 60'000});
  // Both wait behind the plug well past the doomed request's 1 ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  plug.release();

  EXPECT_THROW(doomed.get(), deadline_exceeded);
  EXPECT_EQ(healthy.get(), expected[1]);
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.submitted, 3u);  // the plug, doomed, healthy
}

TEST(SearchService, NegativeDeadlineRejectedAtSubmit) {
  const auto& ds = dataset();
  SearchService<std::uint8_t> service(make_built_index(), {});
  EXPECT_THROW(
      service.submit(
          std::span<const std::uint8_t>(ds.queries[0], service.dims()),
          QueryParams{.k = 10}, SubmitOptions{.deadline_ms = -1}),
      std::invalid_argument);
}

// With degradation enabled and the queue over its watermark, batches run
// with a stepped-down beam — every request is still answered with k
// results, and the stats record how many were degraded.
TEST(SearchService, DegradeShedsEffortUnderPressure) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 64, .k = 10};
  SearchService<std::uint8_t> service(
      make_built_index(),
      {.max_batch = 8, .queue_capacity = 256,
       .degrade = {.queue_high_watermark = 4, .beam_step = 8,
                   .min_beam = 8}});
  // 64 requests admitted in one all-or-nothing batch: the queue is deep the
  // moment the dispatcher starts flushing, so pressure is guaranteed.
  auto futures = service.submit_batch(ds.queries, qp);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().size(), 10u) << "request " << i;
  }
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, ds.queries.size());
  EXPECT_GT(stats.degraded, 0u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(SearchService, DegradeParamsValidatedAtConstruction) {
  EXPECT_THROW(SearchService<std::uint8_t>(
                   make_built_index(),
                   {.degrade = {.queue_high_watermark = 4, .beam_step = 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      SearchService<std::uint8_t>(
          make_built_index(),
          {.queue_capacity = 8, .degrade = {.queue_high_watermark = 9}}),
      std::invalid_argument);
}

// swap_index validation: the replacement must be a valid, built handle
// serving the same dims. (Same-dtype is enforced by the same check the
// constructor uses.)
TEST(SearchService, SwapIndexRejectsUnbuiltOrMismatchedReplacements) {
  SearchService<std::uint8_t> service(make_built_index(), {});
  EXPECT_THROW(service.swap_index(AnyIndex{}), std::invalid_argument);
  EXPECT_THROW(service.swap_index(make_index(
                   IndexSpec{.algorithm = "diskann", .metric = "euclidean",
                             .dtype = "uint8"})),
               std::invalid_argument);  // constructed but never built

  // Same dtype, different dims: queued queries were validated against
  // dims(), so the swap must refuse.
  PointSet<std::uint8_t> narrow(300, 64);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    auto* row = narrow.mutable_point(static_cast<PointId>(i));
    for (std::size_t j = 0; j < narrow.dims(); ++j) {
      row[j] = static_cast<std::uint8_t>((i * 31 + j * 7) & 0xff);
    }
  }
  AnyIndex other = make_index(IndexSpec{.algorithm = "diskann",
                                        .metric = "euclidean",
                                        .dtype = "uint8"});
  other.build(narrow);
  EXPECT_THROW(service.swap_index(std::move(other)), std::invalid_argument);
  EXPECT_EQ(service.stats().swaps, 0u);
}

// Hot swap under load: submissions never pause, every future is
// fulfilled, and once the swap is in, new requests are answered by the
// replacement index — exactly as a direct search against it.
TEST(SearchService, SwapIndexUnderLoadLosesNothing) {
  const auto& ds = dataset();
  QueryParams qp{.beam_width = 32, .k = 10};

  auto ds_b = make_bigann_like(kN, kNumQueries, /*seed=*/21);
  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "uint8",
                 .params = DiskANNParams{.degree_bound = 24, .beam_width = 48}};
  AnyIndex b = make_index(spec);
  b.build(ds_b.base);
  auto expected_b = b.batch_search(ds.queries, qp);  // before the service runs

  SearchService<std::uint8_t> service(make_built_index(),
                                      {.max_batch = 16});
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load()) {
        auto f = service.submit(
            std::span<const std::uint8_t>(
                ds.queries[static_cast<PointId>(i % kNumQueries)],
                service.dims()),
            qp);
        // Either index may answer around the swap; both return exactly k.
        EXPECT_EQ(f.get().size(), 10u);
        answered.fetch_add(1);
        i += 3;
      }
    });
  }
  while (answered.load() < 20) std::this_thread::yield();
  service.swap_index(std::move(b));
  while (answered.load() < 60) std::this_thread::yield();
  stop.store(true);
  for (auto& t : submitters) t.join();

  // Post-swap requests are served by the replacement, bit-identically.
  auto futures = service.submit_batch(ds.queries, qp);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected_b[i]) << "query " << i;
  }
  service.shutdown();
  auto stats = service.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
}

// Non-finite float queries are refused synchronously at every submit
// overload with ann::invalid_input, like the dims check: they never reach
// a batch, so nothing is queued, counted or completed for them.
TEST(SearchService, NonFiniteFloatQueriesRejectedAtSubmit) {
  constexpr std::size_t kDims = 8;
  auto index = make_index(
      {.algorithm = "diskann", .metric = "euclidean", .dtype = "float"});
  index.build(make_uniform<float>(300, kDims, -1, 1, 5));
  index.attach_quantized({.kind = QuantKind::kInt8});
  const QueryParams qp{.beam_width = 16, .k = 5};
  const auto predicate = FilterSpec::where([](PointId) { return true; });
  SearchService<float> service(std::move(index), {});

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    PointSet<float> rows = make_uniform<float>(3, kDims, -1, 1, 6);
    rows.mutable_point(1)[3] = bad;
    const std::span<const float> query(rows[1], kDims);
    auto never = [](std::vector<Neighbor>, std::exception_ptr) {
      ADD_FAILURE() << "callback ran for a rejected request";
    };
    EXPECT_THROW(service.submit(query, qp), invalid_input);
    EXPECT_THROW(service.submit(rows[1], qp), invalid_input);
    EXPECT_THROW(service.submit(query, qp, SubmitOptions{.deadline_ms = 5}),
                 invalid_input);
    EXPECT_THROW(service.submit(query, qp, never), invalid_input);
    EXPECT_THROW(service.submit(query, predicate, qp), invalid_input);
    EXPECT_THROW(service.submit(query, predicate, qp, never), invalid_input);
    EXPECT_THROW(service.submit_quantized(query, qp), invalid_input);
    EXPECT_THROW(service.submit_quantized(query, qp, never), invalid_input);
    // All-or-nothing: one bad row refuses the whole batch.
    EXPECT_THROW(service.submit_batch(rows, qp), invalid_input);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.batches, 0u);
  // Finite traffic is unaffected.
  PointSet<float> ok = make_uniform<float>(1, kDims, -1, 1, 7);
  EXPECT_EQ(service.submit(ok[0], qp).get().size(), 5u);
}

// The same synchronous refusal for NaN or +-inf in the float fields of the
// request's QueryParams, on an integer index too.
TEST(SearchService, NonFiniteQueryParamsRejectedAtSubmit) {
  const auto& ds = dataset();
  AnyIndex index = make_built_index();
  index.attach_quantized({.kind = QuantKind::kInt8});
  const auto predicate = FilterSpec::where([](PointId) { return true; });
  SearchService<std::uint8_t> service(std::move(index), {});
  const std::span<const std::uint8_t> query(ds.queries[0],
                                            ds.queries.dims());
  auto never = [](std::vector<Neighbor>, std::exception_ptr) {
    ADD_FAILURE() << "callback ran for a rejected request";
  };

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    for (const bool bad_epsilon : {true, false}) {
      SCOPED_TRACE(bad_epsilon ? "epsilon" : "filter_beam_factor");
      QueryParams qp{.beam_width = 16, .k = 5};
      (bad_epsilon ? qp.epsilon : qp.filter_beam_factor) = bad;
      EXPECT_THROW(service.submit(query, qp), invalid_input);
      EXPECT_THROW(service.submit(query, qp, never), invalid_input);
      EXPECT_THROW(service.submit(query, predicate, qp), invalid_input);
      EXPECT_THROW(service.submit_quantized(query, qp), invalid_input);
      EXPECT_THROW(service.submit_batch(ds.queries, qp), invalid_input);
    }
  }
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.submit(query, {.beam_width = 16, .k = 5}).get().size(),
            5u);
}

// The serve() convenience factory wires the same machinery.
TEST(SearchService, ServeFactoryRoundTrip) {
  const auto& ds = dataset();
  auto service = serve<std::uint8_t>(make_built_index(), {.max_batch = 4});
  auto hits = service->submit(ds.queries[0], {.beam_width = 32, .k = 10}).get();
  EXPECT_EQ(hits.size(), 10u);
  service->shutdown();
}

}  // namespace
}  // namespace ann
