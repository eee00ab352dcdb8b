// ann::SearchService — the serving layer: an asynchronous batching front
// end over AnyIndex::batch_search (see docs/SERVING.md for the operator
// guide).
//
//   ann::AnyIndex index = ann::make_index(spec);
//   index.build(points);
//   ann::SearchService<std::uint8_t> service(std::move(index),
//                                            {.max_batch = 64});
//   auto future = service.submit(query, {.beam_width = 40, .k = 10});
//   auto hits = future.get();          // std::vector<Neighbor>
//   service.shutdown();                // drain + join (also in ~SearchService)
//
// Design:
//   * Submission is a lock-light MPMC ring (serve/mpmc_queue.h) with exact
//     admission control: an atomic credit counter bounds the queue at
//     ServeParams::queue_capacity, and when it is full submit() either
//     blocks (kBlock) or throws ann::queue_full (kReject).
//   * A single dispatcher thread batches work-conservingly: it never holds
//     a request back to wait for company. When idle it sleeps until a
//     request is queued, then takes everything already queued (up to
//     max_batch) and executes it at once. Requests that arrive while a
//     batch executes coalesce into the next one, so batches grow with load
//     on their own: one request at a trickle, max_batch under saturation.
//   * Execution groups a flushed batch by identical QueryParams (per-request
//     k / beam / epsilon / visit_limit overrides) and runs one
//     AnyIndex::batch_search per group, so every request is answered with
//     exactly the parameters it asked for.
//   * Requests may carry a per-request ann::FilterSpec (the filtered submit
//     overloads). Filtered requests group with requests carrying the SAME
//     label clause (mode + label ids) and dispatch through one
//     AnyIndex::filtered_batch_search; mixed filtered/unfiltered flushes
//     simply split into groups. Specs carrying the std::function escape
//     hatch never group (a callable has no equality), so each dispatches
//     alone — correct, just unbatched. stats() reports the filtered request
//     count and the mean estimated selectivity of dispatched filters.
//   * Quantized traffic (the submit_quantized overloads) rides the same
//     micro-batcher: quantized requests group only with other quantized
//     requests carrying identical QueryParams (rerank_count included) and
//     dispatch through one AnyIndex::quantized_batch_search. The served
//     index must have a code store attached (AnyIndex::attach_quantized) —
//     checked at submit time, not as a failed future at dispatch time.
//     stats() reports the quantized request count.
//   * Completion is per-request: submit() returns a std::future, or the
//     callback overload invokes the callback on the dispatcher thread
//     (callbacks must be fast and must not throw).
//   * Requests may carry a deadline (SubmitOptions::deadline_ms): one that
//     is still queued when its deadline passes is failed with
//     ann::deadline_exceeded at the next flush instead of being searched —
//     under overload, work the client has given up on is shed, not served.
//   * Optional overload degradation (ServeParams::degrade, OFF by default):
//     when the queue depth crosses the high watermark, dispatched requests
//     run with beam_width stepped down (bounded below by min_beam), trading
//     recall for drain rate. Degraded results are OUTSIDE the determinism
//     contract — identical traffic may see different pressure — which is
//     why the feature must be opted into; with it off, served results
//     remain element-wise identical to direct batch_search.
//   * swap_index() replaces the served index with zero drain: submissions
//     and in-flight batches keep using the snapshot they started with
//     (epoch-style shared_ptr refcount), new batches pick up the new index,
//     and the old one is destroyed when its last batch completes. No
//     accepted future is ever dropped by a swap.
//   * shutdown() stops admission (later submits throw std::logic_error),
//     drains every request already accepted, then joins the dispatcher.
//     Every future obtained from a successful submit() is fulfilled.
//
// Determinism boundary (engineered, tested in tests/test_serving.cpp):
// arrival order — and therefore batch composition — is nondeterministic by
// design, but the per-query engine below is deterministic and shares no
// mutable state across queries, so each request's RESULT is element-wise
// identical to a direct AnyIndex::batch_search with the same parameters, no
// matter how the micro-batcher sliced the traffic.
//
// Scheduler interplay: the dispatcher drives parlay parallel regions (the
// batch_search fan-out), and the scheduler allows one external driver at a
// time. Multiple live services serialize their batch executions on an
// internal mutex, but application threads must not drive parallel regions
// of their own while a service is running. Client threads calling submit()
// never touch the scheduler, so any number of them is fine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/any_index.h"
#include "core/error.h"
#include "core/stats.h"
#include "serve/mpmc_queue.h"

namespace ann {

// queue_full and deadline_exceeded live in core/error.h with the rest of
// the error taxonomy; submit() throws the former under kReject saturation,
// and the latter is delivered through the future/callback of a request
// whose deadline passed while it sat in the queue.

enum class BackpressurePolicy {
  kBlock,   // submit() waits for queue space: throttles producers to the
            // service's throughput (closed-loop clients)
  kReject,  // submit() throws ann::queue_full immediately: sheds load so
            // producer latency stays bounded (open-loop clients)
};

// Overload-degradation policy: OFF by default (queue_high_watermark == 0).
// When enabled, a flush that finds the queue depth at or above k times the
// watermark dispatches its groups with beam_width reduced by k * beam_step,
// never below min_beam, the request's k, or the request's own beam
// (whichever bound binds): degradation trades recall, never answers — a
// degraded request still receives its full k results. Degraded
// results trade recall for drain rate and sit OUTSIDE the determinism
// contract — the same traffic replayed under different pressure may answer
// differently — so enabling it is an explicit operator decision.
struct DegradeParams {
  std::size_t queue_high_watermark = 0;  // 0 = degradation disabled
  std::uint32_t beam_step = 8;           // beam reduction per pressure level
  std::uint32_t min_beam = 8;            // hard floor for the reduced beam
};

struct ServeParams {
  // Most requests one dispatch takes from the queue. The dispatcher never
  // waits for a batch to fill; this only caps how much of a backlog one
  // batch_search call absorbs.
  std::size_t max_batch = 64;
  // Exact bound on queued-but-not-yet-dispatched requests.
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  DegradeParams degrade;
};

// Per-request submission options (beyond the search parameters themselves).
struct SubmitOptions {
  // Fail the request with ann::deadline_exceeded if it is still waiting in
  // the submission queue this many milliseconds after admission. 0 = no
  // deadline. The check runs at flush time: a request that entered a batch
  // before expiring is searched and answered normally.
  double deadline_ms = 0;
};

// Snapshot of a service's counters, same idiom as IndexStats: the headline
// figures as named fields plus everything as key/value details.
struct ServeStats {
  std::uint64_t submitted = 0;   // accepted into the queue
  std::uint64_t completed = 0;   // futures fulfilled / callbacks run
  std::uint64_t rejected = 0;    // thrown queue_full (kReject only)
  std::uint64_t batches = 0;     // micro-batcher flushes
  std::uint64_t dispatches = 0;  // batch_search calls (>= batches: one per
                                 // distinct QueryParams group in a flush)
  double uptime_s = 0;
  double qps = 0;                  // completed / uptime
  double mean_batch_occupancy = 0; // completed / batches
  double mean_latency_ms = 0;      // submit -> completion, per request
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  std::uint64_t distance_comps = 0;  // summed over dispatched batches
  std::size_t queue_depth = 0;       // instantaneous
  std::uint64_t filtered = 0;        // requests dispatched with an active filter
  std::uint64_t quantized = 0;       // requests dispatched via quantized_search
  std::uint64_t expired = 0;         // failed with deadline_exceeded in queue
  std::uint64_t degraded = 0;        // served with a pressure-reduced beam
  std::uint64_t swaps = 0;           // swap_index() calls
  // Mean estimated selectivity over dispatched filtered requests (0 when
  // none ran): how much of the index the average filter admits.
  double mean_filter_selectivity = 0;

  std::vector<std::pair<std::string, double>> details;

  double detail(const std::string& key, double fallback = 0.0) const {
    return kv_get(details, key, fallback);
  }
};

namespace internal {
// One external thread may drive parlay parallel regions at a time (see
// src/parlay/scheduler.h); every service's dispatcher funnels its
// batch_search calls through this mutex so multiple live services coexist.
inline std::mutex& serving_dispatch_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace internal

template <typename T>
class SearchService {
 public:
  // Invoked on the dispatcher thread. Exactly one of (result, error) is
  // meaningful: error is nullptr on success. Callbacks must be fast (they
  // sit on the dispatch path) and must not throw.
  using Callback =
      std::function<void(std::vector<Neighbor> result, std::exception_ptr error)>;

  // Takes ownership of a BUILT index (serving an empty index is rejected
  // with std::invalid_argument, as is a dtype mismatch between T and the
  // index, a zero queue_capacity, or a zero max_batch).
  explicit SearchService(AnyIndex index, const ServeParams& params = {})
      : index_(std::make_shared<const AnyIndex>(std::move(index))),
        params_(validated(params)),
        queue_(params.queue_capacity) {
    const IndexStats s = validated_index_stats(*index_);
    dims_ = s.dims;
    num_points_.store(s.num_points, std::memory_order_relaxed);
    start_ = std::chrono::steady_clock::now();
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }

  ~SearchService() { shutdown(); }

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  // The CURRENT index snapshot. The shared_ptr keeps it alive across a
  // concurrent swap_index(); the reference-returning index() remains for
  // callers that do not swap.
  std::shared_ptr<const AnyIndex> index_snapshot() const {
    std::lock_guard<std::mutex> lock(index_mutex_);
    return index_;
  }
  const AnyIndex& index() const { return *index_snapshot(); }
  const ServeParams& params() const { return params_; }
  std::size_t dims() const { return dims_; }

  // Replace the served index with ZERO drain: no pause in admission, no
  // barrier on in-flight work. Batches already executing (and requests
  // already grouped with a snapshot) finish on the index they started
  // with — the shared_ptr refcount is the epoch — and every flush after
  // the swap picks up the new index. The replacement must be built,
  // non-empty, hold this service's dtype, and serve the SAME
  // dimensionality (queued queries were validated against dims()).
  // Requests admitted before the swap may be answered by either index;
  // each is answered completely by exactly one.
  void swap_index(AnyIndex replacement) {
    auto next = std::make_shared<const AnyIndex>(std::move(replacement));
    const IndexStats s = validated_index_stats(*next);
    if (s.dims != dims_) {
      throw std::invalid_argument(
          "SearchService::swap_index: replacement index holds dims " +
          std::to_string(s.dims) + " but the service serves dims " +
          std::to_string(dims_));
    }
    num_points_.store(s.num_points, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(index_mutex_);
      index_.swap(next);
    }
    swaps_.fetch_add(1, std::memory_order_relaxed);
    // `next` (the OLD index) dies here unless an in-flight batch still
    // holds its snapshot, in which case the last batch to finish frees it.
  }

  // --- submission ------------------------------------------------------------

  // The query span must be exactly dims() long (std::invalid_argument
  // otherwise); its contents are copied, so the caller's buffer may be
  // reused the moment submit returns. Throws std::logic_error after
  // shutdown and ann::queue_full when saturated under kReject.
  std::future<std::vector<Neighbor>> submit(std::span<const T> query,
                                            const QueryParams& params = {}) {
    return submit_one(make_request(query, params));
  }

  // Deadline-carrying submission: if the request is still queued
  // opts.deadline_ms after admission, its future is failed with
  // ann::deadline_exceeded instead of being searched.
  std::future<std::vector<Neighbor>> submit(std::span<const T> query,
                                            const QueryParams& params,
                                            const SubmitOptions& opts) {
    return submit_one(make_request(query, params, {}, opts));
  }

  // Pointer convenience overload; reads dims() elements.
  std::future<std::vector<Neighbor>> submit(const T* query,
                                            const QueryParams& params = {}) {
    return submit(std::span<const T>(query, dims_), params);
  }

  // Callback completion path (no future allocated).
  void submit(std::span<const T> query, const QueryParams& params,
              Callback callback) {
    auto req = make_request(query, params);
    req->callback = std::move(callback);
    enqueue({&req, 1});
  }

  // --- filtered submission ---------------------------------------------------

  // Per-request filtered search: the request is answered element-wise
  // identically to AnyIndex::filtered_search(query, filter, params). A spec
  // that references labels is rejected here (std::invalid_argument) when
  // the served index has no LabelStore attached — at submit time, not as a
  // failed future at dispatch time.
  std::future<std::vector<Neighbor>> submit(std::span<const T> query,
                                            const FilterSpec& filter,
                                            const QueryParams& params = {},
                                            const SubmitOptions& opts = {}) {
    return submit_one(make_request(query, params, filter, opts));
  }

  std::future<std::vector<Neighbor>> submit(const T* query,
                                            const FilterSpec& filter,
                                            const QueryParams& params = {}) {
    return submit(std::span<const T>(query, dims_), filter, params);
  }

  // Filtered callback completion path.
  void submit(std::span<const T> query, const FilterSpec& filter,
              const QueryParams& params, Callback callback) {
    auto req = make_request(query, params, filter);
    req->callback = std::move(callback);
    enqueue({&req, 1});
  }

  // --- quantized submission --------------------------------------------------

  // Per-request quantized search: answered element-wise identically to
  // AnyIndex::quantized_search(query, params) — compressed-domain traversal
  // plus exact rerank of the top params.rerank_count candidates. Rejected
  // with std::invalid_argument at submit time when the served index has no
  // code store attached (AnyIndex::attach_quantized / a loaded container
  // carrying a quantized payload).
  std::future<std::vector<Neighbor>> submit_quantized(
      std::span<const T> query, const QueryParams& params = {},
      const SubmitOptions& opts = {}) {
    auto req = make_request(query, params, {}, opts);
    require_quantized();
    req->quantized = true;
    return submit_one(std::move(req));
  }

  std::future<std::vector<Neighbor>> submit_quantized(
      const T* query, const QueryParams& params = {}) {
    return submit_quantized(std::span<const T>(query, dims_), params);
  }

  // Quantized callback completion path.
  void submit_quantized(std::span<const T> query, const QueryParams& params,
                        Callback callback) {
    auto req = make_request(query, params);
    require_quantized();
    req->quantized = true;
    req->callback = std::move(callback);
    enqueue({&req, 1});
  }

  // All-or-nothing batch submission: either every row is admitted (futures
  // returned in row order) or none is — a kReject overflow throws
  // queue_full without enqueueing anything, so no future is ever lost.
  std::vector<std::future<std::vector<Neighbor>>> submit_batch(
      const PointSet<T>& queries, const QueryParams& params = {}) {
    return submit_batch(queries, FilterSpec{}, params);
  }

  // Filtered batch submission: one FilterSpec applied to every row, same
  // all-or-nothing admission as the unfiltered overload.
  std::vector<std::future<std::vector<Neighbor>>> submit_batch(
      const PointSet<T>& queries, const FilterSpec& filter,
      const QueryParams& params = {}) {
    if (queries.dims() != dims_) {
      throw std::invalid_argument(
          "SearchService::submit_batch: query batch has dims " +
          std::to_string(queries.dims()) + " but the index holds dims " +
          std::to_string(dims_));
    }
    const std::size_t n = queries.size();
    std::vector<std::unique_ptr<Request>> requests;
    std::vector<std::future<std::vector<Neighbor>>> futures;
    requests.reserve(n);
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto req = make_request(
          std::span<const T>(queries[static_cast<PointId>(i)], dims_), params,
          filter);
      futures.push_back(req->promise.get_future());
      requests.push_back(std::move(req));
    }
    enqueue(requests);
    return futures;
  }

  // --- lifecycle -------------------------------------------------------------

  // Stop admission, drain every accepted request, join the dispatcher.
  // Idempotent and safe to call concurrently; later submits throw
  // std::logic_error. Every future from a successful submit is fulfilled
  // before shutdown returns.
  void shutdown() {
    {
      std::unique_lock<std::shared_mutex> lock(lifecycle_mutex_);
      accepting_ = false;
    }
    stop_.store(true, std::memory_order_release);
    { std::lock_guard<std::mutex> wake_lock(wake_mutex_); }
    wake_cv_.notify_all();
    space_cv_.notify_all();
    std::lock_guard<std::mutex> join_lock(join_mutex_);
    if (dispatcher_.joinable()) dispatcher_.join();
  }

  // --- monitoring ------------------------------------------------------------

  ServeStats stats() const {
    ServeStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.dispatches = dispatches_.load(std::memory_order_relaxed);
    s.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_).count();
    s.qps = s.uptime_s > 0
                ? static_cast<double>(s.completed) / s.uptime_s
                : 0.0;
    s.mean_batch_occupancy =
        s.batches > 0
            ? static_cast<double>(s.completed) / static_cast<double>(s.batches)
            : 0.0;
    s.mean_latency_ms = latency_.mean_ms();
    s.p50_ms = latency_.percentile_ms(50);
    s.p95_ms = latency_.percentile_ms(95);
    s.p99_ms = latency_.percentile_ms(99);
    s.distance_comps = distance_comps_.load(std::memory_order_relaxed);
    s.queue_depth = queued_.load(std::memory_order_relaxed);
    s.filtered = filtered_.load(std::memory_order_relaxed);
    s.quantized = quantized_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.swaps = swaps_.load(std::memory_order_relaxed);
    // Selectivity is accumulated in integer micro-units so the hot path
    // needs no atomic<double> RMW (fetch_add on doubles is C++20-optional).
    s.mean_filter_selectivity =
        s.filtered > 0
            ? static_cast<double>(selectivity_micro_.load(
                  std::memory_order_relaxed)) /
                  (1e6 * static_cast<double>(s.filtered))
            : 0.0;
    s.details = {
        {"submitted", static_cast<double>(s.submitted)},
        {"completed", static_cast<double>(s.completed)},
        {"rejected", static_cast<double>(s.rejected)},
        {"batches", static_cast<double>(s.batches)},
        {"dispatches", static_cast<double>(s.dispatches)},
        {"uptime_s", s.uptime_s},
        {"qps", s.qps},
        {"mean_batch_occupancy", s.mean_batch_occupancy},
        {"mean_latency_ms", s.mean_latency_ms},
        {"p50_ms", s.p50_ms},
        {"p95_ms", s.p95_ms},
        {"p99_ms", s.p99_ms},
        {"distance_comps", static_cast<double>(s.distance_comps)},
        {"queue_depth", static_cast<double>(s.queue_depth)},
        {"filtered", static_cast<double>(s.filtered)},
        {"quantized", static_cast<double>(s.quantized)},
        {"expired", static_cast<double>(s.expired)},
        {"degraded", static_cast<double>(s.degraded)},
        {"swaps", static_cast<double>(s.swaps)},
        {"mean_filter_selectivity", s.mean_filter_selectivity},
    };
    return s;
  }

 private:
  struct Request {
    std::vector<T> query;
    QueryParams params;
    FilterSpec filter;       // inactive for plain submits
    bool quantized = false;  // dispatch via quantized_batch_search
    double deadline_ms = 0;  // 0 = no deadline
    std::promise<std::vector<Neighbor>> promise;
    Callback callback;  // empty => promise completion path
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // set iff deadline_ms > 0
  };

  // Shared by the constructor and swap_index: the index must be a valid
  // handle, hold this service's dtype, and be built and non-empty.
  static IndexStats validated_index_stats(const AnyIndex& index) {
    if (!index.valid()) {
      throw std::invalid_argument(
          "SearchService: index handle is empty (use ann::make_index)");
    }
    if (index.spec().dtype != dtype_name<T>()) {
      throw std::invalid_argument(
          std::string("SearchService: index holds dtype '") +
          index.spec().dtype + "' but the service is instantiated for '" +
          dtype_name<T>() + "'");
    }
    IndexStats s = index.stats();
    if (s.num_points == 0 || s.dims == 0) {
      throw std::invalid_argument(
          "SearchService: index must be built and non-empty before serving");
    }
    return s;
  }

  void require_quantized() const {
    if (!index_snapshot()->has_quantized()) {
      throw std::invalid_argument(
          "SearchService::submit_quantized: the served index has no code "
          "store attached (AnyIndex::attach_quantized)");
    }
  }

  static const ServeParams& validated(const ServeParams& params) {
    if (params.max_batch == 0) {
      throw std::invalid_argument("ServeParams: max_batch must be positive");
    }
    if (params.queue_capacity == 0) {
      throw std::invalid_argument(
          "ServeParams: queue_capacity must be positive");
    }
    if (params.degrade.queue_high_watermark != 0 &&
        (params.degrade.beam_step == 0 || params.degrade.min_beam == 0)) {
      throw std::invalid_argument(
          "ServeParams: degrade.beam_step and degrade.min_beam must be "
          "positive when degradation is enabled");
    }
    if (params.degrade.queue_high_watermark > params.queue_capacity) {
      throw std::invalid_argument(
          "ServeParams: degrade.queue_high_watermark exceeds queue_capacity "
          "(the watermark could never trip)");
    }
    return params;
  }

  std::unique_ptr<Request> make_request(std::span<const T> query,
                                        const QueryParams& params,
                                        const FilterSpec& filter = {},
                                        const SubmitOptions& opts = {}) {
    if (query.size() != dims_) {
      throw std::invalid_argument(
          "SearchService::submit: query has " + std::to_string(query.size()) +
          " elements but the index holds dims " + std::to_string(dims_));
    }
    internal::require_finite(query, "SearchService::submit");
    internal::require_finite(params, "SearchService::submit");
    if (filter.uses_labels() && !index_snapshot()->has_labels()) {
      throw std::invalid_argument(
          "SearchService::submit: FilterSpec references labels but the "
          "served index has no LabelStore attached");
    }
    if (opts.deadline_ms < 0) {
      throw std::invalid_argument(
          "SubmitOptions: deadline_ms must be non-negative");
    }
    auto req = std::make_unique<Request>();
    req->query.assign(query.begin(), query.end());
    req->params = params;
    req->filter = filter;
    req->deadline_ms = opts.deadline_ms;
    return req;
  }

  // The future is taken before the push: the dispatcher may complete the
  // request the moment it is queued.
  std::future<std::vector<Neighbor>> submit_one(std::unique_ptr<Request> req) {
    auto future = req->promise.get_future();
    enqueue({&req, 1});
    return future;
  }

  // Admission + push under one shared lifecycle lock: a request that gets
  // in happened-before any shutdown flip, so the dispatcher's post-stop
  // drain is guaranteed to see it. All-or-nothing for a multi-request span.
  // The kBlock wait loop drops the lock between attempts (a blocked
  // producer must never stall shutdown) and uses the scheduler's timed-wait
  // idiom, tolerating missed wakeups.
  void enqueue(std::span<std::unique_ptr<Request>> requests) {
    if (requests.empty()) return;
    const std::size_t n = requests.size();
    if (n > params_.queue_capacity) {
      throw std::invalid_argument(
          "SearchService::submit_batch: batch of " + std::to_string(n) +
          " exceeds queue_capacity " + std::to_string(params_.queue_capacity));
    }
    for (;;) {
      {
        std::shared_lock<std::shared_mutex> lock(lifecycle_mutex_);
        if (!accepting_) {
          throw std::logic_error(
              "SearchService::submit after shutdown");
        }
        std::size_t cur = queued_.load(std::memory_order_relaxed);
        bool admitted = false;
        while (cur + n <= params_.queue_capacity) {
          if (queued_.compare_exchange_weak(cur, cur + n,
                                            std::memory_order_relaxed)) {
            admitted = true;
            break;
          }
        }
        if (admitted) {
          auto now = std::chrono::steady_clock::now();
          for (std::unique_ptr<Request>& req : requests) {
            req->enqueued = now;
            if (req->deadline_ms > 0) {
              req->deadline =
                  now + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                req->deadline_ms));
            }
            // Admission reserved a slot, so a push only fails transiently
            // (a concurrent pop mid-flight in the target cell).
            while (!queue_.try_push(std::move(req))) std::this_thread::yield();
          }
          submitted_.fetch_add(n, std::memory_order_relaxed);
          // Lock-then-notify: acquiring wake_mutex_ serializes with the
          // dispatcher's own queued_-check-then-wait (done under the same
          // mutex), so its idle wait can be unbounded — no polling — with
          // no lost-wakeup window.
          { std::lock_guard<std::mutex> wake_lock(wake_mutex_); }
          wake_cv_.notify_one();
          return;
        }
        if (params_.backpressure == BackpressurePolicy::kReject) {
          rejected_.fetch_add(n, std::memory_order_relaxed);
          throw queue_full(
              "SearchService: submission queue full (capacity " +
              std::to_string(params_.queue_capacity) + ")");
        }
      }
      std::unique_lock<std::mutex> wait_lock(space_mutex_);
      space_cv_.wait_for(wait_lock, std::chrono::microseconds(200));
    }
  }

  bool pop_one(std::unique_ptr<Request>& out) {
    if (!queue_.try_pop(out)) return false;
    queued_.fetch_sub(1, std::memory_order_relaxed);
    if (params_.backpressure == BackpressurePolicy::kBlock) {
      space_cv_.notify_all();
    }
    return true;
  }

  // Work-conserving: the only wait is the idle one. Once a request is
  // queued, everything already behind it (up to max_batch) is taken without
  // waiting and executed; whatever arrives meanwhile forms the next batch.
  void dispatch_loop() {
    std::vector<std::unique_ptr<Request>> batch;
    batch.reserve(params_.max_batch);
    for (;;) {
      // The idle wait is unbounded, not polled: producers and shutdown()
      // acquire wake_mutex_ before notifying, and the queued_/stop_ check
      // happens under it, so a wakeup can never be lost. A nonzero
      // queued_ with a failing pop means a push is mid-flight — loop.
      std::unique_ptr<Request> next;
      while (!pop_one(next)) {
        if (stop_.load(std::memory_order_acquire)) {
          // One more look now that the stop flag (and so every push that
          // preceded it) is visible: the post-shutdown drain guarantee.
          if (pop_one(next)) break;
          return;
        }
        std::unique_lock<std::mutex> lock(wake_mutex_);
        if (queued_.load(std::memory_order_relaxed) == 0 &&
            !stop_.load(std::memory_order_acquire)) {
          wake_cv_.wait(lock);
        }
      }
      do {
        batch.push_back(std::move(next));
      } while (batch.size() < params_.max_batch && pop_one(next));
      execute_batch(batch);
      batch.clear();
    }
  }

  static bool same_params(const QueryParams& a, const QueryParams& b) {
    return a.beam_width == b.beam_width && a.k == b.k &&
           a.epsilon == b.epsilon && a.visit_limit == b.visit_limit &&
           a.filter_beam_factor == b.filter_beam_factor &&
           a.rerank_count == b.rerank_count;
  }

  // Two requests may share a filtered_batch_search call only when their
  // filters are provably identical: same label clause and NO std::function
  // escape hatch (callables have no equality, so a predicate-carrying spec
  // never groups — it dispatches alone). Two inactive filters compare
  // equal, so plain requests keep grouping as before.
  static bool same_filter(const FilterSpec& a, const FilterSpec& b) {
    if (a.predicate || b.predicate) return false;
    return a.mode == b.mode && a.labels == b.labels;
  }

  // Fail every request whose deadline passed while it waited in the queue
  // (ann::deadline_exceeded through its normal completion path) and compact
  // the survivors in place. Expiry is judged once per flush, against one
  // clock sample, so requests in the same batch are judged consistently.
  void expire_overdue(std::vector<std::unique_ptr<Request>>& batch) {
    const auto now = std::chrono::steady_clock::now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& req = *batch[i];
      if (req.deadline_ms > 0 && now >= req.deadline) {
        expired_.fetch_add(1, std::memory_order_relaxed);
        complete(req, {},
                 std::make_exception_ptr(deadline_exceeded(
                     "SearchService: request expired in queue after " +
                     std::to_string(req.deadline_ms) + " ms")));
        continue;
      }
      batch[kept++] = std::move(batch[i]);
    }
    batch.resize(kept);
  }

  // Pressure level for overload degradation: how many times the current
  // queue depth clears the high watermark (0 = policy off or no pressure).
  std::uint32_t pressure_level() const {
    const std::size_t watermark = params_.degrade.queue_high_watermark;
    if (watermark == 0) return 0;
    return static_cast<std::uint32_t>(
        queued_.load(std::memory_order_relaxed) / watermark);
  }

  void execute_batch(std::vector<std::unique_ptr<Request>>& batch) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    expire_overdue(batch);
    if (batch.empty()) return;
    // One pressure sample per flush: every group in this batch degrades (or
    // not) together, and grouping stays keyed on the REQUESTED params.
    const std::uint32_t pressure = pressure_level();
    std::vector<char> grouped(batch.size(), 0);
    std::vector<std::size_t> group;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (grouped[i]) continue;
      group.clear();
      group.push_back(i);
      grouped[i] = 1;
      for (std::size_t j = i + 1; j < batch.size(); ++j) {
        if (!grouped[j] &&
            batch[i]->quantized == batch[j]->quantized &&
            same_params(batch[i]->params, batch[j]->params) &&
            same_filter(batch[i]->filter, batch[j]->filter)) {
          group.push_back(j);
          grouped[j] = 1;
        }
      }
      execute_group(batch, group, pressure);
    }
  }

  // The effective parameters for a group under `pressure` levels of
  // overload: beam_width stepped down by pressure * beam_step, floored at
  // min_beam (or the requested beam, if it was already smaller). The floor
  // never drops below the requested k — a beam narrower than k would
  // shrink the RESULT SET, and degradation trades recall, not answers.
  QueryParams degraded_params(const QueryParams& requested,
                              std::uint32_t pressure) const {
    if (pressure == 0) return requested;
    const std::uint64_t cut =
        static_cast<std::uint64_t>(pressure) * params_.degrade.beam_step;
    const std::uint32_t floor = std::min<std::uint32_t>(
        requested.beam_width,
        std::max<std::uint32_t>(params_.degrade.min_beam, requested.k));
    QueryParams p = requested;
    p.beam_width = cut >= requested.beam_width - floor
                       ? floor
                       : requested.beam_width -
                             static_cast<std::uint32_t>(cut);
    return p;
  }

  void execute_group(std::vector<std::unique_ptr<Request>>& batch,
                     const std::vector<std::size_t>& group,
                     std::uint32_t pressure) {
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    // The group's epoch: this snapshot pins the index for the whole
    // dispatch, so a concurrent swap_index() never invalidates it and the
    // old index survives exactly until its last in-flight group completes.
    const std::shared_ptr<const AnyIndex> index = index_snapshot();
    PointSet<T> queries(group.size(), dims_);
    for (std::size_t g = 0; g < group.size(); ++g) {
      queries.set_point(static_cast<PointId>(g), batch[group[g]]->query.data());
    }
    const QueryParams effective =
        degraded_params(batch[group[0]]->params, pressure);
    if (effective.beam_width != batch[group[0]]->params.beam_width) {
      degraded_.fetch_add(group.size(), std::memory_order_relaxed);
    }
    std::vector<std::vector<Neighbor>> results;
    std::exception_ptr error;
    const FilterSpec& filter = batch[group[0]]->filter;
    const std::uint64_t comps_before = DistanceCounter::total();
    const bool quantized = batch[group[0]]->quantized;
    try {
      std::lock_guard<std::mutex> lock(internal::serving_dispatch_mutex());
      if (quantized) {
        results =
            index->template quantized_batch_search<T>(queries, effective);
      } else if (filter.active()) {
        results = index->template filtered_batch_search<T>(queries, filter,
                                                           effective);
      } else {
        results = index->template batch_search<T>(queries, effective);
      }
    } catch (...) {
      error = std::current_exception();
    }
    if (quantized) {
      quantized_.fetch_add(group.size(), std::memory_order_relaxed);
    }
    if (filter.active()) {
      filtered_.fetch_add(group.size(), std::memory_order_relaxed);
      // Counted even when the dispatch errored: the request was filtered
      // traffic either way. Selectivity comes from the same estimator the
      // search itself used to size its effort.
      BoundFilter bound(filter, index->labels_ptr().get());
      const double sel = bound.estimated_selectivity(
          num_points_.load(std::memory_order_relaxed));
      selectivity_micro_.fetch_add(
          static_cast<std::uint64_t>(sel * 1e6) * group.size(),
          std::memory_order_relaxed);
    }
    // Counter deltas, not a reset: the counter is process-global and a
    // DistanceCounterScope may be live around the whole serving run.
    const std::uint64_t comps_after = DistanceCounter::total();
    if (comps_after >= comps_before) {
      distance_comps_.fetch_add(comps_after - comps_before,
                                std::memory_order_relaxed);
    }
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t g = 0; g < group.size(); ++g) {
      Request& req = *batch[group[g]];
      latency_.record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                               req.enqueued)
              .count()));
      complete(req, error ? std::vector<Neighbor>{} : std::move(results[g]),
               error);
    }
  }

  // The one completion path: hands the request its result, or its error
  // when error is non-null, through its callback or its promise.
  void complete(Request& req, std::vector<Neighbor> result,
                std::exception_ptr error) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (req.callback) {
      try {
        req.callback(std::move(result), error);
      } catch (...) {
        // The contract is "callbacks must not throw"; swallowing here
        // keeps one misbehaving callback from killing the dispatcher (and
        // with it every other in-flight request).
      }
    } else if (error) {
      req.promise.set_exception(error);
    } else {
      req.promise.set_value(std::move(result));
    }
  }

  // The served index, published as an immutable snapshot: readers copy the
  // shared_ptr under index_mutex_ and hold their copy for the duration of a
  // dispatch, so swap_index() never waits for in-flight work (zero drain)
  // and never frees an index a batch is still using.
  std::shared_ptr<const AnyIndex> index_;
  mutable std::mutex index_mutex_;
  ServeParams params_;
  std::size_t dims_ = 0;
  std::atomic<std::size_t> num_points_{0};  // selectivity estimation; swaps
  std::chrono::steady_clock::time_point start_;

  BoundedMpmcQueue<std::unique_ptr<Request>> queue_;
  std::atomic<std::size_t> queued_{0};  // admission credits (exact bound)

  std::shared_mutex lifecycle_mutex_;  // submit: shared / shutdown: unique
  bool accepting_ = true;              // guarded by lifecycle_mutex_
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;              // dispatcher idle wait
  std::condition_variable wake_cv_;
  std::mutex space_mutex_;             // kBlock producers waiting for space
  std::condition_variable space_cv_;
  std::mutex join_mutex_;              // serializes concurrent shutdown()s
  std::thread dispatcher_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> distance_comps_{0};
  std::atomic<std::uint64_t> filtered_{0};
  std::atomic<std::uint64_t> quantized_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> selectivity_micro_{0};  // sum, micro-units
  LatencyHistogram latency_;
};

// Convenience entry mirroring make_index: take ownership of a built index,
// return a running service.
template <typename T>
std::unique_ptr<SearchService<T>> serve(AnyIndex index,
                                        const ServeParams& params = {}) {
  return std::make_unique<SearchService<T>>(std::move(index), params);
}

}  // namespace ann
