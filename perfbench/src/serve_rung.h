// One open-loop rung: a generator (the calling thread) submits requests
// through SearchService's callback path on a fixed schedule of `rate`
// requests per second, whatever the service is doing. Each request's latency
// runs from the time it was DUE to its callback, so a stalled generator or a
// full queue shows up in the latency of every request it delays. The
// generator's lateness is reported separately.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/ann.h"
#include "core/error.h"
#include "serve/search_service.h"

#include "bench.h"
#include "data.h"
#include "trace.h"

namespace perfbench {

// The traffic a rung cycles through: request i asks query (first + i) % n,
// carrying filters[...] (inactive for plain requests), and must be answered
// exactly as expected[...], the direct AnyIndex answer for that request.
template <typename T>
struct Traffic {
  ann::PointSet<T> queries;
  std::vector<ann::FilterSpec> filters;
  std::vector<std::vector<ann::Neighbor>> expected;
  ann::QueryParams params;
};

template <typename T>
Traffic<T> make_traffic(const ann::AnyIndex& index,
                        const ann::PointSet<T>& queries,
                        const ann::QueryParams& params) {
  Traffic<T> t;
  t.queries = queries;
  t.filters = request_filters(queries.size());
  t.params = params;
  t.expected = index.filtered_batch_search(
      t.queries, std::span<const ann::FilterSpec>(t.filters), params);
  return t;
}

struct RungResult {
  double rate = 0;
  std::uint64_t sent = 0;       // attempted submits
  std::uint64_t admitted = 0;   // submits the service accepted
  std::uint64_t completed = 0;  // callbacks with a result
  std::uint64_t failed = 0;     // refused, expired or errored
  std::uint64_t mismatched = 0; // results that differ from the direct call
  std::uint64_t batches = 0;    // service flushes during the rung
  std::uint64_t dispatches = 0; // batch_search calls during the rung
  std::size_t backlog_at_end = 0;
  bool drained = true;          // every admitted request completed
  bool aborted = false;         // sending stopped: backlog kept growing
  std::vector<double> latency_ms;  // due -> callback, in submission order
  std::vector<double> lag_ms;      // generator lateness per request

  double p50() const { return quantile(latency_ms, 0.50); }

  // The median over consecutive windows of kWindowS seconds of each
  // window's 99th percentile: one stall of the machine moves one window, not
  // the run's figure. A window holds at least 500 requests (five past its
  // 99th percentile) at every ladder rate.
  static constexpr double kWindowS = 0.5;
  double p99() const {
    const auto per = std::max<std::size_t>(
        500, static_cast<std::size_t>(rate * kWindowS));
    if (latency_ms.size() < 2 * per) return quantile(latency_ms, 0.99);
    std::vector<double> p99s;
    for (std::size_t lo = 0; lo + per <= latency_ms.size(); lo += per) {
      p99s.push_back(quantile(
          std::vector<double>(
              latency_ms.begin() + static_cast<std::ptrdiff_t>(lo),
              latency_ms.begin() + static_cast<std::ptrdiff_t>(lo + per)),
          0.99));
    }
    return median(p99s);
  }

  // Sustained: nothing failed or was aborted, p99 within the limit, and the
  // queue did not grow over the rung.
  bool sustained(double p99_limit_ms) const {
    const double backlog_limit = std::max(256.0, rate * p99_limit_ms / 1e3);
    return !aborted && failed == 0 && mismatched == 0 && drained &&
           !latency_ms.empty() && p99() <= p99_limit_ms &&
           static_cast<double>(backlog_at_end) <= backlog_limit;
  }
};

template <typename T>
RungResult run_rung(ann::SearchService<T>& svc, const Traffic<T>& traffic,
                    std::size_t first, double rate, double seconds,
                    std::size_t abort_backlog, const std::string& tag) {
  const char* submit_span = span_name("serve.submit." + tag);
  const char* request_span = span_name("serve.request." + tag);
  const auto total = static_cast<std::size_t>(rate * seconds);
  const std::size_t n = traffic.queries.size();
  const std::size_t dims = traffic.queries.dims();

  // Written by the dispatcher thread's callbacks, read after the drain.
  struct Shared {
    std::vector<std::int64_t> due;
    std::vector<std::int64_t> done;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> mismatched{0};
  };
  auto sh = std::make_shared<Shared>();
  sh->due.assign(total, 0);
  sh->done.assign(total, -1);

  RungResult r;
  r.rate = rate;
  r.lag_ms.reserve(total);
  const ann::ServeStats before = svc.stats();
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::uint64_t refused = 0;

  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    // Sleep until the request is due, then send everything that is due: at
    // high rates one wake-up sends a few requests (their lateness counts in
    // their latency) instead of the generator spinning on a core the
    // workers need.
    for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    if (r.admitted - sh->completed.load(std::memory_order_relaxed) -
            sh->failed.load(std::memory_order_relaxed) >
        abort_backlog) {
      r.aborted = true;
      break;
    }
    const std::size_t j = (first + i) % n;
    sh->due[i] = due;
    const std::vector<ann::Neighbor>* want = &traffic.expected[j];
    auto callback = [sh, i, want, request_span](
                        std::vector<ann::Neighbor> result,
                        std::exception_ptr error) {
      const std::int64_t t = now_ns();
      if (error) {
        sh->failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (result != *want) {
        sh->mismatched.fetch_add(1, std::memory_order_relaxed);
      }
      sh->done[i] = t;
      Tracer::get().record(request_span, sh->due[i], t,
                           static_cast<std::int64_t>(i));
      sh->completed.fetch_add(1, std::memory_order_release);
    };
    const std::int64_t start = now_ns();
    r.lag_ms.push_back(static_cast<double>(start - due) / 1e6);
    ++r.sent;
    try {
      Span span(submit_span, static_cast<std::int64_t>(i));
      const std::span<const T> q(traffic.queries[static_cast<ann::PointId>(j)],
                                 dims);
      const ann::FilterSpec& f = traffic.filters[j];
      if (f.active()) {
        svc.submit(q, f, traffic.params, std::move(callback));
      } else {
        svc.submit(q, traffic.params, std::move(callback));
      }
      ++r.admitted;
    } catch (const ann::queue_full&) {
      ++refused;
    }
  }
  r.backlog_at_end = static_cast<std::size_t>(
      r.admitted - sh->completed.load(std::memory_order_relaxed) -
      sh->failed.load(std::memory_order_relaxed));

  // Every admitted request must complete.
  const std::int64_t give_up = now_ns() + 30'000'000'000;
  while (sh->completed.load(std::memory_order_acquire) +
             sh->failed.load(std::memory_order_acquire) <
         r.admitted) {
    if (now_ns() > give_up) {
      r.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const ann::ServeStats after = svc.stats();

  r.completed = sh->completed.load(std::memory_order_acquire);
  r.failed = refused + sh->failed.load(std::memory_order_acquire);
  r.mismatched = sh->mismatched.load(std::memory_order_acquire);
  r.batches = after.batches - before.batches;
  r.dispatches = after.dispatches - before.dispatches;
  r.latency_ms.reserve(r.completed);
  for (std::size_t i = 0; i < r.sent; ++i) {
    if (sh->done[i] >= 0) {
      r.latency_ms.push_back(static_cast<double>(sh->done[i] - sh->due[i]) /
                             1e6);
    }
  }
  return r;
}

// Closed loop at saturation: the generator keeps `window` requests
// outstanding for `seconds` (submitting as completions free slots), so the
// service always has work queued. Appends completed requests per second of
// each quarter-second window to `rates`; counts submitted requests into
// `sent` and mismatched or failed ones into `bad`.
template <typename T>
void run_saturated(ann::SearchService<T>& svc, const Traffic<T>& traffic,
                   std::size_t window, double seconds,
                   std::vector<double>& rates, std::uint64_t& sent,
                   std::uint64_t& bad) {
  struct Shared {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> bad{0};
  };
  auto sh = std::make_shared<Shared>();
  const std::size_t n = traffic.queries.size();
  const std::size_t dims = traffic.queries.dims();
  constexpr std::int64_t kWindowNs = 250'000'000;
  std::uint64_t submitted = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_start = t0;
  std::uint64_t window_done = 0;
  for (std::int64_t now = t0; now < end; now = now_ns()) {
    if (now - window_start >= kWindowNs) {
      const std::uint64_t done = sh->completed.load(std::memory_order_relaxed);
      rates.push_back(static_cast<double>(done - window_done) /
                      seconds_between(window_start, now));
      window_start = now;
      window_done = done;
    }
    if (submitted - sh->completed.load(std::memory_order_relaxed) >= window) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const std::size_t j = submitted % n;
    const std::vector<ann::Neighbor>* want = &traffic.expected[j];
    auto callback = [sh, want](std::vector<ann::Neighbor> result,
                               std::exception_ptr error) {
      if (error || result != *want) {
        sh->bad.fetch_add(1, std::memory_order_relaxed);
      }
      sh->completed.fetch_add(1, std::memory_order_release);
    };
    const std::span<const T> q(traffic.queries[static_cast<ann::PointId>(j)],
                               dims);
    const ann::FilterSpec& f = traffic.filters[j];
    if (f.active()) {
      svc.submit(q, f, traffic.params, std::move(callback));
    } else {
      svc.submit(q, traffic.params, std::move(callback));
    }
    ++submitted;
  }
  while (sh->completed.load(std::memory_order_acquire) < submitted) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sent += submitted;
  bad += sh->bad.load(std::memory_order_acquire);
}

}  // namespace perfbench
