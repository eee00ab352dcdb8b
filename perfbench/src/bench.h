// Shared pieces of the benchmark: options, the result record printed as the
// last line of output, order statistics, peak memory, and the metric
// policies the per-layer probes count and record evaluations with.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "parlay/scheduler.h"


namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

template <typename F>
double time_s(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return seconds_between(t0, now_ns());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Peak resident set (VmHWM) of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

// What one run reports. Violations make the run exit non-zero.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  // Printed for people (every figure the workload measures, by name and
  // unit); only metric() values reach the JSON line.
  void note(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }

  void check(bool ok, const std::string& what) {
    if (!ok) {
      violations_.push_back(what);
      std::fprintf(stderr, "perfbench: correctness violation: %s\n",
                   what.c_str());
    }
  }

  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return violations_.empty(); }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted_, 1)),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- distance-evaluation counting ------------------------------------------
//
// The one place the benchmark reads distance-evaluation counts. It does not
// use the library's process-global counter: the probes instantiate the
// library's templates with Counted<Metric>, a metric policy that forwards to
// the real kernel and counts here. Results are identical to the plain
// metric's, so a counted pass describes the timed, uncounted pass exactly.
namespace internal {
struct alignas(64) EvalSlot {
  std::atomic<std::uint64_t> n{0};
};
inline EvalSlot eval_slots[256];
}  // namespace internal

inline void reset_distance_evals() {
  for (auto& s : internal::eval_slots) s.n.store(0, std::memory_order_relaxed);
}

inline std::uint64_t distance_evals() {
  std::uint64_t sum = 0;
  for (auto& s : internal::eval_slots) {
    sum += s.n.load(std::memory_order_relaxed);
  }
  return sum;
}

template <typename Metric>
struct Counted {
  using Prepared = typename Metric::Prepared;

  static void bump() {
    internal::eval_slots[parlay::worker_id() % 256].n.fetch_add(
        1, std::memory_order_relaxed);
  }

  template <typename T>
  static Prepared prepare(const T* q, std::size_t d) {
    return Metric::prepare(q, d);
  }
  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    bump();
    return Metric::eval(a, b, d);
  }
  template <typename T>
  static float eval(const Prepared& p, const T* a, const T* b, std::size_t d) {
    bump();
    return Metric::eval(p, a, b, d);
  }
  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }
};

// Metric policy that records the row of every evaluation made on the calling
// thread, in order: the neighbour stream a real traversal produces (one row
// per point, so equal rows are equal ids).
template <typename Metric>
struct Recorded {
  using Prepared = typename Metric::Prepared;

  static std::vector<const void*>& rows() {
    thread_local std::vector<const void*> r;
    return r;
  }

  template <typename T>
  static Prepared prepare(const T* q, std::size_t d) {
    return Metric::prepare(q, d);
  }
  template <typename T>
  static float eval(const T* a, const T* b, std::size_t d) {
    rows().push_back(b);
    return Metric::eval(a, b, d);
  }
  template <typename T>
  static float eval(const Prepared& p, const T* a, const T* b, std::size_t d) {
    rows().push_back(b);
    return Metric::eval(p, a, b, d);
  }
  template <typename T>
  static float distance(const T* a, const T* b, std::size_t d) {
    return eval(a, b, d);
  }
};

// Keeps a computed value alive so the loop that produced it is not optimised
// away.
inline void keep(double v) { asm volatile("" : : "g"(v) : "memory"); }

// Workload entry points (one translation unit each).
void run_query_u8(const Options& opt, Result& res);
void run_build_f32(const Options& opt, Result& res);
void run_serve_open(const Options& opt, Result& res);

}  // namespace perfbench
