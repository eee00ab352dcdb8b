// Spans for the traced run. The benchmark wraps its own calls into each
// layer's public functions in Span objects; the library itself is not
// instrumented. Spans are kept in memory (one buffer per thread, appended
// without locks) and written out once, when the run ends. Per-layer metrics
// are derived from the spans by name.
//
// A span records: name, start and end (steady clock, ns), its parent (the
// span open on the same thread when it began) and a query id that ties the
// spans of one request together. With tracing disabled a Span costs one
// branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::int64_t query;    // -1 = not tied to one query
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  // Toggled by the driver thread between phases, read by every thread that
  // records.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // The calling thread's buffer; registered on first use.
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::uint64_t open = 0;  // innermost open span on this thread
  };
  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<Buffer>();
      owned->spans.reserve(1 << 16);
      buf = owned.get();
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(owned));
    }
    return *buf;
  }

  // Record a span measured elsewhere (e.g. a request's due time to its
  // completion callback, which start and end on different threads).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t query) {
    if (!enabled()) return;
    local().spans.push_back({name, start_ns, end_ns, next_id(), 0, query});
  }

  // Aggregate over every recorded span of one name. Call only once the
  // threads that record have stopped.
  struct Agg {
    std::uint64_t count = 0;
    double total_ns = 0;
    double mean_us() const { return count ? total_ns / count / 1e3 : 0.0; }
    double mean_ms() const { return count ? total_ns / count / 1e6 : 0.0; }
    double total_s() const { return total_ns * 1e-9; }
  };
  Agg agg(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    Agg a;
    for (const auto& b : buffers_) {
      for (const SpanRecord& s : b->spans) {
        if (name == s.name) {
          ++a.count;
          a.total_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
      }
    }
    return a;
  }

  // Write every span as one JSON object per line.
  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
      return;
    }
    for (const auto& b : buffers_) {
      for (const SpanRecord& s : b->spans) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"id\":%llu,\"parent\":%llu,\"query\":%lld}\n",
                     s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.query));
      }
    }
    std::fclose(f);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Span names must outlive the tracer; names built at run time live here.
inline const char* span_name(const std::string& s) {
  static std::deque<std::string> names;
  for (const std::string& n : names) {
    if (n == s) return n.c_str();
  }
  names.push_back(s);
  return names.back().c_str();
}

// RAII span on the calling thread; nests under the span already open there.
class Span {
 public:
  explicit Span(const char* name, std::int64_t query = -1) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    buf_ = &t.local();
    rec_ = {name, 0, 0, t.next_id(), buf_->open, query};
    buf_->open = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (buf_ == nullptr) return;
    rec_.end_ns = now_ns();
    buf_->open = rec_.parent;
    buf_->spans.push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  SpanRecord rec_{};
};

}  // namespace perfbench
