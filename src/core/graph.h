// Flat fixed-degree adjacency storage for ANNS graphs.
//
// Per the paper's layout optimization (§4.5): "the edge-list for each vertex
// is kept at a fixed length so we can calculate its offset from the vertex
// id" — no indirection, one contiguous allocation. It starts on a cache
// line, so with max_degree a multiple of 16 every list is whole lines.
//
// Concurrency contract: distinct vertices may be written concurrently (the
// batch algorithms partition writes by vertex); a single vertex must not be
// read and written concurrently. The batch build algorithms guarantee this
// by construction (reads hit the previous batch's snapshot).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/sequence_ops.h"

#include "points.h"

namespace ann {

class Graph {
 public:
  Graph() : n_(0), max_degree_(0) {}

  Graph(std::size_t n, std::uint32_t max_degree)
      : n_(n),
        max_degree_(max_degree),
        sizes_(n, 0),
        edges_(n * static_cast<std::size_t>(max_degree), kInvalidPoint) {}

  // The cached edge count is an atomic, so copies and moves are spelled out
  // (the cached value travels with the adjacency data it summarizes).
  Graph(const Graph& o)
      : n_(o.n_),
        max_degree_(o.max_degree_),
        sizes_(o.sizes_),
        edges_(o.edges_),
        cached_edges_(o.cached_edges_.load(std::memory_order_relaxed)) {}

  Graph(Graph&& o) noexcept
      : n_(std::exchange(o.n_, 0)),
        max_degree_(std::exchange(o.max_degree_, 0)),
        sizes_(std::move(o.sizes_)),
        edges_(std::move(o.edges_)),
        cached_edges_(o.cached_edges_.load(std::memory_order_relaxed)) {
    o.sizes_.clear();
    o.edges_.clear();
    o.cached_edges_.store(0, std::memory_order_relaxed);
  }

  Graph& operator=(const Graph& o) {
    if (this != &o) {
      n_ = o.n_;
      max_degree_ = o.max_degree_;
      sizes_ = o.sizes_;
      edges_ = o.edges_;
      cached_edges_.store(o.cached_edges_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    return *this;
  }

  Graph& operator=(Graph&& o) noexcept {
    if (this != &o) {
      n_ = std::exchange(o.n_, 0);
      max_degree_ = std::exchange(o.max_degree_, 0);
      sizes_ = std::move(o.sizes_);
      edges_ = std::move(o.edges_);
      o.sizes_.clear();
      o.edges_.clear();
      cached_edges_.store(o.cached_edges_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      o.cached_edges_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  std::size_t size() const { return n_; }
  std::uint32_t max_degree() const { return max_degree_; }

  std::uint32_t degree(PointId v) const { return sizes_[v]; }

  std::span<const PointId> neighbors(PointId v) const {
    return {edges_.data() + row(v), sizes_[v]};
  }

  // Replace v's adjacency list. `neigh` must have size <= max_degree.
  void set_neighbors(PointId v, std::span<const PointId> neigh) {
    assert(neigh.size() <= max_degree_);
    PointId* dst = edges_.data() + row(v);
    for (std::size_t i = 0; i < neigh.size(); ++i) dst[i] = neigh[i];
    sizes_[v] = static_cast<std::uint32_t>(neigh.size());
    invalidate_edge_count();
  }

  // Append edges up to capacity; returns the number actually appended.
  std::size_t append_neighbors(PointId v, std::span<const PointId> neigh) {
    PointId* dst = edges_.data() + row(v);
    std::uint32_t sz = sizes_[v];
    std::size_t added = 0;
    while (added < neigh.size() && sz < max_degree_) {
      dst[sz++] = neigh[added++];
    }
    sizes_[v] = sz;
    invalidate_edge_count();
    return added;
  }

  void clear_neighbors(PointId v) {
    sizes_[v] = 0;
    invalidate_edge_count();
  }

  // Grow to `n` vertices (new vertices start with empty adjacency); used by
  // the dynamic index. Shrinking is not supported.
  void resize(std::size_t n) {
    assert(n >= n_);
    sizes_.resize(n, 0);
    edges_.resize(n * static_cast<std::size_t>(max_degree_), kInvalidPoint);
    n_ = n;
    // New vertices are empty; an existing valid count stays valid.
  }

  // Shrink the per-vertex slot count to `new_max_degree`. The batch builders
  // allocate 2x degree slack so reverse-edge appends land before the
  // re-prune; that slack is only needed while a build is in flight, but a
  // static index would pay for it in resident memory forever. Every degree
  // must already be <= new_max_degree (the builders' post-prune invariant).
  void compact(std::uint32_t new_max_degree) {
    if (new_max_degree >= max_degree_) return;
    CacheAlignedVector<PointId> packed(
        n_ * static_cast<std::size_t>(new_max_degree), kInvalidPoint);
    parlay::parallel_for(0, n_, [&](std::size_t v) {
      assert(sizes_[v] <= new_max_degree);
      const PointId* src = edges_.data() + v * max_degree_;
      PointId* dst = packed.data() + v * static_cast<std::size_t>(new_max_degree);
      for (std::uint32_t i = 0; i < sizes_[v]; ++i) dst[i] = src[i];
    });
    edges_ = std::move(packed);
    max_degree_ = new_max_degree;
  }

  // Total directed edges. Memoized: the first call after any mutation runs
  // a parallel blocked reduce over the degree array; subsequent calls (the
  // per-query stats() path) return the cached value. Follows the class
  // concurrency contract — concurrent num_edges() calls are fine (they race
  // only to store the same value); num_edges() concurrent with mutation is
  // not, just as reading an adjacency list mid-write never was.
  std::size_t num_edges() const {
    std::int64_t cached = cached_edges_.load(std::memory_order_relaxed);
    if (cached >= 0) return static_cast<std::size_t>(cached);
    std::size_t total = parlay::reduce(
        sizes_, std::size_t{0},
        [](std::size_t a, std::size_t b) { return a + b; });
    cached_edges_.store(static_cast<std::int64_t>(total),
                        std::memory_order_relaxed);
    return total;
  }

  // Resident bytes of the adjacency storage (degree array + flat edges).
  std::size_t memory_bytes() const {
    return sizes_.capacity() * sizeof(std::uint32_t) +
           edges_.capacity() * sizeof(PointId);
  }

  bool operator==(const Graph& o) const {
    if (n_ != o.n_ || max_degree_ != o.max_degree_ || sizes_ != o.sizes_) {
      return false;
    }
    for (std::size_t v = 0; v < n_; ++v) {
      auto a = neighbors(static_cast<PointId>(v));
      auto b = o.neighbors(static_cast<PointId>(v));
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return false;
      }
    }
    return true;
  }

 private:
  std::size_t row(PointId v) const {
    return static_cast<std::size_t>(v) * max_degree_;
  }

  // Relaxed store, no RMW: mutators run from many workers at once (distinct
  // vertices), and all of them only ever write the same sentinel.
  void invalidate_edge_count() {
    cached_edges_.store(-1, std::memory_order_relaxed);
  }

  std::size_t n_;
  std::uint32_t max_degree_;
  std::vector<std::uint32_t> sizes_;
  CacheAlignedVector<PointId> edges_;
  // Cached num_edges(); -1 = stale. Mutable: memoization under const reads.
  // Ordering proof (all accesses relaxed): the cached value is
  // self-contained — num_edges() returns the loaded integer itself and
  // never dereferences memory published by the store, so there is nothing
  // for release/acquire to order. Under the class concurrency contract
  // (readers never overlap mutators), every store that can race with a
  // load writes a value derived deterministically from the same quiescent
  // sizes_ array: concurrent num_edges() calls may both run the reduce,
  // but they store the identical total, and a reader that observes the -1
  // sentinel merely recomputes. Wrong answers would require a reader
  // overlapping a mutator, which the contract (and the adjacency arrays
  // themselves, which are non-atomic) already forbids.
  mutable std::atomic<std::int64_t> cached_edges_{0};
};

}  // namespace ann
