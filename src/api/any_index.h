// ann::AnyIndex — the type-erased index handle behind the unified public
// API. One surface for every builder in the repo:
//
//   build(points)                        construct over a PointSet<T>
//   search(query, QueryParams)          -> std::vector<Neighbor>
//   batch_search(queries, QueryParams)  parallel fan-out over a query set
//   range_search(query, radius)         -> all points within radius
//   attach_labels(store) / labels()     per-point label sets (src/filter/)
//   filtered_search(query, spec, p)     predicate-constrained top-k
//   filtered_batch_search(...)          same, parallel over a query set
//   insert(points) / erase(ids) /       mutation, on backends that opt in
//   consolidate()                       (supports_updates() probes for it)
//   save(path) / AnyIndex::load(path)   versioned container round-trip
//   stats()                             algorithm/metric/dtype + detail KVs
//
// k contract (uniform across all backends, enforced HERE so backends never
// see a degenerate k): k == 0 returns an empty result; k > num_points is
// clamped to num_points. Filtered over-fetch hits the k > n edge routinely,
// which is why the clamp lives on the shared dispatch path rather than in
// per-backend folklore.
//
// Filtered search: graph backends override filtered_search with native
// traversal-level filtering (core/beam_search.h filtered_beam_search);
// everything else inherits TypedBackend's post-filter fallback (over-fetch
// by estimated selectivity, then filter + truncate — src/filter/
// post_filter.h). supports_native_filtering() advertises which path runs.
// Native-path results are byte-identical under any worker count for
// label-based FilterSpecs; the std::function escape hatch is only as
// deterministic as the callable it carries.
//
// Erasure layout: AnyIndex owns a BackendBase; concrete backends derive from
// TypedBackend<T> (the element type cannot be a virtual parameter, so the
// typed surface lives one level down and AnyIndex's templated methods
// dynamic_cast to it, turning dtype mismatches into clear runtime errors
// instead of garbage reads). Mutability is a second, optional capability:
// backends that support updates additionally derive from
// MutableTypedBackend<T>; calling a mutating method on any other backend
// throws unsupported_operation (mirroring the dtype-mismatch design — a
// clear runtime error, not a silent no-op).
//
// Backends own a copy of the indexed points, so a search needs nothing but
// the query and saved indexes are self-contained (load needs no side file).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "parlay/parallel.h"

#include "api/index_spec.h"
#include "core/beam_search.h"
#include "core/error.h"
#include "core/points.h"
#include "core/range_search.h"
#include "core/simd/caps.h"
#include "filter/filter_spec.h"
#include "filter/label_store.h"
#include "filter/post_filter.h"
#include "quant/quant_spec.h"

namespace ann {

// unsupported_operation now lives in core/error.h with the rest of the
// error taxonomy; it is still thrown from here when a capability the
// backend does not implement is invoked (e.g. insert on a build-once
// index).

struct IndexStats {
  std::string algorithm;
  std::string metric;
  std::string dtype;
  std::size_t num_points = 0;
  std::size_t dims = 0;
  // Resident bytes of the index's owned state: coordinate rows, graph /
  // bucket structures, codebooks and codes, label store. Excludes mmap'd
  // file backing (evictable by the kernel — reported separately in details
  // as "mapped_bytes" where present). The quantized tier's headline figure:
  // attach_quantized with evict_raw shrinks this by roughly the point-set
  // size.
  std::size_t memory_bytes = 0;
  // Backend-specific figures (edges, layers, lists, ...).
  std::vector<std::pair<std::string, double>> details;

  double detail(const std::string& key, double fallback = 0.0) const {
    return kv_get(details, key, fallback);
  }
};

// Untyped backend surface: everything that does not mention T.
class BackendBase {
 public:
  virtual ~BackendBase() = default;

  // Payloads are self-contained (points + algorithm state); the container
  // header preceding them is written/read by AnyIndex.
  virtual void save_payload(std::FILE* f, const std::string& path) const = 0;
  virtual void load_payload(std::FILE* f, const std::string& path) = 0;
  virtual IndexStats stats() const = 0;
  virtual std::size_t num_points() const = 0;
  // 0 until the backend holds (or has loaded) points.
  virtual std::size_t dims() const = 0;

  // True when filtered_search runs the predicate inside the traversal
  // (graph backends); false means the post-filter fallback serves it.
  virtual bool supports_native_filtering() const { return false; }

  // --- quantized tier (optional capability, src/quant/) ---------------------
  //
  // Backends that can traverse over compressed codes (the graph backends)
  // override this block. The defaults make the capability absent: probes
  // return false and actions throw unsupported_operation, mirroring the
  // mutation capability's design.

  // True when this backend type implements the quantized path at all
  // (independent of whether a store is currently attached).
  virtual bool supports_quantized_search() const { return false; }

  // True once attach_quantized (or loading a file with a quant payload)
  // installed a code store.
  virtual bool has_quantized() const { return false; }

  // Train a compressed code store over the indexed points per `spec` and
  // enable quantized_search. With spec.evict_raw the full-precision rows
  // are dropped afterwards (see QuantizedSpec).
  virtual void attach_quantized(const QuantizedSpec& spec) {
    (void)spec;
    throw unsupported_operation(
        "this backend does not support quantized search "
        "(see supports_quantized_search())");
  }

  // Write the full-precision rows as a PANV vector store (the mmap rerank
  // source) to `path`.
  virtual void export_vector_store(const std::string& path) const {
    (void)path;
    throw unsupported_operation(
        "this backend does not support quantized search "
        "(see supports_quantized_search())");
  }

  // Container round-trip of the attached store ("PANQ" payload). Only
  // invoked by the registry when has_quantized() / the file says so.
  virtual void save_quantized_payload(std::FILE* f,
                                      const std::string& path) const {
    (void)f;
    throw unsupported_operation("no quantized store to save: " + path);
  }
  virtual void load_quantized_payload(std::FILE* f, const std::string& path) {
    (void)f;
    throw std::runtime_error(
        "index file carries a quantized payload but backend does not "
        "support quantized search: " + path);
  }
};

// Typed backend surface; concrete adapters (src/api/adapters.h) derive from
// this for their element type.
template <typename T>
class TypedBackend : public BackendBase {
 public:
  // By value: AnyIndex::build copies from an lvalue or moves from an rvalue,
  // so callers that hand over ownership pay no extra copy of the dataset.
  virtual void build(PointSet<T> points) = 0;
  virtual std::vector<Neighbor> search(const T* query,
                                       const QueryParams& params) const = 0;
  virtual std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const = 0;

  // Predicate-constrained top-k. This default is the generic post-filter
  // fallback: over-fetch an unfiltered shortlist sized by the filter's
  // estimated selectivity, drop non-matching entries, truncate to k. Graph
  // backends override it with traversal-level filtering and flip
  // supports_native_filtering(). AnyIndex has already clamped params.k and
  // resolved filter_beam_factor by the time this runs.
  virtual std::vector<Neighbor> filtered_search(
      const T* query, const BoundFilter& filter,
      const QueryParams& params) const {
    const std::uint32_t fetch = post_filter_fetch_k(
        params.k, num_points(), filter.estimated_selectivity(num_points()));
    auto results = search(query, post_filter_params(params, fetch));
    apply_post_filter(results, filter, params.k);
    return results;
  }

  // Quantized traversal + optional exact rerank (params.rerank_count).
  // Overridden alongside attach_quantized; the default mirrors the
  // capability-absent contract.
  virtual std::vector<Neighbor> quantized_search(
      const T* query, const QueryParams& params) const {
    (void)query;
    (void)params;
    throw unsupported_operation(
        "this backend does not support quantized search "
        "(see supports_quantized_search())");
  }
};

// Optional mutation capability, untyped half: erase and consolidate never
// mention T. Backends that support updates derive from the typed class
// below; AnyIndex probes for this base to answer supports_updates().
class MutableBackendBase {
 public:
  virtual ~MutableBackendBase() = default;

  // Tombstone the given ids; they stop appearing in query results
  // immediately. Ids are validated by AnyIndex before this is called.
  virtual void erase(std::span<const PointId> ids) = 0;

  // Splice tombstoned points out of the index structure (maintenance).
  virtual void consolidate() = 0;
};

// Typed half of the mutation capability.
template <typename T>
class MutableTypedBackend : public MutableBackendBase {
 public:
  // Append a batch of points; returns the id of the first inserted point
  // (ids are contiguous). Must reject a dims mismatch with
  // std::invalid_argument.
  virtual PointId insert(const PointSet<T>& points) = 0;
};

namespace internal {
// The input-domain check behind every float entry point: a NaN or infinite
// coordinate throws invalid_input naming the caller (`where`) and the row.
// Integer dtypes cannot hold such values, so the scan compiles away for them.
template <typename T>
void require_finite(std::span<const T> row, const char* where,
                    std::size_t row_id = 0) {
  if constexpr (std::is_floating_point_v<T>) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (!std::isfinite(row[j])) {
        throw invalid_input(std::string(where) + ": row " +
                            std::to_string(row_id) + " coordinate " +
                            std::to_string(j) + " is " +
                            (std::isnan(row[j]) ? "NaN" : "infinite"));
      }
    }
  }
}

template <typename T>
void require_finite(const PointSet<T>& points, const char* where) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    require_finite(
        std::span<const T>(points[static_cast<PointId>(i)], points.dims()),
        where, i);
  }
}

// The same check for the float fields of the search parameters, for every
// dtype: a NaN filter_beam_factor would pass the `<= 0` auto test and
// reach std::ceil(L * NaN) cast to an integer.
inline void require_finite_param(float value, const char* where,
                                 const char* field) {
  if (!std::isfinite(value)) {
    throw invalid_input(std::string(where) + ": " + field + " is " +
                        (std::isnan(value) ? "NaN" : "infinite"));
  }
}

inline void require_finite(const QueryParams& params, const char* where) {
  require_finite_param(params.epsilon, where, "QueryParams::epsilon");
  require_finite_param(params.filter_beam_factor, where,
                       "QueryParams::filter_beam_factor");
}

inline void require_finite(const RangeSearchParams& params,
                           const char* where) {
  require_finite_param(params.radius, where, "RangeSearchParams::radius");
}
}  // namespace internal

class AnyIndex {
 public:
  AnyIndex() = default;
  AnyIndex(IndexSpec spec, std::unique_ptr<BackendBase> impl)
      : spec_(std::move(spec)), impl_(std::move(impl)) {}

  bool valid() const { return impl_ != nullptr; }
  const IndexSpec& spec() const { return spec_; }

  IndexStats stats() const {
    require_impl("stats");
    IndexStats s = impl_->stats();
    s.algorithm = spec_.algorithm;
    s.metric = spec_.metric;
    s.dtype = spec_.dtype;
    // The label store is owned by the handle, not the backend, so its
    // residency is accounted here.
    if (labels_) s.memory_bytes += labels_->memory_bytes();
    // Which SIMD kernel tier is serving this process's distance evaluations
    // (numeric simd::Tier value; name via simd::tier_name — docs/SIMD.md).
    s.details.emplace_back("simd_tier",
                           static_cast<double>(simd::active_tier()));
    return s;
  }

  // The index keeps its own copy of the points (so searches need nothing
  // but the query and saved files are self-contained); pass an rvalue to
  // transfer ownership without copying the dataset.
  template <typename T>
  void build(const PointSet<T>& points) {
    TypedBackend<T>& backend = typed<T>("build");
    internal::require_finite(points, "AnyIndex::build");
    backend.build(points);
  }

  template <typename T>
  void build(PointSet<T>&& points) {
    TypedBackend<T>& backend = typed<T>("build");
    internal::require_finite(points, "AnyIndex::build");
    backend.build(std::move(points));
  }

  template <typename T>
  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("search");
    require_finite_query(query, backend, "AnyIndex::search");
    internal::require_finite(params, "AnyIndex::search");
    // k contract + unbuilt-index handling: backends past this point see a
    // non-empty structure and 1 <= k <= num_points.
    auto p = clamp_k(params, backend.num_points());
    if (!p) return {};
    return backend.search(query, *p);
  }

  // Parallel fan-out over a query set; results[q] matches search(queries[q])
  // element-wise under any worker count (the shared beam search is
  // deterministic and its scratch state — visited tables, beam storage —
  // comes from a per-thread SearchScratch pool, so concurrent queries never
  // share mutable state and steady-state fan-out does no scratch
  // allocation).
  template <typename T>
  std::vector<std::vector<Neighbor>> batch_search(
      const PointSet<T>& queries, const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("batch_search");
    internal::require_finite(queries, "AnyIndex::batch_search");
    internal::require_finite(params, "AnyIndex::batch_search");
    std::vector<std::vector<Neighbor>> results(queries.size());
    auto p = clamp_k(params, backend.num_points());
    if (!p) return results;
    parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
      results[q] = backend.search(queries[static_cast<PointId>(q)], *p);
    }, 1);
    return results;
  }

  // All points within `radius` of the query, ascending by (dist, id).
  template <typename T>
  std::vector<Neighbor> range_search(const T* query, float radius) const {
    RangeSearchParams params;
    params.radius = radius;
    return range_search(query, params);
  }

  template <typename T>
  std::vector<Neighbor> range_search(const T* query,
                                     const RangeSearchParams& params) const {
    const TypedBackend<T>& backend = typed<T>("range_search");
    require_finite_query(query, backend, "AnyIndex::range_search");
    internal::require_finite(params, "AnyIndex::range_search");
    if (backend.num_points() == 0) return {};
    return backend.range_search(query, params);
  }

  // --- labels + filtered search ----------------------------------------------

  // Attach per-point label sets. The store must describe exactly the points
  // the index holds (attach after build or load); it is persisted by save()
  // and restored by load(). Stored shared, so long-running consumers (the
  // serving layer) can hold the store across a hot-swap of the handle.
  void attach_labels(LabelStore store) {
    require_impl("attach_labels");
    if (store.num_points() != impl_->num_points()) {
      throw std::invalid_argument(
          "AnyIndex::attach_labels: store covers " +
          std::to_string(store.num_points()) + " points but the index holds " +
          std::to_string(impl_->num_points()));
    }
    labels_ = std::make_shared<const LabelStore>(std::move(store));
  }

  bool has_labels() const { return labels_ != nullptr; }

  const LabelStore& labels() const {
    if (!labels_) {
      throw std::logic_error(
          "AnyIndex::labels: no LabelStore attached (attach_labels)");
    }
    return *labels_;
  }

  std::shared_ptr<const LabelStore> labels_ptr() const { return labels_; }

  // True when the backend filters inside the traversal; false means the
  // post-filter fallback serves filtered_search.
  bool supports_native_filtering() const {
    return impl_ != nullptr && impl_->supports_native_filtering();
  }

  // Predicate-constrained top-k: the k nearest points matching `filter`.
  // May return fewer than k when the filter admits fewer matches (an empty
  // vector when it admits none). An inactive filter degrades to search().
  // filter_beam_factor <= 0 resolves to auto_filter_beam_factor of the
  // filter's estimated selectivity here — a pure function of (spec, store),
  // so the auto choice preserves determinism.
  template <typename T>
  std::vector<Neighbor> filtered_search(const T* query,
                                        const FilterSpec& filter,
                                        const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("filtered_search");
    require_finite_query(query, backend, "AnyIndex::filtered_search");
    internal::require_finite(params, "AnyIndex::filtered_search");
    auto p = clamp_k(params, backend.num_points());
    if (!p) return {};
    if (!filter.active()) return backend.search(query, *p);
    BoundFilter bound(filter, labels_.get());
    resolve_filter_factor(*p, bound, backend.num_points());
    return backend.filtered_search(query, bound, *p);
  }

  // Parallel filtered fan-out, one FilterSpec for the whole batch.
  // results[q] matches filtered_search(queries[q], filter) element-wise
  // under any worker count (native path; the post-filter path inherits the
  // determinism of the underlying unfiltered search).
  template <typename T>
  std::vector<std::vector<Neighbor>> filtered_batch_search(
      const PointSet<T>& queries, const FilterSpec& filter,
      const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("filtered_batch_search");
    internal::require_finite(queries, "AnyIndex::filtered_batch_search");
    internal::require_finite(params, "AnyIndex::filtered_batch_search");
    std::vector<std::vector<Neighbor>> results(queries.size());
    auto p = clamp_k(params, backend.num_points());
    if (!p) return results;
    if (!filter.active()) {
      parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
        results[q] = backend.search(queries[static_cast<PointId>(q)], *p);
      }, 1);
      return results;
    }
    BoundFilter bound(filter, labels_.get());
    resolve_filter_factor(*p, bound, backend.num_points());
    parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
      results[q] = backend.filtered_search(queries[static_cast<PointId>(q)],
                                           bound, *p);
    }, 1);
    return results;
  }

  // Parallel filtered fan-out with a per-query FilterSpec (the serving
  // layer's shape: one request, one filter). filters.size() must equal
  // queries.size().
  template <typename T>
  std::vector<std::vector<Neighbor>> filtered_batch_search(
      const PointSet<T>& queries, std::span<const FilterSpec> filters,
      const QueryParams& params = {}) const {
    if (filters.size() != queries.size()) {
      throw std::invalid_argument(
          "AnyIndex::filtered_batch_search: " + std::to_string(queries.size()) +
          " queries but " + std::to_string(filters.size()) + " filters");
    }
    const TypedBackend<T>& backend = typed<T>("filtered_batch_search");
    internal::require_finite(queries, "AnyIndex::filtered_batch_search");
    internal::require_finite(params, "AnyIndex::filtered_batch_search");
    std::vector<std::vector<Neighbor>> results(queries.size());
    auto p = clamp_k(params, backend.num_points());
    if (!p) return results;
    // Bind (and validate) every spec up front, on the calling thread, so a
    // missing LabelStore throws before any parallel work starts.
    std::vector<std::optional<BoundFilter>> bound(filters.size());
    for (std::size_t q = 0; q < filters.size(); ++q) {
      if (filters[q].active()) bound[q].emplace(filters[q], labels_.get());
    }
    parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
      const T* query = queries[static_cast<PointId>(q)];
      if (!bound[q]) {
        results[q] = backend.search(query, *p);
        return;
      }
      QueryParams qp = *p;
      resolve_filter_factor(qp, *bound[q], backend.num_points());
      results[q] = backend.filtered_search(query, *bound[q], qp);
    }, 1);
    return results;
  }

  // --- quantized tier (optional capability) ----------------------------------

  // True when the backend type implements the quantized path (graph
  // backends). False for the inverted-file/hash backends and empty handles.
  bool supports_quantized_search() const {
    return impl_ != nullptr && impl_->supports_quantized_search();
  }

  // True once a code store is attached (attach_quantized or load of a file
  // carrying a quant payload).
  bool has_quantized() const {
    return impl_ != nullptr && impl_->has_quantized();
  }

  // Train a compressed code store over the indexed points and enable
  // quantized_search (src/quant/ — the DiskANN memory-budget tier). Throws
  // unsupported_operation on backends without the capability, and
  // std::invalid_argument on a spec the index cannot honor (e.g. cosine
  // metric, PQ subspaces > dims, mismatched vectors_path shape).
  void attach_quantized(const QuantizedSpec& spec) {
    require_impl("attach_quantized");
    impl_->attach_quantized(spec);
  }

  // Write the index's full-precision rows as a PANV vector store at `path`
  // — the file attach_quantized mmaps for exact rerank.
  void export_vector_store(const std::string& path) const {
    require_impl("export_vector_store");
    impl_->export_vector_store(path);
  }

  // Top-k over the compressed codes, optionally re-scored from
  // full-precision rows (params.rerank_count — clamped up to k). Same k
  // contract as search(). Deterministic under any worker count.
  template <typename T>
  std::vector<Neighbor> quantized_search(const T* query,
                                         const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("quantized_search");
    require_finite_query(query, backend, "AnyIndex::quantized_search");
    internal::require_finite(params, "AnyIndex::quantized_search");
    auto p = clamp_k(params, backend.num_points());
    if (!p) return {};
    return backend.quantized_search(query, *p);
  }

  // Parallel quantized fan-out; results[q] matches quantized_search
  // (queries[q]) element-wise under any worker count.
  template <typename T>
  std::vector<std::vector<Neighbor>> quantized_batch_search(
      const PointSet<T>& queries, const QueryParams& params = {}) const {
    const TypedBackend<T>& backend = typed<T>("quantized_batch_search");
    internal::require_finite(queries, "AnyIndex::quantized_batch_search");
    internal::require_finite(params, "AnyIndex::quantized_batch_search");
    std::vector<std::vector<Neighbor>> results(queries.size());
    auto p = clamp_k(params, backend.num_points());
    if (!p) return results;
    parlay::parallel_for(0, queries.size(), [&](std::size_t q) {
      results[q] =
          backend.quantized_search(queries[static_cast<PointId>(q)], *p);
    }, 1);
    return results;
  }

  // --- mutation (optional capability) ----------------------------------------

  // True when the backend implements insert/erase/consolidate. False for
  // build-once backends and for an empty handle.
  bool supports_updates() const {
    return dynamic_cast<const MutableBackendBase*>(impl_.get()) != nullptr;
  }

  // Append a batch of points; returns the id of the first inserted point
  // (ids are contiguous). Works on an empty index (insert doubles as the
  // initial load) or on top of a previous build.
  template <typename T>
  PointId insert(const PointSet<T>& points) {
    mutable_base("insert");
    auto* backend = dynamic_cast<MutableTypedBackend<T>*>(impl_.get());
    if (backend == nullptr) {
      throw std::invalid_argument(
          std::string("AnyIndex::insert: index holds dtype '") + spec_.dtype +
          "' but was called with '" + dtype_name<T>() + "'");
    }
    internal::require_finite(points, "AnyIndex::insert");
    return backend->insert(points);
  }

  // Tombstone points: they stop appearing in search results immediately;
  // structural cleanup is deferred to consolidate(). Out-of-range ids are
  // rejected up front (the whole batch is applied or none of it).
  void erase(std::span<const PointId> ids) {
    MutableBackendBase& backend = mutable_base("erase");
    const std::size_t n = impl_->num_points();
    for (PointId id : ids) {
      if (id >= n) {
        throw std::out_of_range("AnyIndex::erase: id " + std::to_string(id) +
                                " out of range (index holds " +
                                std::to_string(n) + " points)");
      }
    }
    backend.erase(ids);
  }

  // Maintenance: splice tombstoned points out of the index structure.
  void consolidate() { mutable_base("consolidate").consolidate(); }

  void save(const std::string& path) const;  // defined with load in registry.h
  static AnyIndex load(const std::string& path);

 private:
  // The k contract, applied once on the shared dispatch path: k == 0 (or an
  // empty index) means "no results" — callers get an empty vector without
  // the backend ever running; k > num_points clamps, since no backend can
  // return more points than it holds and several would otherwise pad,
  // throw, or truncate each in their own way.
  static std::optional<QueryParams> clamp_k(const QueryParams& params,
                                            std::size_t num_points) {
    if (params.k == 0 || num_points == 0) return std::nullopt;
    QueryParams p = params;
    p.k = static_cast<std::uint32_t>(
        std::min<std::size_t>(p.k, num_points));
    return p;
  }

  // A single query is a bare pointer: its length is the served dims.
  template <typename T>
  static void require_finite_query(const T* query,
                                   const TypedBackend<T>& backend,
                                   const char* where) {
    if constexpr (std::is_floating_point_v<T>) {
      internal::require_finite(std::span<const T>(query, backend.dims()),
                               where);
    }
  }

  static void resolve_filter_factor(QueryParams& params,
                                    const BoundFilter& bound,
                                    std::size_t num_points) {
    if (params.filter_beam_factor <= 0.0f) {
      params.filter_beam_factor =
          auto_filter_beam_factor(bound.estimated_selectivity(num_points));
    }
  }

  MutableBackendBase& mutable_base(const char* op) const {
    require_impl(op);
    auto* backend = dynamic_cast<MutableBackendBase*>(impl_.get());
    if (backend == nullptr) {
      throw unsupported_operation(
          std::string("AnyIndex::") + op + ": backend '" + spec_.algorithm +
          "' does not support updates (see supports_updates())");
    }
    return *backend;
  }

  void require_impl(const char* op) const {
    if (!impl_) {
      throw std::logic_error(std::string("AnyIndex::") + op +
                             " on an empty handle (use ann::make_index)");
    }
  }

  template <typename T>
  TypedBackend<T>& typed(const char* op) const {
    require_impl(op);
    auto* backend = dynamic_cast<TypedBackend<T>*>(impl_.get());
    if (backend == nullptr) {
      throw std::invalid_argument(
          std::string("AnyIndex::") + op + ": index holds dtype '" +
          spec_.dtype + "' but was called with '" + dtype_name<T>() + "'");
    }
    return *backend;
  }

  IndexSpec spec_;
  std::unique_ptr<BackendBase> impl_;
  std::shared_ptr<const LabelStore> labels_;  // null until attach_labels/load
};

}  // namespace ann
