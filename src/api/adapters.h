// Backend adapters: one TypedBackend<T> implementation per index family,
// bridging the per-algorithm builders onto the uniform AnyIndex surface.
//
// QueryParams mapping (QueryParams is beam_search.h's SearchParams):
//   * graph backends (diskann, hnsw, hcnng, pynndescent): used verbatim as
//     the beam-search parameters;
//   * ivf_flat / ivf_pq: beam_width is the effort knob -> nprobe (clamped to
//     the centroid count inside the scan);
//   * lsh: beam_width -> multiprobe buckets per table (clamped to num_bits).
//
// range_search: graph backends run core/range_search.h's beam+flood; the
// bucketed backends (ivf_flat, ivf_pq, lsh) fall back to an exact linear
// scan over their owned points — correct for any radius, and these
// baselines have no graph to flood through.
//
// DynamicDiskANNBackend is the one mutable adapter: it additionally derives
// from MutableTypedBackend<T>, mapping AnyIndex::insert/erase/consolidate
// onto DynamicDiskANN and persisting the tombstone state through the
// container's dynamic-state payload (core/index_io.h) so a mutated index
// round-trips through save/load.
//
// filtered_search: the graph adapters override it with traversal-level
// filtering (core/beam_search.h filtered_beam_search — the predicate gates
// result admission while filtered-out points still conduct the walk) and
// advertise supports_native_filtering(). The bucketed backends (ivf_flat,
// ivf_pq, lsh) keep TypedBackend's post-filter fallback: their shortlists
// are already formed by scanning closed candidate sets, so over-fetch +
// filter is the natural (and still deterministic) strategy there.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/dynamic_index.h"
#include "api/any_index.h"
#include "api/index_spec.h"
#include "core/index_io.h"
#include "core/range_search.h"
#include "ivf/ivf_flat.h"
#include "ivf/ivf_pq.h"
#include "lsh/lsh.h"
#include "quant/mmap_store.h"
#include "quant/quantized_store.h"

namespace ann {

namespace adapters {

// --- quantized tier shared by the graph adapters -----------------------------
//
// Owns the compressed code store, the optional mmap'd full-precision rerank
// source, and the eviction flag — the full DiskANN memory-budget state.
// FlatGraphBackend and HNSWBackend embed one and differ only in how they
// drive the traversal (flat graph vs hierarchy descent).
template <typename Metric, typename T>
class QuantizedTier {
 public:
  bool attached() const { return store_ != nullptr; }
  bool evicted() const { return evicted_; }
  const QuantizedStore<Metric, T>& store() const { return *store_; }

  // Train + install per `spec`. `points` is the backend's owned row storage;
  // with spec.evict_raw it is released here (the memory win). Re-attach
  // replaces the previous tier state wholesale.
  void attach(PointSet<T>& points, const QuantizedSpec& spec) {
    if constexpr (std::is_same_v<Metric, Cosine>) {
      (void)points;
      (void)spec;
      throw unsupported_operation(
          "attach_quantized: ADC does not decompose for the cosine metric "
          "(use euclidean or mips)");
    } else {
      if (points.size() == 0) {
        throw std::logic_error("attach_quantized on an empty index (build "
                               "or load first)");
      }
      auto store = std::make_unique<QuantizedStore<Metric, T>>(
          QuantizedStore<Metric, T>::build(points, spec));
      std::unique_ptr<MmapVectorStore<T>> vectors;
      if (!spec.vectors_path.empty()) {
        vectors = std::make_unique<MmapVectorStore<T>>(spec.vectors_path);
        if (vectors->size() != points.size() ||
            vectors->dims() != points.dims()) {
          throw std::invalid_argument(
              "attach_quantized: vector store " + spec.vectors_path +
              " holds " + std::to_string(vectors->size()) + "x" +
              std::to_string(vectors->dims()) + " but the index holds " +
              std::to_string(points.size()) + "x" +
              std::to_string(points.dims()));
        }
      }
      store_ = std::move(store);
      vectors_ = std::move(vectors);
      evicted_ = false;
      if (spec.evict_raw) {
        points = PointSet<T>();
        evicted_ = true;
      }
    }
  }

  // Restore a store from a container's PANQ payload (load path). Must agree
  // with the structure it rides on; the caller passes the index's shape.
  void load_store(std::FILE* f, const std::string& path, std::size_t n,
                  std::size_t d) {
    auto store = std::make_unique<QuantizedStore<Metric, T>>(
        QuantizedStore<Metric, T>::load_payload(f, path));
    if (store->size() != n || store->dims() != d) {
      throw std::runtime_error("quantized payload does not match index: " +
                               path);
    }
    store_ = std::move(store);
    vectors_.reset();
    evicted_ = false;
  }

  void save_store(std::FILE* f, const std::string& path) const {
    require_attached();
    store_->save_payload(f, path);
  }

  // Reset to "no tier" (fresh build/load replaces the index's points, so any
  // previously attached codes no longer describe them).
  void reset() {
    store_.reset();
    vectors_.reset();
    evicted_ = false;
  }

  void require_attached() const {
    if (!attached()) {
      throw unsupported_operation(
          "quantized search: no code store attached (attach_quantized)");
    }
  }

  // Guard for the full-precision paths of a budget-mode backend: once the
  // raw rows are evicted, only the quantized path can serve queries.
  void require_raw(const char* op) const {
    if (evicted_) {
      throw unsupported_operation(
          std::string(op) +
          ": full-precision rows were evicted (attach_quantized with "
          "evict_raw); use quantized_search");
    }
  }

  // Exact rerank of the frontier's top max(rerank_count, k) entries, from
  // the mmap store when present, else the in-RAM rows. The codes-only tier
  // (evicted, no vectors_path) cannot rerank — that is the unmapped-store
  // error path.
  void finish(const T* query, const QueryParams& params,
              const PointSet<T>& points, std::vector<Neighbor>& frontier) const {
    if (params.rerank_count > 0) {
      const std::size_t depth =
          std::max<std::size_t>(params.rerank_count, params.k);
      if (vectors_ != nullptr) {
        const MmapVectorStore<T>& vs = *vectors_;
        exact_rerank<Metric, T>(query, vs.dims(), frontier, depth,
                                [&](PointId id) { return vs.row(id); });
      } else if (!evicted_) {
        exact_rerank<Metric, T>(query, points.dims(), frontier, depth,
                                [&](PointId id) { return points[id]; });
      } else {
        throw unsupported_operation(
            "quantized_search: rerank_count > 0 but the full-precision rows "
            "were evicted and no vector store is mapped (codes-only tier)");
      }
    }
    if (frontier.size() > params.k) frontier.resize(params.k);
  }

  // Row source for save() on an evicted backend: the mmap store holds the
  // exact bytes the build saw, so the written file is identical to an
  // un-evicted save. Codes-only tiers cannot reconstruct rows.
  void write_points_from_store(std::FILE* f, const std::string& path) const {
    if (vectors_ == nullptr) {
      throw unsupported_operation(
          "save: full-precision rows were evicted and no vector store is "
          "mapped (codes-only tier cannot be persisted)");
    }
    ioutil::write_u64(f, vectors_->size(), path);
    ioutil::write_u64(f, vectors_->dims(), path);
    for (std::size_t i = 0; i < vectors_->size(); ++i) {
      ioutil::write_bytes(f, vectors_->row(static_cast<PointId>(i)),
                          vectors_->dims() * sizeof(T), path);
    }
  }

  // Resident bytes of the tier (codes + codebooks + corrections). The mmap
  // backing is file-backed and excluded — report it via mapped_bytes().
  std::size_t memory_bytes() const {
    return store_ != nullptr ? store_->memory_bytes() : 0;
  }
  std::size_t mapped_bytes() const {
    return vectors_ != nullptr ? vectors_->mapped_bytes() : 0;
  }

  void append_stats(IndexStats& s) const {
    s.details.emplace_back("quantized", attached() ? 1.0 : 0.0);
    if (attached()) {
      s.details.emplace_back("quant_kind",
                             static_cast<double>(store_->kind()));
      s.details.emplace_back("quant_bytes",
                             static_cast<double>(store_->memory_bytes()));
    }
    s.details.emplace_back("evicted", evicted_ ? 1.0 : 0.0);
    s.details.emplace_back("mapped_bytes",
                           static_cast<double>(mapped_bytes()));
  }

 private:
  std::unique_ptr<QuantizedStore<Metric, T>> store_;
  std::unique_ptr<MmapVectorStore<T>> vectors_;
  bool evicted_ = false;
};

// Exact range scan used by the bucketed backends (prepared-query kernels,
// one batched distance-count bump for the whole scan).
template <typename Metric, typename T>
std::vector<Neighbor> exact_range_scan(const PointSet<T>& points,
                                       const T* query, float radius) {
  const auto prep = Metric::prepare(query, points.dims());
  std::vector<Neighbor> matches;
  for (std::size_t i = 0; i < points.size(); ++i) {
    float d = Metric::eval(prep, query, points[static_cast<PointId>(i)],
                           points.dims());
    if (d <= radius) matches.push_back({static_cast<PointId>(i), d});
  }
  DistanceCounter::bump(points.size());
  std::sort(matches.begin(), matches.end());
  return matches;
}

// --- flat-graph backends (diskann / hcnng / pynndescent) ---------------------

template <typename Metric, typename T, typename Params>
class FlatGraphBackend final : public TypedBackend<T> {
 public:
  using Builder = GraphIndex<Metric, T> (*)(const PointSet<T>&, const Params&);

  FlatGraphBackend(Params params, Builder builder)
      : params_(std::move(params)), builder_(builder) {}

  void build(PointSet<T> points) override {
    points_ = std::move(points);
    index_ = builder_(points_, params_);
    tier_.reset();  // old codes (if any) no longer describe these points
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    tier_.require_raw("search");
    auto res = index_.query_full(query, points_, params);
    auto out = std::move(res.frontier);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    tier_.require_raw("range_search");
    std::vector<PointId> starts{index_.start};
    return ann::range_search<Metric>(query, points_, index_.graph, starts,
                                     params)
        .matches;
  }

  bool supports_native_filtering() const override { return true; }

  std::vector<Neighbor> filtered_search(
      const T* query, const BoundFilter& filter,
      const QueryParams& params) const override {
    tier_.require_raw("filtered_search");
    std::vector<PointId> starts{index_.start};
    auto res = filtered_beam_search<Metric>(
        query, points_, index_.graph, starts, params,
        [&](PointId id) { return filter.matches(id); });
    auto out = std::move(res.frontier);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  // --- quantized tier ---------------------------------------------------------

  bool supports_quantized_search() const override { return true; }
  bool has_quantized() const override { return tier_.attached(); }

  void attach_quantized(const QuantizedSpec& spec) override {
    tier_.attach(points_, spec);
  }

  void export_vector_store(const std::string& path) const override {
    tier_.require_raw("export_vector_store");
    write_vector_store(path, points_);
  }

  std::vector<Neighbor> quantized_search(
      const T* query, const QueryParams& params) const override {
    tier_.require_attached();
    SearchScratch& scratch = local_search_scratch();
    auto qv = tier_.store().bind(query, scratch);
    std::vector<PointId> starts{index_.start};
    auto res = quantized_beam_search(qv, index_.graph, starts, params,
                                     scratch);
    tier_.finish(query, params, points_, res.frontier);
    return std::move(res.frontier);
  }

  void save_quantized_payload(std::FILE* f,
                              const std::string& path) const override {
    tier_.save_store(f, path);
  }

  void load_quantized_payload(std::FILE* f, const std::string& path) override {
    tier_.load_store(f, path, points_.size(), points_.dims());
  }

  // ----------------------------------------------------------------------------

  void save_payload(std::FILE* f, const std::string& path) const override {
    if (tier_.evicted()) {
      // The mmap store holds the exact build-time bytes, so the file is
      // identical to an un-evicted save.
      tier_.write_points_from_store(f, path);
    } else {
      ioutil::write_points(f, points_, path);
    }
    write_graph_index_payload(f, index_, path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    points_ = ioutil::read_points<T>(f, path);
    index_ = read_graph_index_payload<Metric, T>(f, path);
    tier_.reset();  // re-installed afterwards if the file carries a payload
  }

  IndexStats stats() const override {
    IndexStats s;
    s.num_points = num_points();
    s.dims = dims();
    s.memory_bytes = points_.memory_bytes() + index_.graph.memory_bytes() +
                     tier_.memory_bytes();
    s.details = {
        {"num_edges", static_cast<double>(index_.graph.num_edges())},
        {"max_degree", static_cast<double>(index_.graph.max_degree())},
        {"start", static_cast<double>(index_.start)}};
    tier_.append_stats(s);
    return s;
  }

  std::size_t num_points() const override {
    // Budget mode drops the rows; the graph still spans every point.
    return tier_.evicted() ? index_.graph.size() : points_.size();
  }

  std::size_t dims() const override {
    return tier_.evicted() ? tier_.store().dims() : points_.dims();
  }

 private:
  Params params_;
  Builder builder_;
  PointSet<T> points_;
  GraphIndex<Metric, T> index_;
  QuantizedTier<Metric, T> tier_;
};

// --- dynamic_diskann (the mutable backend) -----------------------------------

template <typename Metric, typename T>
class DynamicDiskANNBackend final : public TypedBackend<T>,
                                    public MutableTypedBackend<T> {
 public:
  explicit DynamicDiskANNBackend(DiskANNParams params)
      : params_(std::move(params)) {}

  // build == fresh index + one bulk insert: the dynamic machinery chunks the
  // batch internally, so a bulk load goes through the same deterministic
  // schedule an incremental load would. The by-value parameter is moved
  // straight into the index — no extra copy of the dataset.
  void build(PointSet<T> points) override {
    index_ = std::make_unique<Index>(points.dims(), params_);
    if (points.size() > 0) index_->insert(std::move(points));
  }

  PointId insert(const PointSet<T>& batch) override {
    // An empty index has no committed dims (e.g. a pre-insert save records
    // dims 0), so the first batch (re)establishes them.
    if (index_ == nullptr ||
        (index_->size() == 0 && index_->points().dims() != batch.dims())) {
      index_ = std::make_unique<Index>(batch.dims(), params_);
    } else if (batch.dims() != index_->points().dims()) {
      throw std::invalid_argument(
          "dynamic_diskann insert: batch has dims " +
          std::to_string(batch.dims()) + " but index holds dims " +
          std::to_string(index_->points().dims()));
    }
    return index_->insert(batch);
  }

  void erase(std::span<const PointId> ids) override {
    if (index_ != nullptr) index_->erase(ids);
  }

  void consolidate() override {
    if (index_ != nullptr) index_->consolidate();
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    auto out = index_->query_full(query, params);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    if (index_->start() == kInvalidPoint) return {};
    std::vector<PointId> starts{index_->start()};
    auto matches = ann::range_search<Metric>(query, index_->points(),
                                             index_->graph(), starts, params)
                       .matches;
    // Tombstones stay navigable but must never be returned.
    std::erase_if(matches,
                  [&](const Neighbor& nb) { return index_->is_deleted(nb.id); });
    return matches;
  }

  bool supports_native_filtering() const override { return true; }

  std::vector<Neighbor> filtered_search(
      const T* query, const BoundFilter& filter,
      const QueryParams& params) const override {
    if (index_->start() == kInvalidPoint) return {};
    // Tombstones are just another exclusion predicate here, so they compose
    // with the caller's filter. Fold the tombstone oversearch (query_full's
    // live-fraction widening) into the filter's traversal widening factor.
    QueryParams sp = params;
    double live_frac =
        static_cast<double>(std::max<std::size_t>(index_->num_live(), 1)) /
        static_cast<double>(std::max<std::size_t>(index_->size(), 1));
    sp.filter_beam_factor = std::max(params.filter_beam_factor, 1.0f) /
                            static_cast<float>(std::max(live_frac, 0.1));
    std::vector<PointId> starts{index_->start()};
    auto res = filtered_beam_search<Metric>(
        query, index_->points(), index_->graph(), starts, sp, [&](PointId id) {
          return !index_->is_deleted(id) && filter.matches(id);
        });
    auto out = std::move(res.frontier);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  void save_payload(std::FILE* f, const std::string& path) const override {
    const Index& index = ensure_index();
    ioutil::write_points(f, index.points(), path);
    DynamicIndexState state{index.start(), index.deleted_flags()};
    write_dynamic_state_payload(f, state, path);
    write_graph_payload(f, index.graph(), path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    auto points = ioutil::read_points<T>(f, path);
    DynamicIndexState state = read_dynamic_state_payload(f, path);
    Graph graph = read_graph_payload(f, path);
    // Cross-payload consistency: a crafted/corrupt file must fail with a
    // clean error here, not an out-of-bounds read on the first search.
    if (graph.size() != points.size() ||
        state.deleted.size() != points.size() ||
        (state.start != kInvalidPoint && state.start >= points.size())) {
      throw std::runtime_error("corrupt dynamic index payload: " + path);
    }
    index_ = std::make_unique<Index>(points.dims(), params_);
    index_->restore(std::move(points), std::move(graph), state.start,
                    std::move(state.deleted));
  }

  IndexStats stats() const override {
    IndexStats s;
    if (index_ == nullptr) return s;
    s.num_points = index_->size();
    s.dims = dims();
    s.memory_bytes = index_->points().memory_bytes() +
                     index_->graph().memory_bytes() +
                     index_->deleted_flags().capacity();
    s.details = {
        {"num_live", static_cast<double>(index_->num_live())},
        {"num_deleted", static_cast<double>(index_->num_deleted())},
        {"num_edges", static_cast<double>(index_->graph().num_edges())},
        {"max_degree", static_cast<double>(index_->graph().max_degree())},
        {"start", static_cast<double>(index_->start())}};
    return s;
  }

  std::size_t num_points() const override {
    return index_ == nullptr ? 0 : index_->size();
  }

  std::size_t dims() const override {
    return index_ == nullptr ? 0 : index_->points().dims();
  }

 private:
  using Index = DynamicDiskANN<Metric, T>;

  // save_payload on a never-built handle still needs a (empty) index to
  // serialize; materialize one lazily. Dims are unknown until the first
  // batch, so an empty save records dims 0.
  const Index& ensure_index() const {
    if (index_ == nullptr) {
      const_cast<DynamicDiskANNBackend*>(this)->index_ =
          std::make_unique<Index>(0, params_);
    }
    return *index_;
  }

  DiskANNParams params_;
  std::unique_ptr<Index> index_;
};

// --- hnsw --------------------------------------------------------------------

template <typename Metric, typename T>
class HNSWBackend final : public TypedBackend<T> {
 public:
  explicit HNSWBackend(HNSWParams params) : params_(std::move(params)) {}

  void build(PointSet<T> points) override {
    points_ = std::move(points);
    index_ = build_hnsw<Metric>(points_, params_);
    tier_.reset();
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    tier_.require_raw("search");
    auto res = index_.query_full(query, points_, params);
    auto out = std::move(res.frontier);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    tier_.require_raw("range_search");
    // Descend the hierarchy to the bottom layer, then beam+flood there.
    std::vector<PointId> starts{
        index_.descend_to(ExactOracle<Metric, T>(query, points_), 0)};
    return ann::range_search<Metric>(query, points_, index_.layers[0], starts,
                                     params)
        .matches;
  }

  bool supports_native_filtering() const override { return true; }

  std::vector<Neighbor> filtered_search(
      const T* query, const BoundFilter& filter,
      const QueryParams& params) const override {
    tier_.require_raw("filtered_search");
    // The upper layers only route; the predicate applies to the bottom-layer
    // beam, exactly where the unfiltered search forms its results.
    std::vector<PointId> starts{
        index_.descend_to(ExactOracle<Metric, T>(query, points_), 0)};
    auto res = filtered_beam_search<Metric>(
        query, points_, index_.layers[0], starts, params,
        [&](PointId id) { return filter.matches(id); });
    auto out = std::move(res.frontier);
    if (out.size() > params.k) out.resize(params.k);
    return out;
  }

  // --- quantized tier ---------------------------------------------------------

  bool supports_quantized_search() const override { return true; }
  bool has_quantized() const override { return tier_.attached(); }

  void attach_quantized(const QuantizedSpec& spec) override {
    tier_.attach(points_, spec);
  }

  void export_vector_store(const std::string& path) const override {
    tier_.require_raw("export_vector_store");
    write_vector_store(path, points_);
  }

  std::vector<Neighbor> quantized_search(
      const T* query, const QueryParams& params) const override {
    tier_.require_attached();
    SearchScratch& scratch = local_search_scratch();
    auto qv = tier_.store().bind(query, scratch);
    // The descent runs on codes too: an evicted backend has no rows.
    std::vector<PointId> starts{index_.descend_to(qv, 0, scratch)};
    auto res = quantized_beam_search(qv, index_.layers[0], starts, params,
                                     scratch);
    tier_.finish(query, params, points_, res.frontier);
    return std::move(res.frontier);
  }

  void save_quantized_payload(std::FILE* f,
                              const std::string& path) const override {
    tier_.save_store(f, path);
  }

  void load_quantized_payload(std::FILE* f, const std::string& path) override {
    tier_.load_store(f, path, points_.size(), points_.dims());
  }

  // ----------------------------------------------------------------------------

  void save_payload(std::FILE* f, const std::string& path) const override {
    if (tier_.evicted()) {
      tier_.write_points_from_store(f, path);
    } else {
      ioutil::write_points(f, points_, path);
    }
    write_hnsw_index_payload(f, index_, path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    points_ = ioutil::read_points<T>(f, path);
    index_ = read_hnsw_index_payload<Metric, T>(f, path);
    tier_.reset();
  }

  IndexStats stats() const override {
    IndexStats s;
    s.num_points = num_points();
    s.dims = dims();
    s.memory_bytes =
        points_.memory_bytes() + tier_.memory_bytes() +
        index_.levels.capacity() * sizeof(std::uint32_t);
    for (const auto& layer : index_.layers) s.memory_bytes += layer.memory_bytes();
    std::size_t bottom_edges =
        index_.layers.empty() ? 0 : index_.layers[0].num_edges();
    s.details = {{"num_layers", static_cast<double>(index_.layers.size())},
                 {"entry_level", static_cast<double>(index_.entry_level)},
                 {"bottom_edges", static_cast<double>(bottom_edges)}};
    tier_.append_stats(s);
    return s;
  }

  std::size_t num_points() const override {
    return tier_.evicted() && !index_.layers.empty() ? index_.layers[0].size()
                                                     : points_.size();
  }

  std::size_t dims() const override {
    return tier_.evicted() ? tier_.store().dims() : points_.dims();
  }

 private:
  HNSWParams params_;
  PointSet<T> points_;
  HNSWIndex<Metric, T> index_;
  QuantizedTier<Metric, T> tier_;
};

// --- ivf_flat ----------------------------------------------------------------

template <typename Metric, typename T>
class IVFFlatBackend final : public TypedBackend<T> {
 public:
  explicit IVFFlatBackend(IVFParams params) : params_(std::move(params)) {}

  void build(PointSet<T> points) override {
    points_ = std::move(points);
    index_ = IVFFlat<Metric, T>::build(points_, params_);
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    IVFQueryParams qp{.nprobe = std::max<std::uint32_t>(params.beam_width, 1),
                      .k = params.k};
    return index_.query_full(query, points_, qp);
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    return exact_range_scan<Metric>(points_, query, params.radius);
  }

  void save_payload(std::FILE* f, const std::string& path) const override {
    ioutil::write_points(f, points_, path);
    index_.save_payload(f, path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    points_ = ioutil::read_points<T>(f, path);
    index_ = IVFFlat<Metric, T>::load_payload(f, path);
  }

  IndexStats stats() const override {
    IndexStats s;
    s.num_points = points_.size();
    s.dims = dims();
    s.memory_bytes = points_.memory_bytes() + index_.memory_bytes();
    s.details = {{"num_lists", static_cast<double>(index_.num_lists())}};
    return s;
  }

  std::size_t num_points() const override { return points_.size(); }
  std::size_t dims() const override { return points_.dims(); }

 private:
  IVFParams params_;
  PointSet<T> points_;
  IVFFlat<Metric, T> index_;
};

// --- ivf_pq ------------------------------------------------------------------

template <typename Metric, typename T>
class IVFPQBackend final : public TypedBackend<T> {
 public:
  explicit IVFPQBackend(IVFPQParams params) : params_(std::move(params)) {}

  void build(PointSet<T> points) override {
    points_ = std::move(points);
    index_ = IVFPQ<Metric, T>::build(points_, params_);
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    IVFQueryParams qp{.nprobe = std::max<std::uint32_t>(params.beam_width, 1),
                      .k = params.k};
    return index_.query_full(query, points_, qp);
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    return exact_range_scan<Metric>(points_, query, params.radius);
  }

  void save_payload(std::FILE* f, const std::string& path) const override {
    ioutil::write_points(f, points_, path);
    index_.save_payload(f, path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    points_ = ioutil::read_points<T>(f, path);
    index_ = IVFPQ<Metric, T>::load_payload(f, path);
  }

  IndexStats stats() const override {
    IndexStats s;
    s.num_points = points_.size();
    s.dims = dims();
    s.memory_bytes = points_.memory_bytes() + index_.memory_bytes();
    s.details = {
        {"num_subspaces", static_cast<double>(index_.quantizer().num_subspaces())},
        {"rerank", static_cast<double>(params_.rerank)}};
    return s;
  }

  std::size_t num_points() const override { return points_.size(); }
  std::size_t dims() const override { return points_.dims(); }

 private:
  IVFPQParams params_;
  PointSet<T> points_;
  IVFPQ<Metric, T> index_;
};

// --- lsh ---------------------------------------------------------------------

template <typename Metric, typename T>
class LSHBackend final : public TypedBackend<T> {
 public:
  explicit LSHBackend(LSHParams params) : params_(std::move(params)) {}

  void build(PointSet<T> points) override {
    points_ = std::move(points);
    index_ = LSHIndex<Metric, T>::build(points_, params_);
  }

  std::vector<Neighbor> search(const T* query,
                               const QueryParams& params) const override {
    LSHQueryParams qp{.k = params.k,
                      .multiprobe =
                          std::min(params.beam_width, params_.num_bits)};
    return index_.query_full(query, points_, qp);
  }

  std::vector<Neighbor> range_search(
      const T* query, const RangeSearchParams& params) const override {
    return exact_range_scan<Metric>(points_, query, params.radius);
  }

  void save_payload(std::FILE* f, const std::string& path) const override {
    ioutil::write_points(f, points_, path);
    index_.save_payload(f, path);
  }

  void load_payload(std::FILE* f, const std::string& path) override {
    points_ = ioutil::read_points<T>(f, path);
    index_ = LSHIndex<Metric, T>::load_payload(f, path);
  }

  IndexStats stats() const override {
    IndexStats s;
    s.num_points = points_.size();
    s.dims = dims();
    s.memory_bytes = points_.memory_bytes() + index_.memory_bytes();
    s.details = {{"num_tables", static_cast<double>(index_.num_tables())},
                 {"num_bits", static_cast<double>(params_.num_bits)}};
    return s;
  }

  std::size_t num_points() const override { return points_.size(); }
  std::size_t dims() const override { return points_.dims(); }

 private:
  LSHParams params_;
  PointSet<T> points_;
  LSHIndex<Metric, T> index_;
};

}  // namespace adapters

}  // namespace ann
