// QuantizedStore — compressed in-memory codes serving asymmetric distance
// computation (ADC) behind the prepare()/eval() kernel protocol, the
// traversal half of the DiskANN recipe (Subramanya et al., NeurIPS'19):
// the beam walks the graph over these codes while the full-precision rows
// live out of RAM (quant/mmap_store.h) and only the top rerank_count
// survivors are re-scored exactly.
//
// Two code families behind one surface:
//   * kPQ   — product quantization reusing src/ivf/pq.h's trained
//             codebooks; the prepared query state is the per-subspace ADC
//             lookup table (filled into SearchScratch, zero-alloc steady
//             state), evaluated by the shared quant::adc_sum kernel.
//   * kInt8 — scalar quantization to one int8 per coordinate with a global
//             scale (uint8 data stores x-128 exactly; int8 data is a
//             passthrough, so integer datasets lose nothing); the prepared
//             state is the quantized query plus a MIPS offset-correction
//             bias.
//
// Metric scope: ADC needs the metric to decompose over subspaces as a sum,
// so L2^2 and negative inner product qualify and cosine does not — the
// adapters reject cosine at attach with ann::unsupported_operation.
//
// Determinism: code training (k-means / a parallel max-reduce for the
// scale) and encoding are deterministic; eval accumulates in the fixed
// sequential order documented in quant/quant_kernels.h. The quantized beam
// is therefore byte-identical across worker counts, same as the
// full-precision path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "parlay/parallel.h"
#include "parlay/sequence_ops.h"

#include "core/beam_search.h"
#include "core/distance.h"
#include "core/index_io.h"
#include "core/io.h"
#include "core/points.h"
#include "ivf/pq.h"
#include "quant/quant_kernels.h"
#include "quant/quant_spec.h"

namespace ann {

// Prepared-query state for one quantized evaluation pass. Views into
// SearchScratch buffers — valid until the next bind() on that scratch.
struct QuantPrepared {
  const float* table = nullptr;  // kPQ: m x width ADC lookup table
  std::size_t width = 0;
  const std::int8_t* q8 = nullptr;  // kInt8: quantized query
  float qbias = 0.0f;               // kInt8 MIPS: query-side offset term
};

template <typename Metric, typename T>
class QuantizedStore;

// The beam walk's distance oracle over codes (core/beam_search.h): eval(id)
// is the compressed-domain distance of the prepared query to point id.
template <typename Metric, typename T>
struct QuantizedQuery {
  const QuantizedStore<Metric, T>* store = nullptr;
  QuantPrepared prep;

  float eval(PointId id) const { return store->eval(prep, id); }
  // Forced inline for the reason given at beam_prefetch_point.
  [[gnu::always_inline]] void prefetch(PointId id) const {
    store->prefetch(id);
  }
};

template <typename Metric, typename T>
class QuantizedStore {
  // Note: cosine instantiations must compile (the backends instantiate this
  // for every metric) but are rejected at runtime before build() ever runs —
  // ADC does not decompose for cosine (see attach_quantized).
  static constexpr bool kMips = std::is_same_v<Metric, NegInnerProduct>;

 public:
  QuantizedStore() = default;

  static QuantizedStore build(const PointSet<T>& points,
                              const QuantizedSpec& spec) {
    QuantizedStore store;
    store.kind_ = spec.kind;
    store.n_ = points.size();
    store.d_ = points.dims();
    if (spec.kind == QuantKind::kPQ) {
      store.pq_ = ProductQuantizer<T>::train(points, spec.pq);
      store.pq_codes_ = store.pq_.encode(points);
      store.m_ = store.pq_.num_subspaces();
      store.width_ = store.pq_.max_codes();
    } else {
      store.build_int8(points);
    }
    return store;
  }

  QuantKind kind() const { return kind_; }
  std::size_t size() const { return n_; }
  std::size_t dims() const { return d_; }

  // Prepare the query into `scratch` (buffers are resized once and reused —
  // steady-state binds allocate nothing) and return the traversal view.
  // Table construction is counted like any other prepared-query setup
  // (fill_adc_table bumps per codebook; the int8 quantization is one pass).
  QuantizedQuery<Metric, T> bind(const T* query, SearchScratch& scratch) const {
    QuantPrepared prep;
    if (kind_ == QuantKind::kPQ) {
      scratch.adc_table.resize(m_ * width_);
      pq_.template fill_adc_table<Metric>(query, scratch.adc_table.data(),
                                          scratch.quant_query_f);
      prep.table = scratch.adc_table.data();
      prep.width = width_;
    } else {
      scratch.quant_query_i8.resize(d_);
      std::int64_t qsum = 0;
      for (std::size_t j = 0; j < d_; ++j) {
        std::int8_t code = quantize_value(query[j]);
        scratch.quant_query_i8[j] = code;
        qsum += code;
      }
      prep.q8 = scratch.quant_query_i8.data();
      if constexpr (kMips) {
        // <q, x> over uint8 data expands to <q8, x8> + off*sum(x8) +
        // off*sum(q8) + off^2*d; the last two are query constants folded
        // into qbias here, the per-point term uses sums_ in eval().
        prep.qbias =
            -scale2_ * static_cast<float>(offset_) *
            (static_cast<float>(qsum) +
             static_cast<float>(offset_) * static_cast<float>(d_));
      }
    }
    return {this, prep};
  }

  // Compressed-domain distance of the prepared query to point id
  // (uncounted; the traversal batches its DistanceCounter::bump).
  float eval(const QuantPrepared& prep, PointId id) const {
    if (kind_ == QuantKind::kPQ) {
      return quant::adc_sum(prep.table, prep.width,
                            pq_codes_.data() + static_cast<std::size_t>(id) * m_,
                            m_);
    }
    const std::int8_t* row =
        i8_codes_.data() + static_cast<std::size_t>(id) * d_;
    if constexpr (kMips) {
      float dot = static_cast<float>(quant::i8_dot(prep.q8, row, d_));
      float point_term =
          sums_.empty() ? 0.0f
                        : static_cast<float>(offset_) *
                              static_cast<float>(sums_[id]);
      return -scale2_ * (dot + point_term) + prep.qbias;
    } else {
      return scale2_ * static_cast<float>(quant::i8_l2(prep.q8, row, d_));
    }
  }

  // Forced inline for the reason given at beam_prefetch_point.
  [[gnu::always_inline]] void prefetch(PointId id) const {
    const char* p =
        kind_ == QuantKind::kPQ
            ? reinterpret_cast<const char*>(
                  pq_codes_.data() + static_cast<std::size_t>(id) * m_)
            : reinterpret_cast<const char*>(
                  i8_codes_.data() + static_cast<std::size_t>(id) * d_);
    __builtin_prefetch(p, 0, 3);
  }

  // Resident bytes of codes + codebooks + corrections — what replaces the
  // full-precision rows in the memory budget.
  std::size_t memory_bytes() const {
    return pq_.memory_bytes() + pq_codes_.capacity() +
           i8_codes_.capacity() + sums_.capacity() * sizeof(std::int32_t);
  }

  const ProductQuantizer<T>& quantizer() const { return pq_; }
  float int8_scale() const { return scale_; }

  // --- persistence (the "PANQ" trailing container payload) -------------------

  void save_payload(std::FILE* f, const std::string& path) const {
    ioutil::write_u32(f, internal::kQuantStoreMagic, path);
    ioutil::write_u32(f, internal::kQuantStoreVersion, path);
    ioutil::write_u32(f, static_cast<std::uint32_t>(kind_), path);
    ioutil::write_u64(f, n_, path);
    ioutil::write_u64(f, d_, path);
    if (kind_ == QuantKind::kPQ) {
      pq_.save_payload(f, path);
      ioutil::write_u64(f, pq_codes_.size(), path);
      ioutil::write_bytes(f, pq_codes_.data(), pq_codes_.size(), path);
    } else {
      ioutil::write_f64(f, scale_, path);
      ioutil::write_u32(f, static_cast<std::uint32_t>(offset_), path);
      ioutil::write_u64(f, i8_codes_.size(), path);
      ioutil::write_bytes(f, i8_codes_.data(), i8_codes_.size(), path);
      ioutil::write_u64(f, sums_.size(), path);
      ioutil::write_bytes(f, sums_.data(), sums_.size() * sizeof(std::int32_t),
                          path);
    }
  }

  static QuantizedStore load_payload(std::FILE* f, const std::string& path) {
    if (ioutil::read_u32(f, path) != internal::kQuantStoreMagic) {
      throw std::runtime_error("not a quantized-store payload: " + path);
    }
    if (ioutil::read_u32(f, path) != internal::kQuantStoreVersion) {
      throw std::runtime_error("unsupported quantized-store version: " + path);
    }
    QuantizedStore store;
    std::uint32_t kind = ioutil::read_u32(f, path);
    if (kind > static_cast<std::uint32_t>(QuantKind::kInt8)) {
      throw std::runtime_error("corrupt quantized-store header: " + path);
    }
    store.kind_ = static_cast<QuantKind>(kind);
    store.n_ = ioutil::read_u64(f, path);
    store.d_ = ioutil::read_u64(f, path);
    if (store.d_ == 0 || store.d_ > (1ull << 24) ||
        store.n_ > (1ull << 48) / store.d_) {
      throw std::runtime_error("corrupt quantized-store header: " + path);
    }
    if (store.kind_ == QuantKind::kPQ) {
      store.pq_ = ProductQuantizer<T>::load_payload(f, path);
      store.m_ = store.pq_.num_subspaces();
      store.width_ = store.pq_.max_codes();
      std::uint64_t bytes = ioutil::read_u64(f, path);
      if (bytes != store.n_ * store.m_) {
        throw std::runtime_error("corrupt quantized-store payload: " + path);
      }
      store.pq_codes_.resize(bytes);
      ioutil::read_bytes(f, store.pq_codes_.data(), bytes, path);
    } else {
      store.scale_ = static_cast<float>(ioutil::read_f64(f, path));
      store.offset_ = static_cast<std::int32_t>(ioutil::read_u32(f, path));
      store.scale2_ = store.scale_ * store.scale_;
      std::uint64_t bytes = ioutil::read_u64(f, path);
      if (bytes != store.n_ * store.d_) {
        throw std::runtime_error("corrupt quantized-store payload: " + path);
      }
      store.i8_codes_.resize(bytes);
      ioutil::read_bytes(f, store.i8_codes_.data(), bytes, path);
      std::uint64_t sums = ioutil::read_u64(f, path);
      if (sums != 0 && sums != store.n_) {
        throw std::runtime_error("corrupt quantized-store payload: " + path);
      }
      store.sums_.resize(sums);
      ioutil::read_bytes(f, store.sums_.data(), sums * sizeof(std::int32_t),
                         path);
    }
    return store;
  }

 private:
  void build_int8(const PointSet<T>& points) {
    if constexpr (std::is_same_v<T, float>) {
      // Global symmetric scale from the dataset's max |x| — a deterministic
      // parallel max-reduce (exact and associative).
      float maxabs = parlay::reduce(
          parlay::tabulate(points.size(), [&](std::size_t i) {
            const float* row = points[static_cast<PointId>(i)];
            float m = 0.0f;
            for (std::size_t j = 0; j < d_; ++j) {
              m = std::max(m, std::fabs(row[j]));
            }
            return m;
          }),
          0.0f, [](float a, float b) { return std::max(a, b); });
      scale_ = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
      offset_ = 0;
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      scale_ = 1.0f;
      offset_ = 128;  // x - 128 fits int8 exactly; L2 differences cancel it
    } else {
      scale_ = 1.0f;
      offset_ = 0;  // int8 data passes through unchanged (exact)
    }
    scale2_ = scale_ * scale_;
    i8_codes_.resize(n_ * d_);
    const bool need_sums = kMips && offset_ != 0;
    if (need_sums) sums_.resize(n_);
    parlay::parallel_for(0, n_, [&](std::size_t i) {
      const T* row = points[static_cast<PointId>(i)];
      std::int8_t* out = i8_codes_.data() + i * d_;
      std::int64_t sum = 0;
      for (std::size_t j = 0; j < d_; ++j) {
        out[j] = quantize_value(row[j]);
        sum += out[j];
      }
      if (need_sums) sums_[i] = static_cast<std::int32_t>(sum);
    });
  }

  std::int8_t quantize_value(T v) const {
    if constexpr (std::is_same_v<T, float>) {
      float scaled = v / scale_;
      return static_cast<std::int8_t>(
          std::lround(std::clamp(scaled, -127.0f, 127.0f)));
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      return static_cast<std::int8_t>(static_cast<int>(v) - offset_);
    } else {
      return static_cast<std::int8_t>(v);
    }
  }

  QuantKind kind_ = QuantKind::kPQ;
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  // kPQ
  ProductQuantizer<T> pq_;
  std::vector<std::uint8_t> pq_codes_;  // n x m
  std::uint32_t m_ = 0;
  std::size_t width_ = 0;
  // kInt8
  float scale_ = 1.0f;
  float scale2_ = 1.0f;
  std::int32_t offset_ = 0;
  std::vector<std::int8_t> i8_codes_;  // n x d
  std::vector<std::int32_t> sums_;     // per-point code sums (uint8 MIPS only)
};

// Exact rerank: re-score the top `rerank` frontier entries from
// full-precision rows (RowFn: PointId -> const T*), re-sort by (dist, id)
// and truncate the frontier to them — entries past the rerank horizon keep
// incomparable compressed-domain distances, so they are dropped. One
// batched DistanceCounter::bump for the pass.
template <typename Metric, typename T, typename RowFn>
void exact_rerank(const T* query, std::size_t dims,
                  std::vector<Neighbor>& frontier, std::size_t rerank,
                  const RowFn& row) {
  const std::size_t r = std::min(rerank, frontier.size());
  if (r == 0) return;
  const auto prep = Metric::prepare(query, dims);
  for (std::size_t i = 0; i < r; ++i) {
    beam_prefetch_point(row(frontier[i].id), dims);
  }
  for (std::size_t i = 0; i < r; ++i) {
    frontier[i].dist = Metric::eval(prep, query, row(frontier[i].id), dims);
  }
  DistanceCounter::bump(r);
  std::sort(frontier.begin(), frontier.begin() + static_cast<std::ptrdiff_t>(r));
  frontier.resize(r);
}

}  // namespace ann
