// Product quantization (Jégou et al.) — the compression half of the FAISS
// baseline (§5, appendix A's "PQ compression for the queries").
//
// The d-dimensional space is split into m contiguous subspaces; each
// subspace gets its own 2^nbits-codeword k-means codebook; a vector is
// stored as m code bytes. Queries use asymmetric distance computation
// (ADC): one table of (m x codebook) exact subdistances per query, then a
// table-lookup sum per database vector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "parlay/parallel.h"

#include "core/beam_search.h"  // Neighbor
#include "core/distance.h"
#include "core/io.h"
#include "core/points.h"
#include "ivf/kmeans.h"
#include "quant/quant_kernels.h"

namespace ann {

struct PQParams {
  std::uint32_t num_subspaces = 8;   // m
  std::uint32_t num_codes = 256;     // codebook size per subspace (2^nbits)
  std::uint32_t kmeans_iters = 8;
  std::uint64_t seed = 9;
};

template <typename T>
class ProductQuantizer {
 public:
  ProductQuantizer() = default;

  static ProductQuantizer train(const PointSet<T>& points,
                                const PQParams& params) {
    ProductQuantizer pq;
    const std::size_t d = points.dims();
    pq.m_ = std::min<std::uint32_t>(params.num_subspaces,
                                    static_cast<std::uint32_t>(d));
    pq.d_ = d;
    pq.sub_dims_.resize(pq.m_);
    pq.sub_offsets_.resize(pq.m_);
    // Contiguous subspaces, remainder spread over the first subspaces.
    std::size_t base = d / pq.m_, extra = d % pq.m_, off = 0;
    for (std::uint32_t s = 0; s < pq.m_; ++s) {
      pq.sub_dims_[s] = base + (s < extra ? 1 : 0);
      pq.sub_offsets_[s] = off;
      off += pq.sub_dims_[s];
    }
    // One codebook per subspace, trained on the projected points.
    pq.codebooks_.reserve(pq.m_);
    for (std::uint32_t s = 0; s < pq.m_; ++s) {
      PointSet<float> sub(points.size(), pq.sub_dims_[s]);
      parlay::parallel_for(0, points.size(), [&](std::size_t i) {
        const T* row = points[static_cast<PointId>(i)];
        float* out = sub.mutable_point(static_cast<PointId>(i));
        for (std::size_t j = 0; j < pq.sub_dims_[s]; ++j) {
          out[j] = static_cast<float>(row[pq.sub_offsets_[s] + j]);
        }
      });
      KMeansParams km{.num_clusters = params.num_codes,
                      .max_iters = params.kmeans_iters,
                      .seed = params.seed + s};
      pq.codebooks_.push_back(kmeans(sub, km).centroids);
    }
    return pq;
  }

  // Encode all points to m-byte codes (row-major n x m). Each row is cast
  // to float once; subspaces are contiguous, so each codebook reads its
  // slice in place.
  std::vector<std::uint8_t> encode(const PointSet<T>& points) const {
    std::vector<std::uint8_t> codes(points.size() * m_);
    std::vector<CentroidBlock> blocks(codebooks_.begin(), codebooks_.end());
    for_each_float_row(points, [&](std::size_t i, const float* row) {
      for (std::uint32_t s = 0; s < m_; ++s) {
        codes[i * m_ + s] = static_cast<std::uint8_t>(
            blocks[s].nearest(row + sub_offsets_[s]));
      }
    });
    return codes;
  }

  // Fill a caller-owned ADC table (m x max_codes() floats) for one query:
  // per-subspace subdistances under Metric. Valid for metrics that decompose
  // over subspaces as a sum (L2^2, negative inner product) — NOT cosine.
  // `query_scratch` receives the float-cast query (subspaces are contiguous,
  // so each subspace's slice is passed to the kernels in place); reusing a
  // pooled buffer keeps the quantized search steady state allocation-free.
  // Entries past a codebook's size are left untouched — codes never index
  // them.
  template <typename Metric = EuclideanSquared>
  void fill_adc_table(const T* q, float* table,
                      std::vector<float>& query_scratch) const {
    const std::size_t width = max_codes();
    query_scratch.resize(d_);
    for (std::size_t j = 0; j < d_; ++j) {
      query_scratch[j] = static_cast<float>(q[j]);
    }
    for (std::uint32_t s = 0; s < m_; ++s) {
      const float* sub = query_scratch.data() + sub_offsets_[s];
      const auto prep = Metric::prepare(sub, sub_dims_[s]);
      for (std::uint32_t c = 0; c < codebooks_[s].size(); ++c) {
        table[s * width + c] =
            Metric::eval(prep, sub, codebooks_[s][c], sub_dims_[s]);
      }
      DistanceCounter::bump(codebooks_[s].size());
    }
  }

  // Allocating wrapper around fill_adc_table (the IVF_PQ probe-scan shape).
  template <typename Metric = EuclideanSquared>
  std::vector<float> adc_table(const T* q) const {
    std::vector<float> table(m_ * max_codes(), 0.0f);
    std::vector<float> query_scratch;
    fill_adc_table<Metric>(q, table.data(), query_scratch);
    return table;
  }

  // Raw table-lookup sum for the i-th encoded vector (uncounted; hot scan
  // loops batch their own DistanceCounter::bump). Delegates to the shared
  // quant kernel — the single ADC inner loop in the codebase.
  float adc_eval(const std::vector<float>& table, const std::uint8_t* codes,
                 std::size_t i) const {
    return quant::adc_sum(table.data(), max_codes(), codes + i * m_, m_);
  }

  // Exact reconstruction distance (decode-and-compare); used in tests.
  std::vector<float> decode(const std::uint8_t* codes, std::size_t i) const {
    std::vector<float> out(d_, 0.0f);
    for (std::uint32_t s = 0; s < m_; ++s) {
      const float* c = codebooks_[s][codes[i * m_ + s]];
      for (std::size_t j = 0; j < sub_dims_[s]; ++j) {
        out[sub_offsets_[s] + j] = c[j];
      }
    }
    return out;
  }

  // Bitwise: same layout and bit-identical codebooks.
  bool operator==(const ProductQuantizer&) const = default;

  std::uint32_t num_subspaces() const { return m_; }
  std::size_t max_codes() const {
    std::size_t w = 0;
    for (const auto& cb : codebooks_) w = std::max(w, cb.size());
    return w;
  }

  // Resident bytes of the trained codebooks (codes are owned by callers).
  std::size_t memory_bytes() const {
    std::size_t total =
        sub_dims_.capacity() * sizeof(std::size_t) +
        sub_offsets_.capacity() * sizeof(std::size_t);
    for (const auto& cb : codebooks_) total += cb.memory_bytes();
    return total;
  }

  void save_payload(std::FILE* f, const std::string& path) const {
    ioutil::write_u32(f, m_, path);
    ioutil::write_u64(f, d_, path);
    for (std::uint32_t s = 0; s < m_; ++s) {
      ioutil::write_u64(f, sub_dims_[s], path);
      ioutil::write_u64(f, sub_offsets_[s], path);
      ioutil::write_points(f, codebooks_[s], path);
    }
  }

  static ProductQuantizer load_payload(std::FILE* f, const std::string& path) {
    ProductQuantizer pq;
    pq.m_ = ioutil::read_u32(f, path);
    pq.d_ = ioutil::read_u64(f, path);
    // Corrupt-header guard: fail cleanly, never allocate from garbage.
    if (pq.m_ > (1u << 16) || pq.d_ > (1ull << 24)) {
      throw std::runtime_error("corrupt pq header: " + path);
    }
    pq.sub_dims_.resize(pq.m_);
    pq.sub_offsets_.resize(pq.m_);
    pq.codebooks_.reserve(pq.m_);
    for (std::uint32_t s = 0; s < pq.m_; ++s) {
      pq.sub_dims_[s] = ioutil::read_u64(f, path);
      pq.sub_offsets_[s] = ioutil::read_u64(f, path);
      pq.codebooks_.push_back(ioutil::read_points<float>(f, path));
    }
    return pq;
  }

 private:
  std::uint32_t m_ = 0;
  std::size_t d_ = 0;
  std::vector<std::size_t> sub_dims_;
  std::vector<std::size_t> sub_offsets_;
  std::vector<PointSet<float>> codebooks_;
};

}  // namespace ann
