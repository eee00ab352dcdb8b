// bench_quantized_search — release gates for the quantized memory-budget
// tier (src/quant/, docs/QUANTIZATION.md).
//
// Three contracts are enforced (non-zero exit on violation):
//
//   1. MEMORY: on float data, attaching a PQ code store with evict_raw (rows
//      reconstructed from the exported PANV mmap store at rerank time) must
//      shrink IndexStats::memory_bytes by >= 4x. The PQ codebook is a fixed
//      overhead independent of n, so the ratio is only meaningful at
//      reasonable scale: the gate is enforced at n >= 10000 (scale >= 0.5)
//      and printed informationally below that.
//   2. RECALL RECOVERY: quantized traversal + exact rerank of the top
//      rerank_count candidates must hold recall 10@10 within 0.02 of the
//      uncompressed search at the SAME beam width. Deterministic per seed,
//      so enforced at every scale.
//   3. DETERMINISM: quantized_batch_search must be byte-identical between 1
//      worker and the full machine, and the int8 store over uint8 data (a
//      lossless encoding: code = x - 128, scale 1) must reproduce the
//      full-precision search EXACTLY — same ids, same distances.
//   4. PQ TRAINING: codebooks and codes trained on the active SIMD tier must
//      equal those trained on the generic tier (k-means assignment sums in
//      one order on every tier; enforced at every scale). At scale >= 1 on
//      the avx2/avx512 tiers, training must also be >= 1.5x faster than on
//      the generic tier.
//
// Usage: bench_quantized_search [scale]   (ctest smoke runs scale 0.05)
#include "bench_common.h"

#include <cstdio>

#include "core/simd/caps.h"
#include "ivf/pq.h"

namespace {

using namespace ann;

bool identical(const std::vector<std::vector<Neighbor>>& a,
               const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double s = bench::scale_arg(argc, argv);
  const std::size_t n = bench::scaled(20000, s);
  const std::size_t nq = 200;
  int failures = 0;

  std::printf("bench_quantized_search: memory-budget tier gates (n=%zu)\n", n);

  // Float corpus (the memory-reduction claim is about 4-byte elements): the
  // BIGANN-like mixture cast to float, L2 metric.
  auto ds8 = make_bigann_like(n, nq, 42);
  const std::size_t d = ds8.base.dims();
  PointSet<float> base(n, d);
  PointSet<float> queries(nq, d);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = base.mutable_point(static_cast<PointId>(i));
    const std::uint8_t* src = ds8.base[static_cast<PointId>(i)];
    for (std::size_t j = 0; j < d; ++j) row[j] = static_cast<float>(src[j]);
  }
  for (std::size_t i = 0; i < nq; ++i) {
    float* row = queries.mutable_point(static_cast<PointId>(i));
    const std::uint8_t* src = ds8.queries[static_cast<PointId>(i)];
    for (std::size_t j = 0; j < d; ++j) row[j] = static_cast<float>(src[j]);
  }
  auto gt = compute_ground_truth<EuclideanSquared>(base, queries, 10);

  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "float",
                 .params = DiskANNParams{.degree_bound = 24, .beam_width = 64,
                                         .alpha = 1.2f}};
  auto index = make_index(spec);
  double build_s = bench::time_s([&] { index.build(base); });
  const QueryParams effort{.beam_width = 64, .k = 10};

  std::vector<std::vector<Neighbor>> full;
  double full_s = bench::time_s(
      [&] { full = index.batch_search<float>(queries, effort); });
  const double full_recall = average_recall(full, gt, 10);
  const std::size_t baseline_bytes = index.stats().memory_bytes;

  // Attach the budget tier: PQ codes in RAM, full-precision rows evicted to
  // an exported PANV store that exact rerank reads back via mmap.
  const std::string vec_path = "bench_quantized_vectors.panv";
  index.export_vector_store(vec_path);
  QuantizedSpec qspec;
  qspec.kind = QuantKind::kPQ;
  qspec.pq.num_subspaces = 16;
  qspec.pq.num_codes = 256;
  qspec.vectors_path = vec_path;
  qspec.evict_raw = true;
  double train_s = bench::time_s([&] { index.attach_quantized(qspec); });

  IndexStats qstats = index.stats();
  const std::size_t quant_bytes = qstats.memory_bytes;
  const double ratio = quant_bytes > 0
                           ? static_cast<double>(baseline_bytes) /
                                 static_cast<double>(quant_bytes)
                           : 0.0;

  QueryParams qeffort = effort;
  qeffort.rerank_count = 100;
  std::vector<std::vector<Neighbor>> reranked;
  double quant_s = bench::time_s(
      [&] { reranked = index.quantized_batch_search<float>(queries, qeffort); });
  const double quant_recall = average_recall(reranked, gt, 10);

  QueryParams adc_only = effort;  // rerank_count = 0: raw ADC ordering
  auto adc_results = index.quantized_batch_search<float>(queries, adc_only);
  const double adc_recall = average_recall(adc_results, gt, 10);

  Table table({"configuration", "recall10@10", "QPS", "resident_MiB"});
  table.add_row({"full-precision", fmt(full_recall, 4),
                 fmt(static_cast<double>(nq) / full_s, 0),
                 fmt(static_cast<double>(baseline_bytes) / (1 << 20), 2)});
  table.add_row({"pq16 adc only", fmt(adc_recall, 4), "-",
                 fmt(static_cast<double>(quant_bytes) / (1 << 20), 2)});
  table.add_row({"pq16 + rerank100", fmt(quant_recall, 4),
                 fmt(static_cast<double>(nq) / quant_s, 0),
                 fmt(static_cast<double>(quant_bytes) / (1 << 20), 2)});
  std::printf("\n## float %zu-d corpus (build %.2fs, pq train %.2fs)\n", d,
              build_s, train_s);
  table.print();
  std::printf("mapped (non-resident) rerank store: %.2f MiB\n",
              qstats.detail("mapped_bytes") / static_cast<double>(1 << 20));

  // Gate 1: memory reduction.
  std::printf("\nmemory reduction %.2fx (%zu -> %zu bytes)", ratio,
              baseline_bytes, quant_bytes);
  if (n >= 10000) {
    bool pass = ratio >= 4.0;
    std::printf(" (gate >= 4x): %s\n", pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  } else {
    std::printf(" (informational below n=10000: codebook overhead "
                "dominates small corpora)\n");
  }

  // Gate 2: recall recovery through exact rerank.
  {
    bool pass = quant_recall >= full_recall - 0.02;
    std::printf("recall recovery %.4f vs full %.4f "
                "(gate: within 0.02 at equal beam): %s\n",
                quant_recall, full_recall, pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  }

  // Gate 3a: 1-vs-N worker byte identity on the quantized path.
  {
    parlay::set_num_workers(1);
    auto seq = index.quantized_batch_search<float>(queries, qeffort);
    parlay::set_num_workers(0);
    auto par = index.quantized_batch_search<float>(queries, qeffort);
    bool pass = identical(seq, par);
    std::printf("1-vs-N worker byte identity: %s\n", pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  }

  // Gate 3b: the int8 store is lossless over uint8 rows (code = x - 128 at
  // scale 1; L2 sums stay below 2^24 so float accumulation is exact), so
  // quantized traversal must reproduce full-precision search EXACTLY.
  {
    auto u8 = make_index(IndexSpec{
        .algorithm = "diskann", .metric = "euclidean", .dtype = "uint8",
        .params = DiskANNParams{.degree_bound = 24, .beam_width = 64,
                                .alpha = 1.2f}});
    u8.build(ds8.base);
    auto expect = u8.batch_search<std::uint8_t>(ds8.queries, effort);
    QuantizedSpec i8spec;
    i8spec.kind = QuantKind::kInt8;
    u8.attach_quantized(i8spec);
    auto got = u8.quantized_batch_search<std::uint8_t>(ds8.queries, effort);
    bool pass = identical(expect, got);
    std::printf("int8-over-uint8 exactness (quantized == full precision): "
                "%s\n", pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  }

  // Gate 4: PQ training is bit-identical across tiers, and faster on the
  // dispatched ones.
  {
    const PQParams pqp{.num_subspaces = 16, .num_codes = 256};
    ProductQuantizer<float> pq;
    std::vector<std::uint8_t> codes;
    const double active_s = bench::time_s([&] {
      pq = ProductQuantizer<float>::train(base, pqp);
      codes = pq.encode(base);
    });
    ProductQuantizer<float> generic_pq;
    std::vector<std::uint8_t> generic_codes;
    double generic_s = 0.0;
    {
      simd::ScopedTier generic(simd::Tier::kGeneric);
      generic_s = bench::time_s([&] {
        generic_pq = ProductQuantizer<float>::train(base, pqp);
        generic_codes = generic_pq.encode(base);
      });
    }
    const simd::Tier tier = simd::active_tier();
    bool pass = pq == generic_pq && codes == generic_codes;
    std::printf("pq train+encode: %s %.2fs, generic %.2fs (%.2fx)\n",
                simd::tier_name(tier), active_s, generic_s,
                generic_s / active_s);
    std::printf("pq codebooks and codes equal the generic tier's: %s\n",
                pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
    if (s >= 1.0 &&
        (tier == simd::Tier::kAvx2 || tier == simd::Tier::kAvx512)) {
      const bool fast = generic_s >= 1.5 * active_s;
      std::printf("pq train speedup (gate >= 1.5x over generic): %s\n",
                  fast ? "PASS" : "FAIL");
      if (!fast) ++failures;
    }
  }

  std::remove(vec_path.c_str());

  if (failures != 0) {
    std::printf("\nbench_quantized_search: %d verification(s) FAILED\n",
                failures);
    return 1;
  }
  std::printf("\nbench_quantized_search: all verifications passed\n");
  return 0;
}
