// Quantized memory-budget tier (src/quant/): ADC kernel unification,
// QuantizedStore exactness, quantized traversal + exact rerank, the
// evicted/mmap'd budget mode, PANQ container persistence, and the
// mmap-store failure paths. Everything here is deterministic per seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "parlay/scheduler.h"

#include "api/ann.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/recall.h"
#include "filter/label_store.h"
#include "quant/mmap_store.h"
#include "quant/quantized_store.h"

namespace {

using ann::AnyIndex;
using ann::EuclideanSquared;
using ann::IndexSpec;
using ann::MmapVectorStore;
using ann::Neighbor;
using ann::NegInnerProduct;
using ann::PointId;
using ann::PointSet;
using ann::ProductQuantizer;
using ann::QuantizedSpec;
using ann::QuantizedStore;
using ann::QuantKind;
using ann::QueryParams;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

ann::Dataset<std::uint8_t> small_dataset() {
  return ann::make_bigann_like(1200, 30, 77);
}

PointSet<float> to_float(const PointSet<std::uint8_t>& src) {
  PointSet<float> out(src.size(), src.dims());
  for (std::size_t i = 0; i < src.size(); ++i) {
    float* row = out.mutable_point(static_cast<PointId>(i));
    const std::uint8_t* s = src[static_cast<PointId>(i)];
    for (std::size_t j = 0; j < src.dims(); ++j) {
      row[j] = static_cast<float>(s[j]);
    }
  }
  return out;
}

IndexSpec diskann_spec(const std::string& dtype,
                       const std::string& metric = "euclidean") {
  return {.algorithm = "diskann", .metric = metric, .dtype = dtype,
          .params = ann::DiskANNParams{.degree_bound = 24, .beam_width = 64,
                                       .alpha = 1.2f}};
}

const QueryParams kEffort{.beam_width = 64, .k = 10};

// --- satellite 1: the single shared ADC inner loop ---------------------------

// quant::adc_sum (used by both IVF_PQ's scan and the quantized traversal)
// must be bit-identical to the historical sequential table-lookup loop —
// the ADC determinism contract (docs/QUANTIZATION.md).
TEST(QuantKernels, AdcSumBitIdenticalToSequentialLoop) {
  auto ds = small_dataset();
  auto pq = ProductQuantizer<std::uint8_t>::train(
      ds.base, {.num_subspaces = 8, .num_codes = 32});
  auto codes = pq.encode(ds.base);
  const std::size_t width = pq.max_codes();
  const std::uint32_t m = pq.num_subspaces();
  for (std::size_t q = 0; q < 5; ++q) {
    auto table = pq.adc_table(ds.queries[static_cast<PointId>(q)]);
    for (std::size_t i = 0; i < ds.base.size(); i += 7) {
      // The reference: plain sequential subspace-order accumulation.
      float expect = 0.0f;
      for (std::uint32_t s = 0; s < m; ++s) {
        expect += table[s * width + codes[i * m + s]];
      }
      EXPECT_EQ(ann::quant::adc_sum(table.data(), width, codes.data() + i * m,
                                    m),
                expect);
      EXPECT_EQ(pq.adc_eval(table, codes.data(), i), expect);
    }
  }
}

// --- QuantizedStore exactness ------------------------------------------------

// uint8 under L2: code = x - 128 at scale 1 is lossless, so the
// compressed-domain distance equals the exact metric.
TEST(QuantizedStore, Int8IsExactOnUint8L2) {
  auto ds = small_dataset();
  auto store = QuantizedStore<EuclideanSquared, std::uint8_t>::build(
      ds.base, {.kind = QuantKind::kInt8});
  ann::SearchScratch scratch;
  const std::size_t d = ds.base.dims();
  for (std::size_t q = 0; q < 10; ++q) {
    const std::uint8_t* query = ds.queries[static_cast<PointId>(q)];
    auto qv = store.bind(query, scratch);
    const auto prep = EuclideanSquared::prepare(query, d);
    for (std::size_t i = 0; i < ds.base.size(); i += 11) {
      float exact = EuclideanSquared::eval(
          prep, query, ds.base[static_cast<PointId>(i)], d);
      EXPECT_EQ(qv.eval(static_cast<PointId>(i)), exact) << "point " << i;
    }
  }
}

// uint8 under MIPS: the offset-correction bias (qbias + per-point sums)
// must reproduce the exact inner product; all terms are small integers, so
// float arithmetic stays exact up to rounding of the fold.
TEST(QuantizedStore, Int8MipsBiasReproducesExactInnerProduct) {
  auto ds = small_dataset();
  auto store = QuantizedStore<NegInnerProduct, std::uint8_t>::build(
      ds.base, {.kind = QuantKind::kInt8});
  ann::SearchScratch scratch;
  const std::size_t d = ds.base.dims();
  for (std::size_t q = 0; q < 5; ++q) {
    const std::uint8_t* query = ds.queries[static_cast<PointId>(q)];
    auto qv = store.bind(query, scratch);
    const auto prep = NegInnerProduct::prepare(query, d);
    for (std::size_t i = 0; i < ds.base.size(); i += 13) {
      float exact = NegInnerProduct::eval(
          prep, query, ds.base[static_cast<PointId>(i)], d);
      float got = qv.eval(static_cast<PointId>(i));
      // Exact integers up to ~8e6 fit float exactly; the bias fold may
      // round once, so allow a few ulp.
      EXPECT_NEAR(got, exact, std::abs(exact) * 1e-5f + 1e-3f)
          << "point " << i;
    }
  }
}

// float under L2: the scalar quantizer is lossy but bounded by the global
// scale — compressed distances track exact distances to within the
// per-coordinate quantization step.
TEST(QuantizedStore, Int8FloatApproximatesL2) {
  auto ds = small_dataset();
  auto base = to_float(ds.base);
  auto store = QuantizedStore<EuclideanSquared, float>::build(
      base, {.kind = QuantKind::kInt8});
  EXPECT_GT(store.int8_scale(), 0.0f);
  ann::SearchScratch scratch;
  const std::size_t d = base.dims();
  PointSet<float> queries = to_float(ds.queries);
  const float* query = queries[0];
  auto qv = store.bind(query, scratch);
  const auto prep = EuclideanSquared::prepare(query, d);
  for (std::size_t i = 0; i < base.size(); i += 17) {
    float exact =
        EuclideanSquared::eval(prep, query, base[static_cast<PointId>(i)], d);
    float got = qv.eval(static_cast<PointId>(i));
    // Error bound: each coordinate is off by at most scale/2; the cross
    // term dominates, ~ d * scale * |diff|. Loose sanity bound.
    EXPECT_NEAR(got, exact, 0.1f * exact + 1000.0f) << "point " << i;
  }
}

// --- quantized traversal, rerank, eviction -----------------------------------

TEST(QuantizedSearch, RerankRecoversRecall) {
  auto ds = small_dataset();
  auto base = to_float(ds.base);
  auto queries = to_float(ds.queries);
  auto gt = ann::compute_ground_truth<EuclideanSquared>(base, queries, 10);

  auto index = ann::make_index(diskann_spec("float"));
  index.build(base);
  auto full = index.batch_search(queries, kEffort);
  const double full_recall = ann::average_recall(full, gt, 10);

  QuantizedSpec qspec{.kind = QuantKind::kPQ,
                      .pq = {.num_subspaces = 16, .num_codes = 64}};
  index.attach_quantized(qspec);
  EXPECT_TRUE(index.supports_quantized_search());
  EXPECT_TRUE(index.has_quantized());

  QueryParams reranked = kEffort;
  reranked.rerank_count = 50;
  auto quant = index.quantized_batch_search(queries, reranked);
  const double quant_recall = ann::average_recall(quant, gt, 10);
  EXPECT_GE(quant_recall, full_recall - 0.02);
  // Rerank never loses recall against the bare compressed-domain answer.
  const double adc_recall = ann::average_recall(
      index.quantized_batch_search(queries, kEffort), gt, 10);
  EXPECT_GE(quant_recall, adc_recall);

  // Result-shape contract: k results, sorted by (dist, id).
  for (const auto& row : quant) {
    ASSERT_LE(row.size(), 10u);
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_TRUE(row[i - 1] < row[i] || !(row[i] < row[i - 1]));
    }
  }
}

// int8 over uint8 is lossless, so the quantized traversal must reproduce
// full-precision search EXACTLY — ids and distances.
TEST(QuantizedSearch, Int8OverUint8MatchesFullPrecisionExactly) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  auto expect = index.batch_search(ds.queries, kEffort);
  index.attach_quantized({.kind = QuantKind::kInt8});
  auto got = index.quantized_batch_search(ds.queries, kEffort);
  EXPECT_EQ(expect, got);
}

TEST(QuantizedSearch, WorkerCountByteIdentity) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  index.attach_quantized({.kind = QuantKind::kPQ,
                          .pq = {.num_subspaces = 16, .num_codes = 32}});
  QueryParams reranked = kEffort;
  reranked.rerank_count = 30;
  parlay::set_num_workers(1);
  auto seq = index.quantized_batch_search(ds.queries, reranked);
  parlay::set_num_workers(0);
  auto par = index.quantized_batch_search(ds.queries, reranked);
  EXPECT_EQ(seq, par);
}

// HNSW runs the quantized descent through its layer hierarchy.
TEST(QuantizedSearch, HnswQuantizedTraversal) {
  auto ds = small_dataset();
  auto index = ann::make_index(IndexSpec{
      .algorithm = "hnsw", .metric = "euclidean", .dtype = "uint8",
      .params = ann::HNSWParams{.m = 16, .ef_construction = 64}});
  index.build(ds.base);
  auto expect = index.batch_search(ds.queries, kEffort);
  index.attach_quantized({.kind = QuantKind::kInt8});
  auto got = index.quantized_batch_search(ds.queries, kEffort);
  // Lossless int8-over-uint8: the hierarchy descent and the layer-0 beam
  // see identical distances, so results match the full-precision path.
  EXPECT_EQ(expect, got);
}

TEST(QuantizedSearch, EvictedModeServesFromMmapStore) {
  auto ds = small_dataset();
  auto base = to_float(ds.base);
  auto queries = to_float(ds.queries);
  auto index = ann::make_index(diskann_spec("float"));
  index.build(base);
  const std::size_t resident_before = index.stats().memory_bytes;

  auto vec_path = temp_path("ann_test_quant_vectors.panv");
  index.export_vector_store(vec_path);
  index.attach_quantized({.kind = QuantKind::kPQ,
                          .pq = {.num_subspaces = 16, .num_codes = 64},
                          .vectors_path = vec_path,
                          .evict_raw = true});

  auto stats = index.stats();
  EXPECT_LT(stats.memory_bytes, resident_before);
  EXPECT_EQ(stats.num_points, base.size());
  EXPECT_EQ(stats.detail("evicted"), 1.0);
  EXPECT_GT(stats.detail("mapped_bytes"), 0.0);

  // Full-precision entry points are gone.
  EXPECT_THROW(index.search(queries[0], kEffort),
               ann::unsupported_operation);
  EXPECT_THROW(index.range_search(queries[0], 10.0f),
               ann::unsupported_operation);

  // Quantized search with rerank reads exact rows back through the mmap.
  QueryParams reranked = kEffort;
  reranked.rerank_count = 50;
  auto gt = ann::compute_ground_truth<EuclideanSquared>(base, queries, 10);
  auto quant = index.quantized_batch_search(queries, reranked);
  EXPECT_GE(ann::average_recall(quant, gt, 10), 0.8);

  // save() reconstructs the rows from the store: the file must be
  // byte-identical to saving the never-evicted twin.
  auto twin = ann::make_index(diskann_spec("float"));
  twin.build(base);
  twin.attach_quantized({.kind = QuantKind::kPQ,
                         .pq = {.num_subspaces = 16, .num_codes = 64}});
  auto evicted_path = temp_path("ann_test_quant_evicted.pann");
  auto twin_path = temp_path("ann_test_quant_twin.pann");
  index.save(evicted_path);
  twin.save(twin_path);
  EXPECT_EQ(read_file_bytes(evicted_path), read_file_bytes(twin_path));
  std::remove(evicted_path.c_str());
  std::remove(twin_path.c_str());
  std::remove(vec_path.c_str());
}

// Codes-only tier: evicted with no vector store. Traversal works; anything
// needing full-precision rows throws ann::unsupported_operation.
TEST(QuantizedSearch, CodesOnlyTierThrowsWhereRowsAreNeeded) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  index.attach_quantized({.kind = QuantKind::kInt8, .evict_raw = true});

  // ADC-only search still works (int8 is even exact here).
  auto got = index.quantized_batch_search(ds.queries, kEffort);
  EXPECT_EQ(got.size(), ds.queries.size());

  QueryParams reranked = kEffort;
  reranked.rerank_count = 20;
  EXPECT_THROW(index.quantized_search(ds.queries[0], reranked),
               ann::unsupported_operation);
  EXPECT_THROW(index.search(ds.queries[0], kEffort),
               ann::unsupported_operation);
  auto path = temp_path("ann_test_codes_only.pann");
  EXPECT_THROW(index.save(path), ann::unsupported_operation);
  std::remove(path.c_str());
}

// --- attach error paths ------------------------------------------------------

TEST(QuantizedAttach, ErrorPaths) {
  // Cosine: ADC does not decompose — rejected at attach, not at build.
  auto ds = small_dataset();
  {
    auto index = ann::make_index(diskann_spec("uint8", "cosine"));
    index.build(ds.base);
    EXPECT_TRUE(index.supports_quantized_search());
    EXPECT_THROW(index.attach_quantized({.kind = QuantKind::kInt8}),
                 ann::unsupported_operation);
  }
  // Empty index: nothing to train on.
  {
    auto index = ann::make_index(diskann_spec("uint8"));
    EXPECT_THROW(index.attach_quantized({.kind = QuantKind::kInt8}),
                 std::logic_error);
  }
  // Backends without the capability reject attach.
  for (const std::string algorithm :
       {"ivf_flat", "lsh", "dynamic_diskann"}) {
    auto index = ann::make_index(
        IndexSpec{.algorithm = algorithm, .metric = "euclidean",
                  .dtype = "uint8"});
    index.build(ds.base);
    EXPECT_FALSE(index.supports_quantized_search()) << algorithm;
    EXPECT_THROW(index.attach_quantized({.kind = QuantKind::kInt8}),
                 ann::unsupported_operation)
        << algorithm;
  }
  // A vector store whose shape disagrees with the index is rejected.
  {
    auto index = ann::make_index(diskann_spec("uint8"));
    index.build(ds.base);
    auto wrong = ann::make_bigann_like(100, 5, 3);
    auto path = temp_path("ann_test_quant_wrong_shape.panv");
    ann::write_vector_store(path, wrong.base);
    EXPECT_THROW(index.attach_quantized({.kind = QuantKind::kInt8,
                                         .vectors_path = path}),
                 std::invalid_argument);
    std::remove(path.c_str());
  }
}

// --- PANQ container persistence ----------------------------------------------

TEST(QuantizedPersistence, SaveLoadRoundTripsCodesByteIdentically) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  index.attach_quantized({.kind = QuantKind::kPQ,
                          .pq = {.num_subspaces = 16, .num_codes = 32}});
  QueryParams reranked = kEffort;
  reranked.rerank_count = 30;
  auto before = index.quantized_batch_search(ds.queries, reranked);

  auto path = temp_path("ann_test_quant_roundtrip.pann");
  index.save(path);
  auto loaded = AnyIndex::load(path);
  EXPECT_TRUE(loaded.has_quantized());
  auto after = loaded.quantized_batch_search(ds.queries, reranked);
  EXPECT_EQ(before, after);

  // Saving the loaded index reproduces the file byte-for-byte: codebooks
  // and codes survive the round trip exactly.
  auto path2 = temp_path("ann_test_quant_roundtrip2.pann");
  loaded.save(path2);
  EXPECT_EQ(read_file_bytes(path), read_file_bytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(QuantizedPersistence, QuantAndLabelsCoexistInOneContainer) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  ann::LabelStore labels;
  for (std::size_t i = 0; i < ds.base.size(); ++i) {
    labels.add_point_names(i % 2 == 0 ? std::vector<std::string>{"even"}
                                      : std::vector<std::string>{"odd"});
  }
  index.attach_labels(std::move(labels));
  index.attach_quantized({.kind = QuantKind::kInt8});
  auto path = temp_path("ann_test_quant_labels.pann");
  index.save(path);
  auto loaded = AnyIndex::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.has_labels());
  EXPECT_TRUE(loaded.has_quantized());
  EXPECT_EQ(loaded.quantized_batch_search(ds.queries, kEffort),
            index.quantized_batch_search(ds.queries, kEffort));
}

// Pre-quantization containers (no trailing PANQ payload) load unchanged.
TEST(QuantizedPersistence, PlainContainersLoadWithoutQuantPayload) {
  auto ds = small_dataset();
  auto index = ann::make_index(diskann_spec("uint8"));
  index.build(ds.base);
  auto path = temp_path("ann_test_quant_plain.pann");
  index.save(path);
  auto loaded = AnyIndex::load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.has_quantized());
  EXPECT_EQ(loaded.batch_search(ds.queries, kEffort),
            index.batch_search(ds.queries, kEffort));
}

// --- mmap store failure paths (satellite 4) ----------------------------------

TEST(MmapVectorStore, RoundTripAndBoundsCheck) {
  auto ds = small_dataset();
  auto path = temp_path("ann_test_panv_ok.panv");
  ann::write_vector_store(path, ds.base);
  MmapVectorStore<std::uint8_t> store(path);
  EXPECT_EQ(store.size(), ds.base.size());
  EXPECT_EQ(store.dims(), ds.base.dims());
  for (std::size_t i = 0; i < ds.base.size(); i += 37) {
    const std::uint8_t* got = store.row(static_cast<PointId>(i));
    const std::uint8_t* want = ds.base[static_cast<PointId>(i)];
    for (std::size_t j = 0; j < ds.base.dims(); ++j) {
      ASSERT_EQ(got[j], want[j]);
    }
  }
  EXPECT_THROW(store.row(static_cast<PointId>(ds.base.size())),
               std::out_of_range);
  std::remove(path.c_str());
}

TEST(MmapVectorStore, FailurePaths) {
  auto ds = small_dataset();
  const std::string path = temp_path("ann_test_panv_bad.panv");

  // Missing file.
  std::remove(path.c_str());
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  // Zero-length file.
  { std::ofstream(path, std::ios::binary); }
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  // Truncated header.
  {
    std::ofstream out(path, std::ios::binary);
    out.write("PANV", 4);
  }
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  // Wrong magic (valid length).
  ann::write_vector_store(path, ds.base);
  {
    auto good = read_file_bytes(path);
    good[0] = 'X';
    std::ofstream out(path, std::ios::binary);
    out.write(good.data(), static_cast<std::streamsize>(good.size()));
  }
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  // Element-type mismatch: written as uint8, opened as float.
  ann::write_vector_store(path, ds.base);
  EXPECT_THROW(MmapVectorStore<float> s(path), std::runtime_error);

  // Truncated rows: chop the last 10 bytes.
  {
    auto good = read_file_bytes(path);
    good.resize(good.size() - 10);
    std::ofstream out(path, std::ios::binary);
    out.write(good.data(), static_cast<std::streamsize>(good.size()));
  }
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  // Trailing garbage.
  ann::write_vector_store(path, ds.base);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  EXPECT_THROW(MmapVectorStore<std::uint8_t> s(path), std::runtime_error);

  std::remove(path.c_str());
}

// --- memory accounting (satellite 3) -----------------------------------------

// Every backend reports nonzero resident bytes after build, at least the
// size of its coordinate rows (they all hold the point set), and stats()
// keeps reporting sanely after save/load.
TEST(MemoryAccounting, AllBackendsReportResidentBytes) {
  auto ds = small_dataset();
  const std::size_t row_bytes = ds.base.size() * ds.base.dims();
  for (const std::string algorithm :
       {"diskann", "dynamic_diskann", "sharded_diskann", "hnsw", "hcnng",
        "pynndescent", "ivf_flat", "ivf_pq", "lsh"}) {
    IndexSpec spec{.algorithm = algorithm, .metric = "euclidean",
                   .dtype = "uint8"};
    auto index = ann::make_index(spec);
    index.build(ds.base);
    auto stats = index.stats();
    EXPECT_GE(stats.memory_bytes, row_bytes) << algorithm;
    // Monotone-sensible: structure on top of rows, but nothing absurd
    // (under 100x the raw data for these small builds).
    EXPECT_LT(stats.memory_bytes, row_bytes * 100) << algorithm;
  }
}

}  // namespace
