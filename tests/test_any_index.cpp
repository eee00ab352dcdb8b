// Conformance suite for the unified public API (src/api/): every registered
// backend must construct through the registry, build and search with sane
// recall, and round-trip through AnyIndex::save/load bit-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "api/ann.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/recall.h"
#include "test_helpers.h"

namespace {

using ann::AnyIndex;
using ann::IndexSpec;
using ann::Neighbor;
using ann::PointId;
using ann::QueryParams;

struct BackendCase {
  std::string algorithm;
  double min_recall;  // 10@10 at the effort below, deterministic per seed
};

// Effort: beam 64 for graphs; 64 doubles as nprobe (ivf) / multiprobe (lsh).
const QueryParams kEffort{.beam_width = 64, .k = 10};

// LSH is the weakest baseline by design (hash buckets, no refinement);
// IVF-PQ pays compressed-domain error; sharded_diskann pays the
// divide-and-merge quality gap. The other graph algorithms and the
// near-exhaustive IVF-Flat scan (nprobe=64 of 64 lists) must score high.
const std::vector<BackendCase>& backend_cases() {
  static const std::vector<BackendCase> cases = {
      {"diskann", 0.85},     {"dynamic_diskann", 0.85},
      {"sharded_diskann", 0.75}, {"hnsw", 0.85},   {"hcnng", 0.85},
      {"pynndescent", 0.85}, {"ivf_flat", 0.99}, {"ivf_pq", 0.5},
      {"lsh", 0.1},
  };
  return cases;
}

IndexSpec spec_for(const std::string& algorithm) {
  IndexSpec spec{.algorithm = algorithm, .metric = "euclidean",
                 .dtype = "uint8"};
  if (algorithm == "ivf_pq") {
    // Exact re-ranking of the compressed shortlist; default depth 0 would
    // cap recall at the ADC approximation.
    spec.params = ann::IVFPQParams{.rerank = 40};
  }
  return spec;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

ann::Dataset<std::uint8_t> small_dataset() {
  return ann::make_bigann_like(1200, 30, 77);
}

TEST(AnyIndexRegistry, AllBackendsConstructible) {
  for (const auto& c : backend_cases()) {
    auto index = ann::make_index(c.algorithm, "euclidean", "uint8");
    EXPECT_TRUE(index.valid()) << c.algorithm;
    EXPECT_EQ(index.spec().algorithm, c.algorithm);
  }
  // The registry lists all nine builtin algorithm names.
  ann::ensure_builtin_backends();
  auto names = ann::Registry::instance().algorithms();
  for (const auto& c : backend_cases()) {
    EXPECT_NE(std::find(names.begin(), names.end(), c.algorithm), names.end())
        << c.algorithm;
  }
}

TEST(AnyIndexRegistry, MetricAndDtypeAliasesNormalize) {
  auto index = ann::make_index("diskann", "L2", "u8");
  EXPECT_EQ(index.spec().metric, "euclidean");
  EXPECT_EQ(index.spec().dtype, "uint8");
}

TEST(AnyIndexRegistry, UnknownAlgorithmThrows) {
  EXPECT_THROW(ann::make_index("not_an_algorithm", "euclidean", "float"),
               std::invalid_argument);
  // ivf_pq + cosine is intentionally unregistered (ADC doesn't decompose).
  EXPECT_THROW(ann::make_index("ivf_pq", "cosine", "float"),
               std::invalid_argument);
}

TEST(AnyIndexRegistry, WrongAlgorithmParamsThrow) {
  // Params of a different algorithm must not be silently dropped.
  EXPECT_THROW(ann::make_index({.algorithm = "hnsw", .metric = "euclidean",
                                .dtype = "float",
                                .params = ann::DiskANNParams{}}),
               std::invalid_argument);
}

TEST(AnyIndexRegistry, DtypeMismatchThrows) {
  auto ds = small_dataset();
  auto index = ann::make_index("diskann", "euclidean", "float");
  EXPECT_THROW(index.build(ds.base), std::invalid_argument);
}

TEST(AnyIndexRegistry, EmptyHandleThrows) {
  AnyIndex empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.stats(), std::logic_error);
}

TEST(AnyIndexConformance, BuildSearchRecall) {
  auto ds = small_dataset();
  auto gt = ann::compute_ground_truth<ann::EuclideanSquared>(ds.base,
                                                             ds.queries, 10);
  for (const auto& c : backend_cases()) {
    auto index = ann::make_index(spec_for(c.algorithm));
    index.build(ds.base);
    auto results = index.batch_search(ds.queries, kEffort);
    double recall = ann::average_recall(results, gt, 10);
    EXPECT_GE(recall, c.min_recall) << c.algorithm;

    auto stats = index.stats();
    EXPECT_EQ(stats.algorithm, c.algorithm);
    EXPECT_EQ(stats.num_points, ds.base.size());
    EXPECT_EQ(stats.dims, ds.base.dims());
  }
}

TEST(AnyIndexConformance, BatchSearchMatchesSingleQuery) {
  auto ds = small_dataset();
  auto index = ann::make_index(spec_for("diskann"));
  index.build(ds.base);
  auto batch = index.batch_search(ds.queries, kEffort);
  ASSERT_EQ(batch.size(), ds.queries.size());
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    auto single = index.search(ds.queries[static_cast<PointId>(q)], kEffort);
    EXPECT_EQ(batch[q], single) << "query " << q;
  }
}

TEST(AnyIndexConformance, SaveLoadSearchRoundTrip) {
  auto ds = small_dataset();
  for (const auto& c : backend_cases()) {
    auto index = ann::make_index(spec_for(c.algorithm));
    index.build(ds.base);
    auto before = index.batch_search(ds.queries, kEffort);

    auto path = temp_path("any_index_" + c.algorithm + ".pann");
    index.save(path);
    // The caller reloading needs no knowledge of the saved index's type.
    auto loaded = AnyIndex::load(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.spec().algorithm, c.algorithm) << c.algorithm;
    EXPECT_EQ(loaded.spec().dtype, "uint8") << c.algorithm;
    auto after = loaded.batch_search(ds.queries, kEffort);
    EXPECT_EQ(before, after) << c.algorithm;
  }
}

TEST(AnyIndexConformance, SpecParamsSurviveRoundTrip) {
  auto ds = small_dataset();
  // Full-width 64-bit seed: must survive the KV encoding exactly (a double
  // would round it and break rebuild determinism).
  const std::uint64_t wide_seed = 0x9e3779b97f4a7c15ull;
  IndexSpec spec{.algorithm = "diskann", .metric = "euclidean",
                 .dtype = "uint8",
                 .params = ann::DiskANNParams{.degree_bound = 20,
                                              .beam_width = 40,
                                              .alpha = 1.1f,
                                              .seed = wide_seed}};
  auto index = ann::make_index(spec);
  index.build(ds.base);
  auto path = temp_path("any_index_spec.pann");
  index.save(path);
  auto loaded = AnyIndex::load(path);
  std::remove(path.c_str());
  auto params = loaded.spec().params_or<ann::DiskANNParams>();
  EXPECT_EQ(params.degree_bound, 20u);
  EXPECT_EQ(params.beam_width, 40u);
  EXPECT_NEAR(params.alpha, 1.1f, 1e-6);
  EXPECT_EQ(params.seed, wide_seed);
}

// The k contract, uniform across all nine backends: k == 0 returns empty
// (not a throw, not a full scan), and k > num_points clamps to num_points —
// every backend returns exactly the full point set, sorted by (dist, id).
TEST(AnyIndexConformance, KClampUniformAcrossBackends) {
  auto ds = small_dataset();
  for (const auto& c : backend_cases()) {
    auto index = ann::make_index(spec_for(c.algorithm));
    index.build(ds.base);

    QueryParams zero = kEffort;
    zero.k = 0;
    EXPECT_TRUE(index.search(ds.queries[0], zero).empty()) << c.algorithm;
    auto batch_zero = index.batch_search(ds.queries, zero);
    ASSERT_EQ(batch_zero.size(), ds.queries.size()) << c.algorithm;
    for (const auto& row : batch_zero) {
      EXPECT_TRUE(row.empty()) << c.algorithm;
    }

    QueryParams oversized = kEffort;
    oversized.k = static_cast<std::uint32_t>(ds.base.size()) + 100;
    auto hits = index.search(ds.queries[0], oversized);
    EXPECT_LE(hits.size(), ds.base.size()) << c.algorithm;
    // No duplicates and no out-of-range ids slip through the clamp.
    std::vector<PointId> seen;
    for (const auto& nb : hits) {
      EXPECT_LT(nb.id, ds.base.size()) << c.algorithm;
      seen.push_back(nb.id);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << c.algorithm;
  }
}

TEST(AnyIndexConformance, RangeSearchFindsTrueNeighbors) {
  auto ds = small_dataset();
  auto gt = ann::compute_ground_truth<ann::EuclideanSquared>(ds.base,
                                                             ds.queries, 10);
  for (const std::string algorithm : {"diskann", "hnsw", "ivf_flat"}) {
    auto index = ann::make_index(spec_for(algorithm));
    index.build(ds.base);
    // Radius covering each query's true 5 nearest: the result must contain
    // at least most of them (graph range search is exact over the reachable
    // subgraph; ivf_flat's fallback scan is fully exact).
    std::size_t hits = 0, want = 0;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      auto row = gt.row(q);
      float radius = row[4].dist;
      auto matches = index.range_search(
          ds.queries[static_cast<PointId>(q)], radius);
      for (std::size_t j = 0; j < 5; ++j) {
        ++want;
        for (const auto& m : matches) {
          if (m.id == row[j].id) {
            ++hits;
            break;
          }
        }
      }
    }
    EXPECT_GE(static_cast<double>(hits) / static_cast<double>(want), 0.9)
        << algorithm;
  }
}

// Input domain: a NaN or infinite float coordinate is rejected with the
// typed ann::invalid_input at every entry point, before anything changes —
// not answered with k "neighbours" at NaN distance.
TEST(AnyIndexInputDomain, NonFiniteFloatInputsRejected) {
  constexpr std::size_t kDims = 8;
  const auto base = ann::make_uniform<float>(300, kDims, -1, 1, 5);
  const auto queries = ann::make_uniform<float>(4, kDims, -1, 1, 6);
  auto index = ann::make_index(
      {.algorithm = "diskann", .metric = "euclidean", .dtype = "float"});
  index.build(base);
  auto mutable_index = ann::make_index({.algorithm = "dynamic_diskann",
                                        .metric = "euclidean",
                                        .dtype = "float"});
  mutable_index.build(base);
  index.attach_quantized({.kind = ann::QuantKind::kInt8});
  ann::LabelStore labels;
  for (std::size_t i = 0; i < base.size(); ++i) {
    labels.add_point_names({i % 2 == 0 ? "even" : "odd"});
  }
  index.attach_labels(std::move(labels));
  const auto even = ann::FilterSpec::match_any(index.labels(), {"even"});
  const std::vector<ann::FilterSpec> filters(queries.size(), even);
  const QueryParams qp{.beam_width = 16, .k = 5};

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    auto bad_rows = queries;
    bad_rows.mutable_point(2)[kDims - 1] = bad;
    const float* bad_query = bad_rows[2];

    EXPECT_THROW(index.search(bad_query, qp), ann::invalid_input);
    EXPECT_THROW(index.batch_search(bad_rows, qp), ann::invalid_input);
    EXPECT_THROW(index.range_search(bad_query, 1.0f), ann::invalid_input);
    EXPECT_THROW(index.filtered_search(bad_query, even, qp),
                 ann::invalid_input);
    EXPECT_THROW(index.filtered_batch_search(bad_rows, even, qp),
                 ann::invalid_input);
    EXPECT_THROW(index.filtered_batch_search(
                     bad_rows, std::span<const ann::FilterSpec>(filters), qp),
                 ann::invalid_input);
    EXPECT_THROW(index.quantized_search(bad_query, qp), ann::invalid_input);
    EXPECT_THROW(index.quantized_batch_search(bad_rows, qp),
                 ann::invalid_input);

    // Mutation and construction reject the whole batch and change nothing.
    EXPECT_THROW(mutable_index.insert(bad_rows), ann::invalid_input);
    EXPECT_EQ(mutable_index.stats().num_points, base.size());
    auto fresh = ann::make_index(
        {.algorithm = "diskann", .metric = "euclidean", .dtype = "float"});
    auto bad_base = base;
    bad_base.mutable_point(123)[0] = bad;
    EXPECT_THROW(fresh.build(bad_base), ann::invalid_input);
    EXPECT_THROW(fresh.build(std::move(bad_base)), ann::invalid_input);
    EXPECT_EQ(fresh.stats().num_points, 0u);

    // The typed error is inside the ann::error fence and still a
    // std::invalid_argument for pre-taxonomy catch sites.
    try {
      index.search(bad_query, qp);
      ADD_FAILURE() << "non-finite query accepted";
    } catch (const ann::error& e) {
      EXPECT_NE(dynamic_cast<const std::invalid_argument*>(&e), nullptr);
    }
  }
  // Finite inputs still work after the rejections.
  EXPECT_EQ(index.search(queries[0], qp).size(), 5u);
}

// The float fields of the search parameters are held to the same domain on
// every dtype: NaN or +-inf epsilon, filter_beam_factor or radius throws
// ann::invalid_input at every entry point that takes them.
TEST(AnyIndexInputDomain, NonFiniteSearchParamsRejected) {
  constexpr std::size_t kDims = 8;
  const auto base = ann::make_uniform<std::uint8_t>(300, kDims, 0, 255, 5);
  const auto queries = ann::make_uniform<std::uint8_t>(4, kDims, 0, 255, 6);
  auto index = ann::make_index(
      {.algorithm = "diskann", .metric = "euclidean", .dtype = "uint8"});
  index.build(base);
  index.attach_quantized({.kind = ann::QuantKind::kInt8});
  ann::LabelStore labels;
  for (std::size_t i = 0; i < base.size(); ++i) {
    labels.add_point_names({i % 2 == 0 ? "even" : "odd"});
  }
  index.attach_labels(std::move(labels));
  const auto even = ann::FilterSpec::match_any(index.labels(), {"even"});
  const std::vector<ann::FilterSpec> filters(queries.size(), even);
  const std::uint8_t* query = queries[0];

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    for (const bool bad_epsilon : {true, false}) {
      SCOPED_TRACE(bad_epsilon ? "epsilon" : "filter_beam_factor");
      QueryParams qp{.beam_width = 16, .k = 5};
      (bad_epsilon ? qp.epsilon : qp.filter_beam_factor) = bad;
      EXPECT_THROW(index.search(query, qp), ann::invalid_input);
      EXPECT_THROW(index.batch_search(queries, qp), ann::invalid_input);
      EXPECT_THROW(index.filtered_search(query, even, qp),
                   ann::invalid_input);
      EXPECT_THROW(index.filtered_batch_search(queries, even, qp),
                   ann::invalid_input);
      EXPECT_THROW(index.filtered_batch_search(
                       queries, std::span<const ann::FilterSpec>(filters), qp),
                   ann::invalid_input);
      EXPECT_THROW(index.quantized_search(query, qp), ann::invalid_input);
      EXPECT_THROW(index.quantized_batch_search(queries, qp),
                   ann::invalid_input);
    }
    EXPECT_THROW(index.range_search(query, bad), ann::invalid_input);
    ann::RangeSearchParams rp;
    rp.radius = bad;
    EXPECT_THROW(index.range_search(query, rp), ann::invalid_input);
  }
  // Finite parameters, including the auto filter factor, still work.
  const QueryParams ok{.beam_width = 16, .k = 5, .epsilon = 0.1f};
  EXPECT_EQ(index.search(query, ok).size(), 5u);
  EXPECT_FALSE(index.filtered_search(query, even, ok).empty());
}

}  // namespace
