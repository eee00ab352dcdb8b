// Golden-output gate for the beam traversal. The identity gates elsewhere
// compare two runs of ONE build (1 vs N workers, SIMD tier vs tier); they
// cannot see a refactor that changes every run the same way. This suite
// pins the traversal's observable output to digests recorded from a known
// good tree:
//
//   * saved-container bytes of uint8 euclidean diskann, hnsw and hcnng
//     indexes (construction runs the same beam walk as queries),
//   * (id, dist) lists of exact, filtered, range and int8-quantized
//     searches on diskann and hnsw, plus the bare beam_search frontier and
//     visited lists under both VisitedSet kinds,
//   * DistanceCounter totals of every phase.
//
// Only integer paths are used: integer kernels are exact, so the digests
// are the same under every SIMD tier and worker count. A mismatch means
// the traversal's behaviour changed; the constants must only ever change
// together with a deliberate, documented change of search semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "algorithms/diskann.h"
#include "api/ann.h"
#include "core/beam_search.h"
#include "core/dataset.h"
#include "core/ground_truth.h"
#include "core/stats.h"
#include "filter/label_store.h"

namespace {

using ann::AnyIndex;
using ann::DistanceCounter;
using ann::FilterSpec;
using ann::Neighbor;
using ann::PointId;
using ann::QueryParams;

constexpr std::size_t kN = 2000;
constexpr std::size_t kQueries = 24;
const QueryParams kEffort{.beam_width = 10, .k = 10};

// FNV-1a over a byte stream; enough to detect any output change.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void list(const std::vector<Neighbor>& row) {
    u64(row.size());
    for (const Neighbor& nb : row) {
      std::uint32_t bits;
      std::memcpy(&bits, &nb.dist, sizeof(bits));
      bytes(&nb.id, sizeof(nb.id));
      bytes(&bits, sizeof(bits));
    }
  }
  void lists(const std::vector<std::vector<Neighbor>>& rows) {
    u64(rows.size());
    for (const auto& row : rows) list(row);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// One phase's expected output: digest of what it returned and the number
// of distance evaluations it counted.
struct Golden {
  std::uint64_t digest;
  std::uint64_t evals;
};

void expect_golden(const char* phase, const Digest& got,
                   std::uint64_t got_evals, const Golden& want) {
  EXPECT_EQ(got.h, want.digest)
      << phase << ": digest " << hex(got.h) << ", recorded "
      << hex(want.digest);
  EXPECT_EQ(got_evals, want.evals)
      << phase << ": " << got_evals << " distance evals, recorded "
      << want.evals;
}

ann::Dataset<std::uint8_t> dataset() {
  return ann::make_bigann_like(kN, kQueries, 4242);
}

ann::LabelStore make_labels(std::size_t n) {
  ann::LabelStore labels;
  for (std::size_t i = 0; i < n; ++i) {
    labels.add_point_names({"parity_" + std::to_string(i % 2),
                            "decile_" + std::to_string(i % 10)});
  }
  return labels;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string saved_bytes(const AnyIndex& index, const std::string& name) {
  const std::string path = temp_path("traversal_golden_" + name + ".ann");
  index.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

struct BackendGolden {
  const char* algorithm;
  Golden build;     // container bytes + construction evals
  Golden exact;     // batch_search
  Golden filtered;  // decile (~0.1) then parity (~0.5) filters
  Golden range;     // radius = exact 10th-NN distance per query
  Golden int8;      // int8 codes, no rerank then rerank 20
};

// Recorded from the single-loop-per-variant traversal (three beam loops in
// core/beam_search.h) before the loops were folded into one walk.
const BackendGolden kBackends[] = {
    {"diskann",
     {0xf50057f7c6fc9275ull, 1012927},
     {0xedb3411679cf7ef8ull, 5112},
     {0x5666e9ed365f777eull, 13226},
     {0xe1fb23bc166ee647ull, 9547},
     {0x8c35082c0801b943ull, 10464}},
    {"hnsw",
     {0x7e2d841aae729a0cull, 781899},
     {0x2d21bcf7f35422bcull, 3367},
     {0xe42bd6b4c207d49full, 9984},
     {0xe5bb5b2c97796430ull, 7537},
     {0x36eb103565bd190bull, 6974}},
};
const Golden kHcnngBuild{0xb5fcbcb18b4384ecull, 4632426};
const Golden kBareApprox{0x2d54986cd1e26da3ull, 5355};
const Golden kBareExact{0x2d54986cd1e26da3ull, 4878};

TEST(TraversalGolden, GraphBackends) {
  const auto ds = dataset();
  const auto gt =
      ann::compute_ground_truth<ann::EuclideanSquared>(ds.base, ds.queries,
                                                       10);
  const ann::LabelStore labels = make_labels(kN);
  const FilterSpec decile = FilterSpec::match_any(labels, {"decile_3"});
  const FilterSpec parity = FilterSpec::match_any(labels, {"parity_1"});

  for (const BackendGolden& want : kBackends) {
    SCOPED_TRACE(want.algorithm);
    auto index = ann::make_index(want.algorithm, "euclidean", "uint8");

    DistanceCounter::reset();
    index.build(ds.base);
    const std::uint64_t evals = DistanceCounter::total();
    const std::string bytes = saved_bytes(index, want.algorithm);
    Digest build;
    build.bytes(bytes.data(), bytes.size());
    expect_golden("build", build, evals, want.build);

    DistanceCounter::reset();
    Digest exact;
    exact.lists(index.batch_search(ds.queries, kEffort));
    expect_golden("exact", exact, DistanceCounter::total(), want.exact);

    index.attach_labels(labels);
    DistanceCounter::reset();
    Digest filtered;
    filtered.lists(index.filtered_batch_search(ds.queries, decile, kEffort));
    filtered.lists(index.filtered_batch_search(ds.queries, parity, kEffort));
    expect_golden("filtered", filtered, DistanceCounter::total(),
                  want.filtered);

    DistanceCounter::reset();
    Digest range;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
      range.list(index.range_search(ds.queries[static_cast<PointId>(q)],
                                    gt.row(q)[9].dist));
    }
    expect_golden("range", range, DistanceCounter::total(), want.range);

    index.attach_quantized({.kind = ann::QuantKind::kInt8});
    DistanceCounter::reset();
    Digest int8;
    int8.lists(index.quantized_batch_search(ds.queries, kEffort));
    QueryParams reranked = kEffort;
    reranked.rerank_count = 20;
    int8.lists(index.quantized_batch_search(ds.queries, reranked));
    expect_golden("int8", int8, DistanceCounter::total(), want.int8);
  }
}

TEST(TraversalGolden, HcnngContainer) {
  const auto ds = dataset();
  auto index = ann::make_index("hcnng", "euclidean", "uint8");
  DistanceCounter::reset();
  index.build(ds.base);
  const std::uint64_t evals = DistanceCounter::total();
  const std::string bytes = saved_bytes(index, "hcnng");
  Digest build;
  build.bytes(bytes.data(), bytes.size());
  expect_golden("hcnng build", build, evals, kHcnngBuild);
}

// The bare routine: frontier AND visited list (the construction prune
// pool), under the default approximate seen-table and the exact reference.
TEST(TraversalGolden, BareBeamSearch) {
  const auto ds = dataset();
  const auto index = ann::build_diskann<ann::EuclideanSquared>(
      ds.base, ann::DiskANNParams{.degree_bound = 24, .beam_width = 48});
  const std::vector<PointId> starts{index.start};
  const ann::SearchParams sp{.beam_width = 24, .k = 10, .epsilon = 0.1f};

  Digest approx, exact;
  DistanceCounter::reset();
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    auto r = ann::beam_search<ann::EuclideanSquared>(
        ds.queries[static_cast<PointId>(q)], ds.base, index.graph, starts, sp);
    approx.list(r.frontier);
    approx.list(r.visited);
  }
  expect_golden("beam_search approx", approx, DistanceCounter::total(),
                kBareApprox);

  DistanceCounter::reset();
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    auto r = ann::beam_search<ann::EuclideanSquared, std::uint8_t,
                              ann::ExactVisitedSet>(
        ds.queries[static_cast<PointId>(q)], ds.base, index.graph, starts, sp);
    exact.list(r.frontier);
    exact.list(r.visited);
  }
  expect_golden("beam_search exact", exact, DistanceCounter::total(),
                kBareExact);
}

}  // namespace
