// Golden-output gate for k-means and everything trained with it. The
// determinism tests elsewhere compare two runs of ONE build (1 vs N
// workers); they cannot see a change of the assignment kernel that moves
// every run the same way. This suite pins the observable output to digests
// recorded from a known good tree:
//
//   * kmeans() centroids, assignment and distance-evaluation count for
//     float d = 128, uint8 d = 8 (a PQ subspace) and uint8 d = 128, each
//     with k = 100 (not a multiple of any vector width),
//   * ProductQuantizer codebooks and codes for uint8 m = 16 and float
//     m = 8 (25-dim subspaces, so the lane tails are exercised),
//   * saved-container bytes of ivf_flat, ivf_pq and sharded_diskann, whose
//     lists, codes and shards are k-means clusterings.
//
// K-means assignment compares float centroids under one fixed float
// summation order on every SIMD tier, so the digests are the same under
// every tier and worker count. A mismatch means the clustering changed;
// the constants must only ever change together with a deliberate,
// documented change of the training semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/ann.h"
#include "core/dataset.h"
#include "core/stats.h"
#include "ivf/kmeans.h"
#include "ivf/pq.h"

namespace {

using ann::DistanceCounter;
using ann::PointId;
using ann::PointSet;

constexpr std::size_t kN = 2000;

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
  template <typename T>
  void points(const PointSet<T>& ps) {
    const std::uint64_t shape[2] = {ps.size(), ps.dims()};
    bytes(shape, sizeof(shape));
    for (std::size_t i = 0; i < ps.size(); ++i) {
      bytes(ps[static_cast<PointId>(i)], ps.dims() * sizeof(T));
    }
  }
  // The bytes an object's save_payload(FILE*, path) writes.
  template <typename Saveable>
  void payload(const Saveable& obj) {
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    obj.save_payload(f, "tmpfile");
    std::rewind(f);
    unsigned char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes(buf, got);
    std::fclose(f);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof(n));
    bytes(v.data(), v.size() * sizeof(T));
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

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

// The first `d` dims of the bigann-like rows: a PQ-subspace-shaped input.
PointSet<std::uint8_t> uint8_points(std::size_t d) {
  const auto ds = ann::make_bigann_like(kN, 1, 4343);
  PointSet<std::uint8_t> out(kN, d);
  for (std::size_t i = 0; i < kN; ++i) {
    out.set_point(static_cast<PointId>(i), ds.base[static_cast<PointId>(i)]);
  }
  return out;
}

template <typename T>
void check_kmeans(const char* phase, const PointSet<T>& points,
                  const Golden& want) {
  const ann::KMeansParams km{.num_clusters = 100, .max_iters = 8, .seed = 5};
  DistanceCounter::reset();
  const auto res = ann::kmeans(points, km);
  const std::uint64_t evals = DistanceCounter::total();
  Digest got;
  got.points(res.centroids);
  got.vec(res.assignment);
  expect_golden(phase, got, evals, want);
}

template <typename T>
void check_pq(const char* phase, const PointSet<T>& points,
              std::uint32_t m, const Golden& want) {
  const ann::PQParams params{.num_subspaces = m, .num_codes = 256,
                             .kmeans_iters = 6, .seed = 11};
  DistanceCounter::reset();
  const auto pq = ann::ProductQuantizer<T>::train(points, params);
  const auto codes = pq.encode(points);
  const std::uint64_t evals = DistanceCounter::total();
  Digest got;
  got.payload(pq);  // subspace layout and codebooks
  got.vec(codes);
  expect_golden(phase, got, evals, want);
}

std::string saved_bytes(const ann::AnyIndex& index, const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("kmeans_golden_" + name +
                                                 ".ann"))
          .string();
  index.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

// Recorded from the row-by-row nearest_centroid scan (one l2_kernel call
// per centroid) before the assignment moved to a dispatched kernel.
const Golden kKMeansFloat128{0x565c18abacfe4ad6ull, 1600000};
const Golden kKMeansUint8x8{0x02dbb545145c423cull, 1600000};
const Golden kKMeansUint8x128{0xd9d1f14688bbc917ull, 1600000};
const Golden kPQUint8M16{0x82fb08f2363d87a5ull, 57344000};
const Golden kPQFloatM8{0xe8dbef8a5c5ac1a6ull, 28672000};

struct ContainerGolden {
  const char* algorithm;
  Golden build;
};
const ContainerGolden kContainers[] = {
    {"ivf_flat", {0x41f70c1fd26e51f6ull, 1024000}},
    {"ivf_pq", {0x2fcb81c593d4e9e0ull, 37888000}},
    {"sharded_diskann", {0xb78ed362e33036d1ull, 1977089}},
};

TEST(KMeansGolden, KMeansCentroidsAndAssignment) {
  check_kmeans("kmeans float d=128",
               ann::make_uniform<float>(kN, 128, -1.0, 1.0, 77),
               kKMeansFloat128);
  check_kmeans("kmeans uint8 d=8", uint8_points(8), kKMeansUint8x8);
  check_kmeans("kmeans uint8 d=128", uint8_points(128), kKMeansUint8x128);
}

TEST(KMeansGolden, ProductQuantizerCodebooksAndCodes) {
  check_pq("pq uint8 m=16", uint8_points(128), 16, kPQUint8M16);
  check_pq("pq float m=8", ann::make_text2image_like(kN, 1, 45).base, 8,
           kPQFloatM8);
}

TEST(KMeansGolden, ClusteredContainers) {
  const auto points = uint8_points(128);
  for (const ContainerGolden& want : kContainers) {
    SCOPED_TRACE(want.algorithm);
    auto index = ann::make_index(want.algorithm, "euclidean", "uint8");
    DistanceCounter::reset();
    index.build(points);
    const std::uint64_t evals = DistanceCounter::total();
    const std::string bytes = saved_bytes(index, want.algorithm);
    Digest got;
    got.bytes(bytes.data(), bytes.size());
    expect_golden(want.algorithm, got, evals, want.build);
  }
}

}  // namespace
