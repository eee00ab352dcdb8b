// ParlayHNSW: hierarchy shape, invariants, recall, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/hnsw.h"
#include "core/dataset.h"
#include "test_helpers.h"

namespace {

using ann::EuclideanSquared;
using ann::HNSWParams;
using ann::PointId;

TEST(HNSW, LevelsFollowGeometricDistribution) {
  auto ds = ann::make_bigann_like(4000, 1, 3);
  HNSWParams prm{.m = 16, .ef_construction = 32};
  auto index = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  std::size_t level0 = 0, level1 = 0;
  for (auto l : index.levels) {
    if (l == 0) ++level0;
    if (l >= 1) ++level1;
  }
  // With mL = 1/ln(m), P(level >= 1) = 1/m.
  double frac = static_cast<double>(level1) / 4000.0;
  EXPECT_NEAR(frac, 1.0 / 16.0, 0.03);
  EXPECT_GT(level0, 3000u);
}

TEST(HNSW, EntryHasMaxLevel) {
  auto ds = ann::make_bigann_like(1000, 1, 5);
  HNSWParams prm{.m = 8, .ef_construction = 32};
  auto index = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  std::uint32_t top = 0;
  for (auto l : index.levels) top = std::max(top, l);
  EXPECT_EQ(index.entry_level, top);
  EXPECT_EQ(index.levels[index.entry], top);
  EXPECT_EQ(index.layers.size(), top + 1);
}

TEST(HNSW, LayerInvariants) {
  auto ds = ann::make_bigann_like(1200, 1, 7);
  HNSWParams prm{.m = 12, .ef_construction = 32};
  auto index = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  // Bottom layer degree cap 2*2m (slack), upper layers 2*m.
  for (std::size_t l = 0; l < index.layers.size(); ++l) {
    std::uint32_t bound = (l == 0) ? 2 * prm.m : prm.m;
    ann::testutil::check_graph_invariants(index.layers[l], 1200, 2 * bound);
  }
  // Upper-layer vertices must exist in every lower layer: a vertex with
  // edges at layer l should have edges at l-1 too (or be the entry).
  for (std::size_t l = 1; l < index.layers.size(); ++l) {
    for (std::size_t v = 0; v < 1200; ++v) {
      if (index.layers[l].degree(static_cast<PointId>(v)) > 0) {
        EXPECT_GE(index.levels[v], l) << "vertex " << v << " at layer " << l;
      }
    }
  }
}

TEST(HNSW, HighRecall) {
  auto ds = ann::make_bigann_like(2000, 50, 9);
  HNSWParams prm{.m = 16, .ef_construction = 64};
  auto index = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  double recall = ann::testutil::measure_recall<EuclideanSquared>(
      index, ds.base, ds.queries, 64);
  EXPECT_GT(recall, 0.9) << "recall " << recall;
}

TEST(HNSW, DeterministicAcrossWorkerCounts) {
  auto ds = ann::make_spacev_like(700, 1, 11);
  HNSWParams prm{.m = 8, .ef_construction = 32};
  parlay::set_num_workers(1);
  auto a = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(5);
  auto b = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(0);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_TRUE(a.layers[l] == b.layers[l]) << "layer " << l << " differs";
  }
  EXPECT_EQ(a.entry, b.entry);
}

TEST(HNSW, ByteIdenticalLayersAcrossWorkerCountsFloat) {
  // Post-overhaul: per-layer flat reverse-edge merges with reused float
  // distances must stay worker-count invariant on every layer.
  auto ds = ann::make_text2image_like(500, 1, 23);
  HNSWParams prm{.m = 8, .ef_construction = 32};
  parlay::set_num_workers(1);
  auto a = ann::build_hnsw<ann::EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(6);
  auto b = ann::build_hnsw<ann::EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(0);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_TRUE(a.layers[l] == b.layers[l]) << "float layer " << l << " differs";
  }
  EXPECT_EQ(a.entry, b.entry);
}

TEST(HNSW, DescendReachesBottom) {
  auto ds = ann::make_bigann_like(1500, 10, 13);
  HNSWParams prm{.m = 8, .ef_construction = 48};
  auto index = ann::build_hnsw<EuclideanSquared>(ds.base, prm);
  for (std::size_t q = 0; q < ds.queries.size(); ++q) {
    PointId p = index.descend_to(
        ann::ExactOracle<EuclideanSquared, std::uint8_t>(
            ds.queries[static_cast<PointId>(q)], ds.base),
        0);
    EXPECT_LT(p, ds.base.size());
  }
}

TEST(HNSW, TinyInputs) {
  for (std::size_t n : {1u, 2u, 6u}) {
    auto ps = ann::make_uniform<float>(n, 4, 0, 1, 17);
    HNSWParams prm{.m = 4, .ef_construction = 8};
    auto index = ann::build_hnsw<EuclideanSquared>(ps, prm);
    ann::SearchParams sp{.beam_width = 4, .k = 1};
    auto res = index.query(ps[0], ps, sp);
    EXPECT_FALSE(res.empty());
    EXPECT_EQ(res[0], 0u);  // the point itself is its own nearest neighbor
  }
}

}  // namespace
