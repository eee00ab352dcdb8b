// Open Question 1 extension: the hybrid builder (HCNNG backbone refined by
// DiskANN-style insertion). Quantized graph search (Open Question 3) is
// covered by tests/test_quantized.cpp.
#include <gtest/gtest.h>

#include "algorithms/hybrid.h"
#include "core/dataset.h"
#include "test_helpers.h"

namespace {

using ann::EuclideanSquared;
using ann::HybridParams;

TEST(Hybrid, GraphInvariants) {
  auto ds = ann::make_bigann_like(1000, 10, 3);
  HybridParams prm;
  prm.backbone = {.num_trees = 6, .leaf_size = 150};
  prm.degree_bound = 24;
  auto ix = ann::build_hybrid<EuclideanSquared>(ds.base, prm);
  ann::testutil::check_graph_invariants(ix.graph, 1000, 2 * 24);
  EXPECT_GT(ann::testutil::reachable_fraction(ix.graph, ix.start), 0.99);
}

TEST(Hybrid, AtLeastBackboneQuality) {
  auto ds = ann::make_bigann_like(2000, 50, 5);
  HybridParams prm;
  prm.backbone = {.num_trees = 6, .leaf_size = 150};
  prm.degree_bound = 32;
  auto hybrid = ann::build_hybrid<EuclideanSquared>(ds.base, prm);
  auto backbone = ann::build_hcnng<EuclideanSquared>(ds.base, prm.backbone);
  double r_hybrid = ann::testutil::measure_recall<EuclideanSquared>(
      hybrid, ds.base, ds.queries, 32);
  double r_backbone = ann::testutil::measure_recall<EuclideanSquared>(
      backbone, ds.base, ds.queries, 32);
  EXPECT_GE(r_hybrid, r_backbone - 0.03)
      << "hybrid " << r_hybrid << " vs backbone " << r_backbone;
  EXPECT_GT(r_hybrid, 0.9);
}

TEST(Hybrid, DeterministicAcrossWorkerCounts) {
  auto ds = ann::make_spacev_like(600, 1, 7);
  HybridParams prm;
  prm.backbone = {.num_trees = 4, .leaf_size = 100};
  prm.degree_bound = 16;
  parlay::set_num_workers(1);
  auto a = ann::build_hybrid<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(6);
  auto b = ann::build_hybrid<EuclideanSquared>(ds.base, prm);
  parlay::set_num_workers(0);
  EXPECT_TRUE(a.graph == b.graph);
}

}  // namespace
