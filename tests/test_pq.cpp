// Product quantization.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dataset.h"
#include "ivf/pq.h"

namespace {

using ann::PointId;
using ann::PQParams;
using ann::ProductQuantizer;

TEST(PQ, SubspacePartitionCoversAllDims) {
  auto ds = ann::make_bigann_like(200, 1, 3);
  PQParams prm{.num_subspaces = 7, .num_codes = 16};  // 128 = 7*18+2 uneven
  auto pq = ProductQuantizer<std::uint8_t>::train(ds.base, prm);
  EXPECT_EQ(pq.num_subspaces(), 7u);
  auto codes = pq.encode(ds.base);
  // Decoding yields a full-dimensional vector.
  auto rec = pq.decode(codes.data(), 0);
  EXPECT_EQ(rec.size(), 128u);
}

TEST(PQ, ReconstructionBeatsMeanBaseline) {
  auto ds = ann::make_bigann_like(600, 1, 5);
  PQParams prm{.num_subspaces = 16, .num_codes = 64};
  auto pq = ProductQuantizer<std::uint8_t>::train(ds.base, prm);
  auto codes = pq.encode(ds.base);
  // Mean reconstruction error must be far below the dataset's variance
  // (coding with 16x64 codewords >> coding with the global mean).
  double rec_err = 0, var = 0;
  std::vector<double> mean(128, 0);
  for (std::size_t i = 0; i < 600; ++i) {
    for (std::size_t j = 0; j < 128; ++j) {
      mean[j] += ds.base[static_cast<PointId>(i)][j] / 600.0;
    }
  }
  for (std::size_t i = 0; i < 600; ++i) {
    auto rec = pq.decode(codes.data(), i);
    for (std::size_t j = 0; j < 128; ++j) {
      double dv = rec[j] - ds.base[static_cast<PointId>(i)][j];
      rec_err += dv * dv;
      double dm = mean[j] - ds.base[static_cast<PointId>(i)][j];
      var += dm * dm;
    }
  }
  EXPECT_LT(rec_err, 0.35 * var)
      << "rec_err " << rec_err << " vs variance " << var;
}

TEST(PQ, AdcMatchesDecodedDistance) {
  // ADC(q, code_i) must equal the exact L2^2 between q and decode(i).
  auto ds = ann::make_bigann_like(100, 10, 7);
  PQParams prm{.num_subspaces = 8, .num_codes = 32};
  auto pq = ProductQuantizer<std::uint8_t>::train(ds.base, prm);
  auto codes = pq.encode(ds.base);
  for (std::size_t q = 0; q < 10; ++q) {
    auto table = pq.adc_table(ds.queries[static_cast<PointId>(q)]);
    for (std::size_t i = 0; i < 20; ++i) {
      float adc = pq.adc_eval(table, codes.data(), i);
      auto rec = pq.decode(codes.data(), i);
      float exact = 0;
      for (std::size_t j = 0; j < 128; ++j) {
        float d = rec[j] -
                  static_cast<float>(ds.queries[static_cast<PointId>(q)][j]);
        exact += d * d;
      }
      EXPECT_NEAR(adc, exact, 1e-1 * std::max(1.0f, exact * 1e-4f))
          << "q=" << q << " i=" << i;
    }
  }
}

TEST(PQ, MoreCodesLowerError) {
  auto ds = ann::make_bigann_like(500, 1, 9);
  auto err_with = [&](std::uint32_t codes_n) {
    PQParams prm{.num_subspaces = 8, .num_codes = codes_n};
    auto pq = ProductQuantizer<std::uint8_t>::train(ds.base, prm);
    auto codes = pq.encode(ds.base);
    double err = 0;
    for (std::size_t i = 0; i < 500; ++i) {
      auto rec = pq.decode(codes.data(), i);
      for (std::size_t j = 0; j < 128; ++j) {
        double d = rec[j] - ds.base[static_cast<PointId>(i)][j];
        err += d * d;
      }
    }
    return err;
  };
  EXPECT_LT(err_with(64), err_with(4));
}

TEST(PQ, DeterministicAcrossWorkerCounts) {
  auto ds = ann::make_spacev_like(300, 1, 11);
  PQParams prm{.num_subspaces = 4, .num_codes = 16};
  parlay::set_num_workers(1);
  auto pa = ProductQuantizer<std::int8_t>::train(ds.base, prm);
  auto ca = pa.encode(ds.base);
  parlay::set_num_workers(5);
  auto pb = ProductQuantizer<std::int8_t>::train(ds.base, prm);
  auto cb = pb.encode(ds.base);
  parlay::set_num_workers(0);
  EXPECT_EQ(ca, cb);
}

}  // namespace
