// Open Question 3 bench: deterministic quantized graph search. Traverses a
// DiskANN graph with PQ (ADC) distances + exact re-ranking, against the
// exact-distance traversal, at several beam widths and rerank depths. Runs
// through the public quantized tier (AnyIndex::attach_quantized +
// quantized_search), the same path the serving layer uses.
#include "bench_common.h"

#include "api/ann.h"

int main(int argc, char** argv) {
  using namespace ann;
  double s = bench::scale_arg(argc, argv);
  const std::size_t n = bench::scaled(20000, s);
  const std::size_t nq = 200;
  std::printf("Open Question 3: PQ-compressed graph traversal (n=%zu)\n", n);
  auto ds = make_bigann_like(n, nq, 42);
  auto gt = compute_ground_truth<EuclideanSquared>(ds.base, ds.queries, 10);

  auto index = make_index({.algorithm = "diskann",
                           .metric = "euclidean",
                           .dtype = "uint8",
                           .params = DiskANNParams{.degree_bound = 32,
                                                   .beam_width = 64}});
  index.build(ds.base);
  index.attach_quantized(
      {.kind = QuantKind::kPQ, .pq = {.num_subspaces = 16, .num_codes = 64}});

  auto ids = [](const std::vector<Neighbor>& hits) {
    std::vector<PointId> out;
    out.reserve(hits.size());
    for (const Neighbor& nb : hits) out.push_back(nb.id);
    return out;
  };

  std::vector<bench::SweepPoint> pts;
  for (std::uint32_t beam : {20u, 40u, 80u}) {
    QueryParams qp{.beam_width = beam, .k = 10};
    char label[64];
    std::snprintf(label, sizeof(label), "exact          beam=%u", beam);
    pts.push_back(bench::run_queries(
        label,
        [&](std::size_t q) {
          return ids(index.search(ds.queries[static_cast<PointId>(q)], qp));
        },
        ds.queries, gt));
    for (std::uint32_t rerank : {10u, 40u}) {
      QueryParams pq = qp;
      pq.rerank_count = rerank;
      std::snprintf(label, sizeof(label), "pq rerank=%-3u beam=%u", rerank,
                    beam);
      pts.push_back(bench::run_queries(
          label,
          [&](std::size_t q) {
            return ids(index.quantized_search(
                ds.queries[static_cast<PointId>(q)], pq));
          },
          ds.queries, gt));
    }
  }
  bench::print_sweep("exact vs PQ-compressed traversal", pts);
  return 0;
}
