// Inputs shared by the workloads: label sets, the filtered request mix and
// query subsets. Everything is a pure function of the seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "parlay/random.h"

#include "api/ann.h"

namespace perfbench {

inline constexpr std::size_t kNumLabels = 10;  // each held by ~1 in 10 points

// One label per point, "l0".."l9", drawn from the seed; interning "l0" first
// makes label name "lX" have id X.
inline ann::LabelStore make_labels(std::size_t n, std::uint64_t seed) {
  ann::LabelStore store;
  for (std::size_t l = 0; l < kNumLabels; ++l) {
    store.intern("l" + std::to_string(l));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto l = static_cast<ann::LabelId>(
        parlay::hash64(seed * 0x9e3779b97f4a7c15ULL + i) % kNumLabels);
    store.add_point(std::span<const ann::LabelId>(&l, 1));
  }
  return store;
}

inline ann::FilterSpec label_filter(ann::LabelId label) {
  return ann::FilterSpec::match_any(std::vector<ann::LabelId>{label});
}

// Request slot j carries a label filter when j % 10 == 3 (10% of requests),
// on label (j / 10) % 10, so a flush mixes plain requests with several
// filter groups.
inline std::vector<ann::FilterSpec> request_filters(std::size_t slots) {
  std::vector<ann::FilterSpec> filters(slots);
  for (std::size_t j = 3; j < slots; j += 10) {
    filters[j] = label_filter(static_cast<ann::LabelId>((j / 10) % kNumLabels));
  }
  return filters;
}

// Rows [first, first + count) of `points`, wrapping around.
template <typename T>
ann::PointSet<T> slice(const ann::PointSet<T>& points, std::size_t first,
                       std::size_t count) {
  ann::PointSet<T> out(count, points.dims());
  for (std::size_t i = 0; i < count; ++i) {
    const auto from = static_cast<ann::PointId>((first + i) % points.size());
    out.set_point(static_cast<ann::PointId>(i), points[from]);
  }
  return out;
}

// The first `count` rows of a point set.
template <typename T>
ann::PointSet<T> head(const ann::PointSet<T>& points, std::size_t count) {
  return slice(points, 0, count);
}

}  // namespace perfbench
