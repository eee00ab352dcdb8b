// Typed, densely packed point sets.
//
// A PointSet<T> owns an n x d row-major array of coordinates with rows
// aligned to 64 bytes (cache line / SIMD friendly), mirroring the paper's
// "avoid levels of indirection" layout rule (§4.5): a point's coordinates
// are found by arithmetic on its id, never by chasing pointers. Rows are
// padded to a multiple of 64 bytes and the array starts on a cache line:
// with malloc's 16-byte alignment alone, a 128-byte row spans 3 lines
// instead of 2 whenever the heap places the array off a line, and search
// speed then depends on the allocation history.
//
// T is one of: uint8_t (BIGANN-style), int8_t (MSSPACEV-style),
// float (TEXT2IMAGE-style).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ann {

inline constexpr std::size_t kCacheLine = 64;

// std::allocator with the base aligned to a cache line. It over-allocates
// by one line and keeps the raw pointer just below the aligned one, so
// every request for n elements asks malloc for the same n-dependent size.
// (Aligned operator new does not: glibc's memalign asks for more than it
// keeps, and the holes freed arrays leave are too small for the next
// array of the same size, so a repeated build grows the heap.)
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* raw = ::operator new(n * sizeof(T) + kCacheLine);
    const std::uintptr_t base =
        (reinterpret_cast<std::uintptr_t>(raw) + kCacheLine) &
        ~std::uintptr_t{kCacheLine - 1};
    reinterpret_cast<void**>(base)[-1] = raw;
    return reinterpret_cast<T*>(base);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using CacheAlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

using PointId = std::uint32_t;
inline constexpr PointId kInvalidPoint = static_cast<PointId>(-1);

template <typename T>
class PointSet {
 public:
  using value_type = T;

  PointSet() : n_(0), d_(0), stride_(0) {}

  PointSet(std::size_t n, std::size_t d)
      : n_(n), d_(d), stride_(padded_dim(d, sizeof(T))), data_(n * stride_) {}

  std::size_t size() const { return n_; }
  std::size_t dims() const { return d_; }

  const T* operator[](PointId i) const {
    assert(i < n_);
    return data_.data() + static_cast<std::size_t>(i) * stride_;
  }

  T* mutable_point(PointId i) {
    assert(i < n_);
    return data_.data() + static_cast<std::size_t>(i) * stride_;
  }

  void set_point(PointId i, const T* coords) {
    std::memcpy(mutable_point(i), coords, d_ * sizeof(T));
  }

  // Append one point (amortized O(d)); used by the dynamic index.
  void append(const T* coords) {
    data_.resize((n_ + 1) * stride_);
    std::memcpy(data_.data() + n_ * stride_, coords, d_ * sizeof(T));
    ++n_;
  }

  // Append all rows of another point set with matching dimensionality.
  void append_all(const PointSet& other) {
    assert(other.d_ == d_);
    for (std::size_t i = 0; i < other.size(); ++i) {
      append(other[static_cast<PointId>(i)]);
    }
  }

  // A new point set holding the given subset of rows (used for slicing a
  // dataset into prefixes for size-scaling experiments).
  PointSet prefix(std::size_t m) const {
    assert(m <= n_);
    PointSet out(m, d_);
    std::memcpy(out.data_.data(), data_.data(), m * stride_ * sizeof(T));
    return out;
  }

  // A new point set holding rows [lo, hi) (used for feeding a dataset to a
  // mutable index in batches).
  PointSet slice(std::size_t lo, std::size_t hi) const {
    assert(lo <= hi && hi <= n_);
    PointSet out(hi - lo, d_);
    std::memcpy(out.data_.data(), data_.data() + lo * stride_,
                (hi - lo) * stride_ * sizeof(T));
    return out;
  }

  // Resident bytes of the coordinate array (including row padding) — the
  // input to IndexStats::memory_bytes accounting.
  std::size_t memory_bytes() const { return data_.capacity() * sizeof(T); }

  bool operator==(const PointSet& o) const {
    if (n_ != o.n_ || d_ != o.d_) return false;
    for (std::size_t i = 0; i < n_; ++i) {
      if (std::memcmp((*this)[static_cast<PointId>(i)],
                      o[static_cast<PointId>(i)], d_ * sizeof(T)) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  static std::size_t padded_dim(std::size_t d, std::size_t elt) {
    std::size_t bytes_per_row = d * elt;
    std::size_t padded = (bytes_per_row + 63) / 64 * 64;
    return padded / elt;
  }

  std::size_t n_;
  std::size_t d_;
  std::size_t stride_;  // elements per row including padding
  CacheAlignedVector<T> data_;
};

}  // namespace ann
