// Runtime CPU detection, ANN_SIMD parsing, tier selection, and the two
// always-available kernel tables (scalar, generic). See caps.h for the tier
// model and docs/SIMD.md for the full contract.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/distance.h"
#include "core/simd/caps.h"
#include "core/simd/kernel_table.h"

namespace ann::simd {

namespace {

Caps detect_caps() {
  Caps c;
#if defined(__x86_64__) || defined(__i386__)
  c.avx2 = __builtin_cpu_supports("avx2") != 0;
  c.fma = __builtin_cpu_supports("fma") != 0;
  c.avx512f = __builtin_cpu_supports("avx512f") != 0;
  c.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  c.avx512dq = __builtin_cpu_supports("avx512dq") != 0;
  c.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
#elif defined(__ARM_NEON)
  c.neon = true;  // baseline on AArch64; kernel tier is still scaffolding
#endif
  return c;
}

// --- scalar tier -------------------------------------------------------------
//
// The sequential reference loops under the table ABI: same math and same
// order as ann::scalarref, so a whole search forced to this tier is the
// attribution floor. The cosine family is compositional — dot_norm and
// dot_norm2 call the same scalar_fdot/scalar_self instantiations — so the
// per-tier bitwise contract (self_dot == dot_norm2's |a|^2, dot_norm ==
// dot_norm2's dot/|b|^2) holds structurally. nearest_l2_block is the
// exception: its summation order is the same on every tier (kernel_table.h),
// so both always-available tables share the generic one.

template <typename T>
float scalar_l2(const T* a, const T* b, std::size_t d) {
  using Acc = typename ann::internal::AccumOf<T>::type;
  Acc acc = 0;
  for (std::size_t i = 0; i < d; ++i) {
    Acc diff = static_cast<Acc>(a[i]) - static_cast<Acc>(b[i]);
    acc += diff * diff;
  }
  return static_cast<float>(acc);
}

template <typename T>
float scalar_dot(const T* a, const T* b, std::size_t d) {
  using Acc = typename ann::internal::AccumOf<T>::type;
  Acc acc = 0;
  for (std::size_t i = 0; i < d; ++i) {
    acc += static_cast<Acc>(a[i]) * static_cast<Acc>(b[i]);
  }
  return static_cast<float>(acc);
}

template <typename T>
float scalar_fdot(const T* a, const T* b, std::size_t d) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < d; ++i) {
    acc += static_cast<float>(a[i]) * static_cast<float>(b[i]);
  }
  return acc;
}

template <typename T>
float scalar_self(const T* a, std::size_t d) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < d; ++i) {
    float x = static_cast<float>(a[i]);
    acc += x * x;
  }
  return acc;
}

template <typename T>
void scalar_dot_norm(const T* a, const T* b, std::size_t d, float& dot,
                     float& nb) {
  dot = scalar_fdot(a, b, d);
  nb = scalar_self(b, d);
}

template <typename T>
void scalar_dot_norm2(const T* a, const T* b, std::size_t d, float& dot,
                      float& na, float& nb) {
  dot = scalar_fdot(a, b, d);
  na = scalar_self(a, d);
  nb = scalar_self(b, d);
}

const KernelTable* scalar_table() {
  static const KernelTable table = {
      "scalar",
      scalar_l2<float>,
      scalar_l2<std::uint8_t>,
      scalar_l2<std::int8_t>,
      scalar_dot<float>,
      scalar_dot<std::uint8_t>,
      scalar_dot<std::int8_t>,
      scalar_dot_norm<float>,
      scalar_dot_norm<std::uint8_t>,
      scalar_dot_norm<std::int8_t>,
      scalar_dot_norm2<float>,
      scalar_dot_norm2<std::uint8_t>,
      scalar_dot_norm2<std::int8_t>,
      scalar_self<float>,
      scalar_self<std::uint8_t>,
      scalar_self<std::int8_t>,
      ann::internal::nearest_l2_block,
  };
  return &table;
}

// --- generic tier ------------------------------------------------------------
//
// The inline multi-lane kernels of core/distance.h under the table ABI.
// This table is never installed in the dispatch global (the generic tier is
// the nullptr fast path); it exists so the conformance suite can call the
// generic kernels through the exact same function-pointer surface as the
// ISA tiers.

template <typename T>
float generic_l2(const T* a, const T* b, std::size_t d) {
  using Acc = typename ann::internal::AccumOf<T>::type;
  return ann::internal::l2_kernel<T, T, Acc>(a, b, d);
}

template <typename T>
float generic_dot(const T* a, const T* b, std::size_t d) {
  using Acc = typename ann::internal::AccumOf<T>::type;
  return ann::internal::dot_kernel<T, T, Acc>(a, b, d);
}

template <typename T>
void generic_dot_norm(const T* a, const T* b, std::size_t d, float& dot,
                      float& nb) {
  ann::internal::dot_norm_kernel(a, b, d, dot, nb);
}

template <typename T>
void generic_dot_norm2(const T* a, const T* b, std::size_t d, float& dot,
                       float& na, float& nb) {
  ann::internal::dot_norm2_kernel(a, b, d, dot, na, nb);
}

template <typename T>
float generic_self(const T* a, std::size_t d) {
  return ann::internal::self_dot(a, d);
}

const KernelTable* generic_table() {
  static const KernelTable table = {
      "generic",
      generic_l2<float>,
      generic_l2<std::uint8_t>,
      generic_l2<std::int8_t>,
      generic_dot<float>,
      generic_dot<std::uint8_t>,
      generic_dot<std::int8_t>,
      generic_dot_norm<float>,
      generic_dot_norm<std::uint8_t>,
      generic_dot_norm<std::int8_t>,
      generic_dot_norm2<float>,
      generic_dot_norm2<std::uint8_t>,
      generic_dot_norm2<std::int8_t>,
      generic_self<float>,
      generic_self<std::uint8_t>,
      generic_self<std::int8_t>,
      ann::internal::nearest_l2_block,
  };
  return &table;
}

// --- selection state ---------------------------------------------------------

struct TierState {
  Tier requested = Tier::kGeneric;
  Tier active = Tier::kGeneric;
};

TierState& state() {
  static TierState s;
  return s;
}

Tier best_supported() {
  if (tier_supported(Tier::kAvx512)) return Tier::kAvx512;
  if (tier_supported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kGeneric;
}

}  // namespace

const Caps& caps() {
  static const Caps c = detect_caps();
  return c;
}

bool tier_supported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
    case Tier::kGeneric:
      return true;
    case Tier::kAvx2:
      return caps().avx2 && caps().fma && avx2_table() != nullptr;
    case Tier::kAvx512:
      return caps().avx512f && caps().avx512bw && caps().avx512dq &&
             caps().avx512vl && avx512_table() != nullptr;
  }
  return false;
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kGeneric:
      return "generic";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::string caps_string() {
  std::string out;
  const Caps& c = caps();
  auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(c.avx2, "avx2");
  add(c.fma, "fma");
  add(c.avx512f, "avx512f");
  add(c.avx512bw, "avx512bw");
  add(c.avx512dq, "avx512dq");
  add(c.avx512vl, "avx512vl");
  add(c.neon, "neon");
  if (out.empty()) out = "(none)";
  return out;
}

EnvRequest parse_env(const char* value) {
  if (value == nullptr) return {};
  std::string_view v(value);
  if (v.empty() || v == "auto") return {};
  if (v == "scalar") return {true, false, Tier::kScalar};
  // "neon" maps to the generic tier while the NEON table is scaffolding
  // (simd_neon.cpp): the name is reserved, the behaviour is the portable
  // kernels.
  if (v == "generic" || v == "neon") return {true, false, Tier::kGeneric};
  if (v == "avx2") return {true, false, Tier::kAvx2};
  if (v == "avx512") return {true, false, Tier::kAvx512};
  return {false, true, Tier::kGeneric};
}

const KernelTable* table_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return scalar_table();
    case Tier::kGeneric:
      return generic_table();
    case Tier::kAvx2:
      return tier_supported(Tier::kAvx2) ? avx2_table() : nullptr;
    case Tier::kAvx512:
      return tier_supported(Tier::kAvx512) ? avx512_table() : nullptr;
  }
  return nullptr;
}

Tier active_tier() { return state().active; }

Tier requested_tier() { return state().requested; }

Tier set_active_tier(Tier tier) {
  if (!tier_supported(tier)) {
    throw std::invalid_argument(
        std::string("ann::simd: tier not supported on this CPU: ") +
        tier_name(tier) + " (caps: " + caps_string() + ")");
  }
  Tier prev = state().active;
  state().active = tier;
  // kGeneric installs nullptr: Metric::eval then runs the inline kernels
  // directly instead of calling through the wrapper table.
  internal::g_dispatch.store(
      tier == Tier::kGeneric ? nullptr : table_for(tier),
      std::memory_order_relaxed);
  return prev;
}

namespace internal {

const KernelTable* resolve_dispatch() {
  // One-time read at process start (dynamic init of g_dispatch); nothing
  // concurrent exists yet.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("ANN_SIMD");
  EnvRequest req = parse_env(env);
  Tier chosen;
  if (!req.valid) {
    std::fprintf(stderr,
                 "ann::simd: unrecognized ANN_SIMD=\"%s\" (expected "
                 "auto|avx512|avx2|generic|scalar); using auto\n",
                 env);
    chosen = best_supported();
  } else if (req.auto_) {
    chosen = best_supported();
  } else if (tier_supported(req.tier)) {
    chosen = req.tier;
  } else {
    std::fprintf(stderr,
                 "ann::simd: ANN_SIMD=%s not supported on this CPU (caps: "
                 "%s); falling back to %s\n",
                 tier_name(req.tier), caps_string().c_str(),
                 tier_name(best_supported()));
    chosen = best_supported();
  }
  state().requested = (req.valid && !req.auto_) ? req.tier : chosen;
  state().active = chosen;
  return chosen == Tier::kGeneric ? nullptr : table_for(chosen);
}

}  // namespace internal

}  // namespace ann::simd
