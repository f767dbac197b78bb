// Deterministic random number generation and the distributions the
// library needs (notably the exact planar-Laplace sampler of
// Geo-Indistinguishability, by Marsaglia's polar construction).
//
// Reproducibility contract: every stochastic component takes an explicit
// 64-bit seed, and parallel sweeps derive independent per-task seeds with
// derive_seed(), so results are bit-identical regardless of threading.
#pragma once

#include <cstdint>
#include <random>

#include "geo/point.h"

namespace locpriv::stats {

/// splitmix64 step — used both as a standalone mixer and to derive
/// stream seeds. Public-domain algorithm (Steele et al.).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives a child seed from (root, stream). Distinct streams yield
/// decorrelated generators; used to give each user/sweep-point its own RNG.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  std::uint64_t s = root ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ (b << 1);
}

/// xoshiro256** — fast, high-quality, UniformRandomBitGenerator-compatible.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }
  result_type operator()();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform double in (0, 1] — never returns 0; safe under log().
  [[nodiscard]] double uniform_open0();
  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box–Muller (no cached spare; stateless per call).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);
  /// Exponential with rate lambda > 0.
  [[nodiscard]] double exponential(double lambda);
  /// One-dimensional Laplace with location mu and scale b > 0.
  [[nodiscard]] double laplace(double mu, double scale);
  /// Bernoulli with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);
  /// Uniform point inside the disk of radius r centered at the origin.
  [[nodiscard]] geo::Point uniform_disk(double radius);

 private:
  std::uint64_t s_[4];
};

/// Draws a planar-Laplace-distributed offset with parameter eps > 0 by
/// Marsaglia's polar construction: (u, v) uniform on the unit disk by
/// rejection, s = u² + v², then (u, v)·r/√s with r = -ln(s·U)/eps. The
/// direction (u, v)/√s is uniform and independent of s ~ U(0, 1), so
/// eps·r is the sum of two independent Exp(1) variables, Gamma(2, 1):
/// the planar-Laplace radius law C(r) = 1 - (1 + eps r) e^{-eps r}. The
/// mean radius is 2/eps, and the distribution satisfies
/// eps-geo-indistinguishability. One log and one sqrt per draw; the
/// number of uniforms consumed varies (3, plus 2 per rejection, 3.55 on
/// average) but stays a pure function of the generator state. Throws
/// std::invalid_argument unless eps > 0.
[[nodiscard]] geo::Point sample_planar_laplace(Rng& rng, double eps);

}  // namespace locpriv::stats
