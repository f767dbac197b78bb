#include "stats/rng.h"

#include <cmath>
#include <stdexcept>

#include "geo/latlng.h"  // kPi

namespace locpriv::stats {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed all four words from splitmix64, per the xoshiro authors'
  // recommendation; guarantees a nonzero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

double Rng::uniform_open0() {
  // (0, 1]: flip the half-open interval.
  return 1.0 - uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = operator()();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  const double u1 = uniform_open0();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * geo::kPi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double lambda) {
  if (!(lambda > 0.0)) throw std::invalid_argument("Rng::exponential: lambda must be > 0");
  return -std::log(uniform_open0()) / lambda;
}

double Rng::laplace(double mu, double scale) {
  if (!(scale > 0.0)) throw std::invalid_argument("Rng::laplace: scale must be > 0");
  // Inverse CDF: x = mu - b * sgn(u) * ln(1 - 2|u|), u ~ U(-1/2, 1/2).
  const double u = uniform() - 0.5;
  const double sign = u < 0.0 ? -1.0 : 1.0;
  return mu - scale * sign * std::log(1.0 - 2.0 * std::abs(u));
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("Rng::bernoulli: p outside [0, 1]");
  return uniform() < p;
}

geo::Point Rng::uniform_disk(double radius) {
  if (!(radius >= 0.0)) throw std::invalid_argument("Rng::uniform_disk: negative radius");
  const double theta = uniform(0.0, 2.0 * geo::kPi);
  const double r = radius * std::sqrt(uniform());
  return {r * std::cos(theta), r * std::sin(theta)};
}

geo::Point sample_planar_laplace(Rng& rng, double eps) {
  if (!(eps > 0.0)) throw std::invalid_argument("sample_planar_laplace: eps must be > 0");
  // (u, v) uniform on the unit disk minus its centre: s = u² + v² is
  // uniform on (0, 1) and independent of the direction (u, v)/√s.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * rng.uniform() - 1.0;
    v = 2.0 * rng.uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  // -ln s and -ln U are independent Exp(1), so eps·r ~ Gamma(2, 1).
  const double r = -std::log(s * rng.uniform_open0()) / eps;
  const double scale = r / std::sqrt(s);
  return {u * scale, v * scale};
}

}  // namespace locpriv::stats
