#include "metrics/eval_context.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/tracer.h"

namespace locpriv::metrics {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// splitmix64 finalizer — spreads FNV output over the shard index bits.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void ParamHash::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state_ ^= p[i];
    state_ *= kFnvPrime;
  }
}

ParamHash& ParamHash::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  bytes(&bits, sizeof(bits));
  return *this;
}

ParamHash& ParamHash::add(std::uint64_t v) {
  bytes(&v, sizeof(v));
  return *this;
}

ParamHash& ParamHash::add(std::string_view s) {
  bytes(s.data(), s.size());
  // Length terminator keeps ("ab","c") distinct from ("a","bc").
  const std::uint64_t len = s.size();
  bytes(&len, sizeof(len));
  return *this;
}

std::size_t ArtifactKeyHash::operator()(const ArtifactKey& k) const {
  ParamHash h;
  h.add(k.kind).add(k.trace).add(k.params);
  return static_cast<std::size_t>(mix(h.digest()));
}

std::shared_ptr<const void> ArtifactCache::get_or_build(const ArtifactKey& key,
                                                        const Builder& build) {
  static obs::Counter hit_counter("artifact_cache.hits");
  static obs::Counter miss_counter("artifact_cache.misses");
  Shard& shard = shards_[ArtifactKeyHash{}(key) % kShardCount];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_counter.add();
      return it->second;
    }
  }
  // Build outside the lock: concurrent misses of the same key may build
  // twice, but the first insert wins and both results are identical.
  // Hits stay counter-only (a span per hit would swamp the trace); each
  // build gets a real span since that is where the time goes.
  std::shared_ptr<const void> built = [&] {
    obs::Span build_span("cache", "artifact_build");
    build_span.arg("kind", key.kind).arg("trace", static_cast<double>(key.trace));
    return build();
  }();
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_counter.add();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.map.try_emplace(key, std::move(built));
  return it->second;
}

void EvalContext::throw_per_user(const char* what) const {
  throw std::logic_error(std::string("EvalContext: ") + what +
                         " on a per-user context, which holds only user " +
                         std::to_string(user_) + "'s protected trace");
}

ArtifactCache::Stats ArtifactCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed)};
}

std::size_t ArtifactCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

void ArtifactCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace locpriv::metrics
