// Evaluation context and artifact cache — the batched evaluation engine
// behind the redesigned Metric API.
//
// Every metric evaluation derives intermediate artifacts from the traces
// it scores: stay points, POI sets, coverage rasters, tracking
// estimates. The actual-side artifacts depend only on the input
// dataset and the derivation parameters — they are invariant across all
// sweep points, trials, metrics and worker threads — and the
// protected-side artifacts are shared between the two metrics evaluated
// on the same protected dataset. Recomputing them at every call is the
// dominant cost of a sweep.
//
// An ArtifactCache is a thread-safe, content-keyed store of such derived
// artifacts: the key is (artifact kind, trace index, derivation-parameter
// hash), so differently-parameterized derivations of the same trace
// coexist. A cache instance is bound to ONE dataset for its lifetime
// (trace indices identify traces only within that dataset): the engine
// keeps one cache for the actual dataset per sweep and a fresh one per
// protected dataset.
//
// An EvalContext bundles the (actual, protected) dataset pair with the
// two caches. Metrics ask it for artifacts by kind + builder; with no
// cache attached the builder just runs — so the same metric code serves
// cached sweeps and one-shot uncached calls, bit-identically (builders are
// deterministic, and a cache hit returns the exact object a miss built).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "trace/dataset.h"

namespace locpriv::metrics {

/// FNV-1a accumulator for derivation-parameter hashes. Doubles are
/// hashed by bit pattern, so params that differ in the last ulp key
/// different artifacts — exactly the bit-identity contract.
class ParamHash {
 public:
  ParamHash& add(double v);
  ParamHash& add(std::uint64_t v);
  ParamHash& add(std::string_view s);
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  void bytes(const void* data, std::size_t n);
  std::uint64_t state_ = 14695981039346656037ULL;  // FNV offset basis
};

/// Identity of one cached artifact within a cache's dataset.
struct ArtifactKey {
  std::string kind;          ///< e.g. "poi-set", "staypoints"
  std::uint64_t trace = 0;   ///< trace index; kDatasetScope = whole dataset
  std::uint64_t params = 0;  ///< derivation-parameter hash (ParamHash)

  bool operator==(const ArtifactKey&) const = default;
};

struct ArtifactKeyHash {
  [[nodiscard]] std::size_t operator()(const ArtifactKey& k) const;
};

/// Thread-safe content-keyed artifact store. Sharded so 8 worker
/// threads evaluating different users do not serialize on one mutex.
/// Values are type-erased shared_ptrs; the typed accessor lives on
/// EvalContext. Losing an insert race wastes one build but never changes
/// a result: builders are pure functions of (trace, params).
class ArtifactCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
  };

  using Builder = std::function<std::shared_ptr<const void>()>;

  /// Returns the cached artifact, or builds, stores and returns it.
  /// The builder runs outside the shard lock.
  [[nodiscard]] std::shared_ptr<const void> get_or_build(const ArtifactKey& key,
                                                         const Builder& build);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  static constexpr std::size_t kShardCount = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<ArtifactKey, std::shared_ptr<const void>, ArtifactKeyHash> map;
  };
  std::array<Shard, kShardCount> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Which dataset of the pair an artifact derives from.
enum class Side {
  kActual,     ///< the clean reference dataset (sweep-invariant)
  kProtected,  ///< the mechanism's output under evaluation
};

/// Attacker-generalization view of a context: which users the adversary
/// may fit on (`train`) and which are being scored (`test`). Indices
/// refer to positions of the context's dataset pair. Metrics that fit
/// population artifacts (tracking priors, galleries) must restrict the
/// fit to `train` when a view is attached; `id` is a content hash of
/// the partition (core::UserSplit::id()) for artifact-cache keys. The
/// view is non-owning — the engine keeps the spans alive for the
/// duration of the evaluation.
struct SplitView {
  std::span<const std::size_t> train;
  std::span<const std::size_t> test;
  std::uint64_t id = 0;
};

/// One metric evaluation's view: the (actual, protected) dataset pair
/// plus the artifact caches bound to each side. Cheap to construct;
/// holds references to the datasets — they must outlive the context.
class EvalContext {
 public:
  /// Context without caching (both caches null): artifact() builds on
  /// every call — the form for one-shot evaluations.
  EvalContext(const trace::Dataset& actual, const trace::Dataset& protected_data,
              std::shared_ptr<ArtifactCache> actual_cache = nullptr,
              std::shared_ptr<ArtifactCache> protected_cache = nullptr)
      : actual_(&actual),
        protected_(&protected_data),
        actual_cache_(std::move(actual_cache)),
        protected_cache_(std::move(protected_cache)) {}

  [[nodiscard]] const trace::Dataset& actual() const { return *actual_; }
  [[nodiscard]] const trace::Dataset& protected_data() const { return *protected_; }
  [[nodiscard]] const trace::Dataset& dataset(Side side) const {
    return side == Side::kActual ? *actual_ : *protected_;
  }

  [[nodiscard]] const std::shared_ptr<ArtifactCache>& cache(Side side) const {
    return side == Side::kActual ? actual_cache_ : protected_cache_;
  }

  /// Attaches (or detaches, with nullptr) a train/test split view. The
  /// view must outlive every evaluation through this context. No view
  /// attached (the default) means the legacy threat model: the attacker
  /// fits on the full population.
  void set_split(const SplitView* split) { split_ = split; }
  /// The attached split view, or nullptr when evaluating without one.
  [[nodiscard]] const SplitView* split() const { return split_; }

  /// Sentinel trace index for dataset-scope artifacts.
  static constexpr std::uint64_t kDatasetScope = ~std::uint64_t{0};

  /// Typed cached accessor: returns the artifact of `kind` derived from
  /// trace `user` of `side` with the given parameter hash, building it
  /// with `build` (signature: () -> T) on a miss. The kind string names
  /// the artifact's type by convention — callers of one kind must agree
  /// on T (see docs/API.md for the registry of standard kinds).
  template <typename T, typename BuildFn>
  [[nodiscard]] std::shared_ptr<const T> artifact(Side side, std::uint64_t user,
                                                  std::string_view kind, std::uint64_t params,
                                                  BuildFn&& build) const {
    ArtifactCache* cache = this->cache(side).get();
    if (cache == nullptr) return std::make_shared<const T>(build());
    std::shared_ptr<const void> erased =
        cache->get_or_build(ArtifactKey{std::string(kind), user, params},
                            [&]() -> std::shared_ptr<const void> {
                              return std::make_shared<const T>(build());
                            });
    return std::static_pointer_cast<const T>(std::move(erased));
  }

  /// Dataset-scope variant (artifact derived from the whole side).
  template <typename T, typename BuildFn>
  [[nodiscard]] std::shared_ptr<const T> dataset_artifact(Side side, std::string_view kind,
                                                          std::uint64_t params,
                                                          BuildFn&& build) const {
    return artifact<T>(side, kDatasetScope, kind, params, std::forward<BuildFn>(build));
  }

 private:
  const trace::Dataset* actual_;
  const trace::Dataset* protected_;
  std::shared_ptr<ArtifactCache> actual_cache_;
  std::shared_ptr<ArtifactCache> protected_cache_;
  const SplitView* split_ = nullptr;
};

}  // namespace locpriv::metrics
