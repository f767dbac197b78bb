// The LPPM abstraction the configuration framework operates on.
//
// A Mechanism transforms a trace into a protected trace. Its tunable
// knobs are declared as ParameterSpecs so that the framework can sweep
// and configure any mechanism generically — this is what makes the
// framework "modular" in the paper's sense.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/dataset.h"
#include "trace/trace.h"

namespace locpriv::lppm {

/// How a parameter should be swept/interpolated.
enum class Scale {
  kLinear,
  kLog,  ///< sweep geometrically; model against ln(value)
};

/// Typed parameter assignment for registry construction: parameter
/// name -> value, validated against the target's ParameterSpecs by
/// create_mechanism / metrics::create_metric.
using ParamMap = std::map<std::string, double>;

/// Declaration of one tunable mechanism parameter.
struct ParameterSpec {
  std::string name;
  double min_value = 0.0;
  double max_value = 0.0;
  double default_value = 0.0;
  Scale scale = Scale::kLinear;
  std::string unit;         ///< e.g. "1/m", "m", "s"
  std::string description;

  /// True when `v` lies inside [min_value, max_value]. Log-scale
  /// parameters additionally require v > 0 even when the declared
  /// minimum is 0 (ln(v) must exist for sweeping and modeling).
  [[nodiscard]] bool in_range(double v) const {
    if (scale == Scale::kLog && !(v > 0.0)) return false;
    return v >= min_value && v <= max_value;
  }
};

/// Interface of a Location Privacy Protection Mechanism.
///
/// Implementations must be deterministic in (input, parameters, seed):
/// the seed fully determines any randomness. protect() is const so a
/// configured mechanism can be shared across evaluation threads.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Stable identifier, e.g. "geo-indistinguishability".
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// True when protect() ignores its seed — the output is a pure
  /// function of (input, parameters). Deterministic mechanisms (grid
  /// cloaking, path simplification, ...) declare it by overriding;
  /// anything sampling randomness (planar Laplace, Gaussian noise,
  /// dropout, ...) keeps the default. Tools use this
  /// flag instead of guessing from behavior: `locpriv list-mechanisms`
  /// tags each entry, and the registry conformance test asserts the
  /// flag matches observed seed-sensitivity, so a stochastic mechanism
  /// cannot silently masquerade as a deterministic one.
  [[nodiscard]] virtual bool deterministic() const { return false; }

  /// Declared tunable parameters (possibly empty, e.g. for no-op).
  [[nodiscard]] virtual const std::vector<ParameterSpec>& parameters() const = 0;

  /// Sets a parameter; throws std::invalid_argument for an unknown name
  /// or std::out_of_range for a value outside the declared range.
  virtual void set_parameter(const std::string& param, double value) = 0;

  /// Current value of a parameter; throws std::invalid_argument for an
  /// unknown name.
  [[nodiscard]] virtual double parameter(const std::string& param) const = 0;

  /// Protects one trace.
  [[nodiscard]] virtual trace::Trace protect(const trace::Trace& input,
                                             std::uint64_t seed) const = 0;

  /// Protects a whole dataset; each user gets an independent derived
  /// seed, so per-user results do not depend on dataset order... of
  /// other users' data, only on their index.
  [[nodiscard]] trace::Dataset protect_dataset(const trace::Dataset& input,
                                               std::uint64_t seed) const;
};

/// Helper base managing declared parameters and their current values.
class ParameterizedMechanism : public Mechanism {
 public:
  [[nodiscard]] const std::vector<ParameterSpec>& parameters() const final { return specs_; }
  void set_parameter(const std::string& param, double value) final;
  [[nodiscard]] double parameter(const std::string& param) const final;

 protected:
  /// Declares the parameter set; values start at defaults. Call once
  /// from the subclass constructor.
  explicit ParameterizedMechanism(std::vector<ParameterSpec> specs);

 private:
  std::vector<ParameterSpec> specs_;
  std::map<std::string, double> values_;
};

}  // namespace locpriv::lppm
