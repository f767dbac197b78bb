#include "io/args.h"

#include <sstream>
#include <stdexcept>

#include "io/numeric.h"

namespace locpriv::io {

ParsedArgs::ParsedArgs(std::map<std::string, std::string> values,
                       std::vector<std::string> positional)
    : values_(std::move(values)), positional_(std::move(positional)) {}

bool ParsedArgs::has(const std::string& name) const { return values_.count(name) > 0; }

const std::string& ParsedArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::runtime_error("missing required option --" + name);
  return it->second;
}

double ParsedArgs::get_double(const std::string& name) const {
  const std::string& raw = get(name);
  // from_chars, not std::stod: values must parse identically whatever
  // the host locale's decimal separator is.
  const std::optional<double> v = parse_double(raw);
  if (!v.has_value()) {
    throw std::runtime_error("option --" + name + ": '" + raw + "' is not a number");
  }
  return *v;
}

long long ParsedArgs::get_int(const std::string& name) const {
  const std::string& raw = get(name);
  const std::optional<long long> v = parse_int64(raw);
  if (!v.has_value()) {
    throw std::runtime_error("option --" + name + ": '" + raw + "' is not an integer");
  }
  return *v;
}

std::size_t ParsedArgs::get_count(const std::string& name) const {
  const long long v = get_int(name);
  if (v < 0) throw std::runtime_error("option --" + name + ": '" + get(name) + "' is negative");
  return static_cast<std::size_t>(v);
}

bool ParsedArgs::get_flag(const std::string& name) const { return has(name); }

ArgParser::ArgParser(std::string command, std::string description)
    : command_(std::move(command)), description_(std::move(description)) {}

ArgParser& ArgParser::add(ArgSpec spec) {
  for (const ArgSpec& existing : specs_) {
    if (existing.name == spec.name) {
      throw std::logic_error("ArgParser: duplicate option --" + spec.name);
    }
  }
  if (spec.required && spec.default_value.has_value()) {
    throw std::logic_error("ArgParser: required option --" + spec.name + " cannot have a default");
  }
  if (spec.is_flag && spec.default_value.has_value()) {
    throw std::logic_error("ArgParser: flag --" + spec.name + " cannot have a default");
  }
  specs_.push_back(std::move(spec));
  return *this;
}

ParsedArgs ArgParser::parse(const std::vector<std::string>& argv) const {
  std::map<std::string, std::string> values;
  std::vector<std::string> positional;

  auto find_spec = [&](const std::string& name) -> const ArgSpec* {
    for (const ArgSpec& s : specs_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::optional<std::string> inline_value;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const ArgSpec* spec = find_spec(name);
    if (spec == nullptr) {
      throw std::runtime_error(command_ + ": unknown option --" + name + "\n" + usage());
    }
    if (spec->is_flag) {
      if (inline_value.has_value()) {
        throw std::runtime_error("flag --" + name + " does not take a value");
      }
      values[name] = "true";
    } else if (inline_value.has_value()) {
      values[name] = *inline_value;
    } else {
      if (i + 1 >= argv.size()) throw std::runtime_error("option --" + name + " needs a value");
      values[name] = argv[++i];
    }
  }

  for (const ArgSpec& spec : specs_) {
    if (values.count(spec.name) > 0) continue;
    if (spec.required) {
      throw std::runtime_error(command_ + ": missing required option --" + spec.name + "\n" +
                               usage());
    }
    if (spec.default_value.has_value()) values[spec.name] = *spec.default_value;
  }
  return {std::move(values), std::move(positional)};
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: locpriv " << command_ << " [options]\n  " << description_ << "\n";
  for (const ArgSpec& spec : specs_) {
    os << "  --" << spec.name;
    if (!spec.is_flag) os << " <value>";
    os << "  " << spec.help;
    if (spec.default_value.has_value()) os << " (default: " << *spec.default_value << ")";
    if (spec.required) os << " (required)";
    os << "\n";
  }
  return os.str();
}

}  // namespace locpriv::io
