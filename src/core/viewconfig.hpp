// Kernel view configuration files: the profiling phase's output and the
// runtime phase's input (§III-A). Base-kernel ranges are absolute; module
// ranges are stored relative to the module base, because modules load at
// different addresses across runs (§II-A).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/rangelist.hpp"

namespace fc::core {

/// Why KernelViewConfig::parse rejected a file: its 1-based line number (0
/// for the whole file) and a one-line reason.
struct ViewConfigError {
  u32 line = 0;
  std::string reason;
};

struct KernelViewConfig {
  std::string app_name;
  RangeList base;                            // absolute kernel text addresses
  std::map<std::string, RangeList> modules;  // name → module-relative ranges

  /// SIZE(K[app]) over all types.
  u64 size_bytes() const {
    u64 total = base.size_bytes();
    for (const auto& [name, ranges] : modules) total += ranges.size_bytes();
    return total;
  }

  /// Union with another config (interrupt profile merging, union views).
  void merge(const KernelViewConfig& other) {
    base.insert(other.base);
    for (const auto& [name, ranges] : other.modules)
      modules[name].insert(ranges);
  }

  /// K[a] ∩ K[b]: intersect the base lists and same-named modules.
  KernelViewConfig intersect(const KernelViewConfig& other) const {
    KernelViewConfig out;
    out.app_name = app_name + "&" + other.app_name;
    out.base = base.intersect(other.base);
    for (const auto& [name, ranges] : modules) {
      auto it = other.modules.find(name);
      if (it == other.modules.end()) continue;
      RangeList common = ranges.intersect(it->second);
      if (!common.empty()) out.modules[name] = std::move(common);
    }
    return out;
  }

  /// Equation (1): S = SIZE(a∩b) / MAX(SIZE(a), SIZE(b)).
  static double similarity(const KernelViewConfig& a,
                           const KernelViewConfig& b) {
    u64 overlap = a.intersect(b).size_bytes();
    u64 larger = std::max(a.size_bytes(), b.size_bytes());
    return larger == 0 ? 0.0 : static_cast<double>(overlap) / larger;
  }

  /// Text serialization (one range per line, sectioned by type).
  std::string serialize() const;
  /// Parse a view file. Files are outside input, so every line is checked:
  /// exactly one "app NAME" line with a non-empty name, and each range line
  /// is exactly two whole "0x" hex tokens, each at most 32 bits, with
  /// begin < end, inside a [base] or non-empty [module NAME] section, with
  /// nothing trailing. A rejected file yields nullopt and, when `error` is
  /// given, the first bad line (0 for a file with no app line) and why.
  static std::optional<KernelViewConfig> parse(
      const std::string& text, ViewConfigError* error = nullptr);

  bool operator==(const KernelViewConfig& other) const {
    return app_name == other.app_name && base == other.base &&
           modules == other.modules;
  }
};

/// Union of many configs: the system-wide minimized kernel the paper
/// compares against ("union" kernel view, §IV-A2).
KernelViewConfig make_union_view(const std::vector<KernelViewConfig>& configs,
                                 const std::string& name = "union");

}  // namespace fc::core
