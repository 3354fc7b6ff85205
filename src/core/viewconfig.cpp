#include "core/viewconfig.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace fc::core {

std::string KernelViewConfig::serialize() const {
  std::ostringstream out;
  out << "# face-change kernel view configuration\n";
  out << "app " << app_name << "\n";
  out << "[base]\n";
  for (const auto& r : base.ranges()) {
    char line[48];
    std::snprintf(line, sizeof(line), "0x%08x 0x%08x\n", r.begin, r.end);
    out << line;
  }
  for (const auto& [name, ranges] : modules) {
    out << "[module " << name << "]\n";
    for (const auto& r : ranges.ranges()) {
      char line[48];
      std::snprintf(line, sizeof(line), "0x%08x 0x%08x\n", r.begin, r.end);
      out << line;
    }
  }
  return out.str();
}

namespace {

/// `token` as a 32-bit address: "0x" and then hex digits, nothing else.
std::optional<u32> parse_hex32(std::string_view token) {
  if (token.size() <= 2 || token.substr(0, 2) != "0x") return {};
  u32 value = 0;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data() + 2, last, value, 16);
  if (ec != std::errc{} || ptr != last) return {};
  return value;
}

}  // namespace

std::optional<KernelViewConfig> KernelViewConfig::parse(
    const std::string& text, ViewConfigError* error) {
  KernelViewConfig cfg;
  std::istringstream in(text);
  std::string line;
  u32 line_no = 0;
  RangeList* target = nullptr;
  auto reject = [&](std::string reason) -> std::optional<KernelViewConfig> {
    if (error != nullptr) *error = {line_no, std::move(reason)};
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("app ", 0) == 0) {
      if (!cfg.app_name.empty()) return reject("second app line: " + line);
      cfg.app_name = line.substr(4);
      if (cfg.app_name.empty()) return reject("empty app name");
      continue;
    }
    if (line == "[base]") {
      target = &cfg.base;
      continue;
    }
    if (line.rfind("[module ", 0) == 0) {
      if (line.back() != ']') return reject("malformed section: " + line);
      std::string name = line.substr(8, line.size() - 9);
      if (name.empty()) return reject("empty module name");
      target = &cfg.modules[name];
      continue;
    }
    if (target == nullptr) return reject("range before any section: " + line);
    std::istringstream fields(line);
    std::string begin_text, end_text, extra;
    if (!(fields >> begin_text >> end_text) || (fields >> extra))
      return reject("want two addresses '0xBEGIN 0xEND': " + line);
    const std::optional<u32> begin = parse_hex32(begin_text);
    const std::optional<u32> end = parse_hex32(end_text);
    if (!begin || !end)
      return reject("not a 32-bit 0x-hex address: " +
                    (begin ? end_text : begin_text));
    if (*begin >= *end) return reject("empty or inverted range: " + line);
    target->insert(*begin, *end);
  }
  if (cfg.app_name.empty()) {
    line_no = 0;  // the whole file
    return reject("no 'app NAME' line");
  }
  return cfg;
}

KernelViewConfig make_union_view(const std::vector<KernelViewConfig>& configs,
                                 const std::string& name) {
  KernelViewConfig out;
  out.app_name = name;
  for (const KernelViewConfig& cfg : configs) out.merge(cfg);
  return out;
}

}  // namespace fc::core
