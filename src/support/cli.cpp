#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace fc {

std::optional<u64> parse_count(std::string_view text, u64 lo, u64 hi) {
  if (text.empty()) return std::nullopt;
  u64 value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (std::numeric_limits<u64>::max() - digit) / 10)
      return std::nullopt;
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

u64 count_arg(const char* tool, const char* flag, std::string_view text,
              u64 lo, u64 hi) {
  if (const std::optional<u64> value = parse_count(text, lo, hi)) return *value;
  std::fprintf(stderr,
               "%s: %s takes a whole number in [%llu, %llu], got '%.*s'\n",
               tool, flag, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi),
               static_cast<int>(text.size()), text.data());
  std::exit(2);
}

}  // namespace fc
