// Strict parsing of the counts the command-line tools take (-n, --vms,
// --jobs, --budget, ...). std::atoi reads "-1" as a huge unsigned value
// once cast and "12x" as 12; every count goes through parse_count instead.
#pragma once

#include <optional>
#include <string_view>

#include "support/types.hpp"

namespace fc {

/// `text` as a count in [lo, hi]: the whole string is decimal digits (no
/// sign, space or suffix) and its value fits in u64. nullopt otherwise.
std::optional<u64> parse_count(std::string_view text, u64 lo, u64 hi);

/// parse_count for the value of `flag`; on a rejected value, print
/// "<tool>: <flag> takes a whole number in [lo, hi], got '<text>'" to
/// stderr and exit with status 2.
u64 count_arg(const char* tool, const char* flag, std::string_view text,
              u64 lo, u64 hi);

}  // namespace fc
