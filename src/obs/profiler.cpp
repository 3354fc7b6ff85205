#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace fc::obs {

namespace {
/// Fixed-point share formatting: exact integer ratio rendered with six
/// decimals, no floating point anywhere near the output (deterministic
/// across compilers and FP modes).
std::string share6(u64 part, u64 whole) {
  u64 micro = whole == 0 ? 0 : (part * 1'000'000 + whole / 2) / whole;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                static_cast<unsigned long long>(micro / 1'000'000),
                static_cast<unsigned long long>(micro % 1'000'000));
  return buf;
}
}  // namespace

const char* sample_tier_name(u8 tier) {
  switch (tier) {
    case kSampleTierInterp: return "interp";
    case kSampleTierBlock: return "block";
  }
  return "tier?";
}

u32 SampleProfile::intern(const std::string& name) {
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  u32 idx = static_cast<u32>(names_.size());
  names_.push_back(name);
  name_index_.emplace(name, idx);
  return idx;
}

void SampleProfile::add_function(const std::string& name, GVirt address,
                                 u32 size) {
  ranges_.push_back({address, size, intern(name)});
  sorted_ = false;
}

u32 SampleProfile::symbolize(GVirt pc) {
  if (!sorted_) {
    std::stable_sort(ranges_.begin(), ranges_.end(),
                     [](const Range& a, const Range& b) {
                       return a.address < b.address;
                     });
    sorted_ = true;
  }
  // Last range starting at or below pc that still covers it.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), pc,
      [](GVirt v, const Range& r) { return v < r.address; });
  if (it != ranges_.begin()) {
    const Range& r = *std::prev(it);
    if (pc < r.address + r.size) return r.name;
  }
  return intern(pc < kernel_floor_ ? "[user]" : "[unknown]");
}

void SampleProfile::record(GVirt pc, u8 tier, u16 view, u64 weight) {
  counts_[{view, tier, symbolize(pc)}] += weight;
  total_ += weight;
}

void SampleProfile::merge(const SampleProfile& other) {
  if (period_ == 0) period_ = other.period_;
  for (const auto& [key, weight] : other.counts_) {
    const auto& [view, tier, name] = key;
    counts_[{view, tier, intern(other.names_[name])}] += weight;
  }
  total_ += other.total_;
}

std::vector<SampleProfile::Bucket> SampleProfile::buckets() const {
  std::vector<Bucket> out;
  out.reserve(counts_.size());
  for (const auto& [key, weight] : counts_) {
    const auto& [view, tier, name] = key;
    out.push_back({view, tier, names_[name], weight});
  }
  // counts_ iterates in (view, tier, name *index*) order; re-sort on the
  // name string so differently-built tables render identically.
  std::sort(out.begin(), out.end(), [](const Bucket& a, const Bucket& b) {
    if (a.view != b.view) return a.view < b.view;
    if (a.tier != b.tier) return a.tier < b.tier;
    return a.func < b.func;
  });
  return out;
}

std::map<u16, u64> SampleProfile::view_weights() const {
  std::map<u16, u64> out;
  for (const auto& [key, weight] : counts_) out[std::get<0>(key)] += weight;
  return out;
}

std::map<u8, u64> SampleProfile::tier_weights() const {
  std::map<u8, u64> out;
  for (const auto& [key, weight] : counts_) out[std::get<1>(key)] += weight;
  return out;
}

std::string SampleProfile::to_json() const {
  std::ostringstream out;
  out << "{\"period\":" << period_ << ",\"total_samples\":" << total_
      << ",\"total_cycles\":" << total_ * period_;
  out << ",\"tiers\":{";
  bool first = true;
  for (const auto& [tier, weight] : tier_weights()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << sample_tier_name(tier) << "\":{\"samples\":" << weight
        << ",\"share\":" << share6(weight, total_) << "}";
  }
  out << "},\"views\":[";
  first = true;
  for (const auto& [view, weight] : view_weights()) {
    if (!first) out << ",";
    first = false;
    out << "{\"view\":" << view << ",\"samples\":" << weight
        << ",\"share\":" << share6(weight, total_) << "}";
  }
  out << "],\"buckets\":[";
  first = true;
  for (const Bucket& b : buckets()) {
    if (!first) out << ",";
    first = false;
    out << "{\"view\":" << b.view << ",\"tier\":\""
        << sample_tier_name(b.tier) << "\",\"func\":\"" << b.func
        << "\",\"samples\":" << b.samples
        << ",\"cycles\":" << b.samples * period_ << "}";
  }
  out << "]}";
  return out.str();
}

std::string SampleProfile::collapsed() const {
  std::ostringstream out;
  for (const Bucket& b : buckets()) {
    out << "view_" << b.view << ";" << sample_tier_name(b.tier) << ";"
        << b.func << " " << b.samples << "\n";
  }
  return out.str();
}

std::string SampleProfile::render_top(std::size_t limit) const {
  std::vector<Bucket> top = buckets();
  std::stable_sort(top.begin(), top.end(),
                   [](const Bucket& a, const Bucket& b) {
                     return a.samples > b.samples;
                   });
  if (top.size() > limit) top.resize(limit);
  std::ostringstream out;
  out << "  view  tier    cycle%   samples  function\n";
  for (const Bucket& b : top) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %4u  %-6s  %6s%%  %8llu  %s\n",
                  b.view, sample_tier_name(b.tier),
                  share6(b.samples * 100, total_ == 0 ? 1 : total_).c_str(),
                  static_cast<unsigned long long>(b.samples), b.func.c_str());
    out << line;
  }
  return out.str();
}

}  // namespace fc::obs
