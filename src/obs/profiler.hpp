// Deterministic sampling profile: where do guest cycles go, by kernel
// function, kernel view, and execution tier (interp / block)?
//
// The vCPU fires a sample every `period` *simulated* cycles (see
// cpu::SampleSink in vcpu.hpp) and the engine's telemetry adapter routes it
// here. Because the trigger is the cycle counter — never a wall clock or a
// host timer — the sample sequence is a pure function of the simulated run:
// byte-identical across repeated runs, jobs counts, and machines. A sample
// may stand for several whole periods (time can jump across one retired
// instruction: HLT idle-advance, KSVC charges), so each carries a `weight`
// of periods and attribution stays proportional to cycles.
//
// Symbolization happens at record time against a flat sorted function table
// (registered from hv::SymbolTable by the owner); pcs below the registered
// kernel floor attribute to "[user]", unclaimed kernel pcs to "[unknown]".
// This layer deliberately depends only on fc_support so the vCPU/obs
// layering (fc_vcpu -> fc_obs) stays acyclic.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "support/types.hpp"

namespace fc::obs {

/// Execution-tier encoding shared with cpu::SampleSink (kept numerically in
/// sync; vcpu cannot include obs headers' consumers of its own types).
inline constexpr u8 kSampleTierInterp = 0;
inline constexpr u8 kSampleTierBlock = 1;

/// "interp" / "block" (anything else: "tier?").
const char* sample_tier_name(u8 tier);

class SampleProfile {
 public:
  /// Cycles per sample; recorded into exports so consumers can convert
  /// sample weights back to cycles.
  void set_period(Cycles period) { period_ = period; }
  Cycles period() const { return period_; }

  /// Register a symbolization range. Call before the first record(); ranges
  /// are sorted lazily on first use. Overlaps resolve to the covering range
  /// with the highest start address (matching SymbolTable::find_covering).
  void add_function(const std::string& name, GVirt address, u32 size);
  /// pcs strictly below this attribute to "[user]" instead of "[unknown]".
  void set_kernel_floor(GVirt floor) { kernel_floor_ = floor; }

  /// Attribute `weight` sample periods at `pc` to (view, tier, function).
  void record(GVirt pc, u8 tier, u16 view, u64 weight);

  /// Order-independent merge (fleet rollup): buckets are matched by
  /// (view, tier, function name), so two profiles built from differently
  /// ordered function tables still merge exactly.
  void merge(const SampleProfile& other);

  u64 total_weight() const { return total_; }

  struct Bucket {
    u16 view = 0;
    u8 tier = 0;
    std::string func;
    u64 samples = 0;
  };
  /// All buckets, sorted by (view, tier, function name) — deterministic.
  std::vector<Bucket> buckets() const;
  /// Sample weight per view id (cycle share across views).
  std::map<u16, u64> view_weights() const;
  /// Sample weight per tier.
  std::map<u8, u64> tier_weights() const;

  /// Deterministic JSON: period, totals, per-tier and per-view shares
  /// (%.6f of exact integer ratios), and the sorted bucket list with
  /// cycles = samples * period.
  std::string to_json() const;
  /// Collapsed-stack flame-graph lines ("view_0;trace;do_sys_poll 123\n"),
  /// sorted like buckets() — feed to flamegraph.pl or speedscope.
  std::string collapsed() const;
  /// Human table of the top `limit` buckets by weight (ties broken by the
  /// deterministic bucket order).
  std::string render_top(std::size_t limit) const;

 private:
  struct Range {
    GVirt address = 0;
    u32 size = 0;
    u32 name = 0;  // index into names_
  };
  u32 intern(const std::string& name);
  u32 symbolize(GVirt pc);

  Cycles period_ = 0;
  GVirt kernel_floor_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, u32> name_index_;
  std::vector<Range> ranges_;
  bool sorted_ = false;
  // (view, tier, name index) -> sample weight. Name indices are private to
  // this instance; cross-instance operations go through the name strings.
  std::map<std::tuple<u16, u8, u32>, u64> counts_;
  u64 total_ = 0;
};

}  // namespace fc::obs
