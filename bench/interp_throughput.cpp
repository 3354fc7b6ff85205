// Interpreter throughput: guest instructions per host second across the
// Figure-6 UnixBench-like workloads, at the two execution tiers — uncached
// fetch+decode and the decoded basic-block cache with its simple-op
// batches — plus a third run with the sampling profiler attached to the
// block tier, gating the telemetry plane's overhead. All runs execute the
// identical deterministic instruction stream for the same simulated-cycle
// budget (the lockstep test proves byte-equivalence), so the ratios isolate
// exactly the dispatch work the block tier removes.
//
// A release run times whole budget-sized chunks until the run has retired
// at least kMinTimedInsns instructions: a subtest whose work is mostly
// modelled compute cycles (Dhrystone, Whetstone) retires only ~2M
// instructions per budget, and a ~25 ms timed run lets one host hiccup
// decide its throughput floor. The chunk count depends only on simulated
// instructions, so it stays exact.
//
// Usage: interp_throughput [--smoke]
//   --smoke   tiny cycle budget, one chunk per timed run, no speedup
//             thresholds (CI / sanitizer tier)
//
// Writes BENCH_interp.json next to the working directory and exits non-zero
// if the block-cache geomean falls below 2x over uncached, the profiled
// run's geomean throughput below 0.95x of the unprofiled block tier (the
// <= 5% sampling-overhead budget; both skipped under --smoke), or — in
// every mode — if attaching the profiler changes the retired instruction
// stream (sampling must observe, never perturb).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "ubench_models.hpp"

namespace {

enum class Tier { kUncached, kBlockOnly, kBlockProfiled };

/// 140-200 ms of block-tier execution at 80-115M insns/s (the rates a
/// shared 4-vCPU host gives).
constexpr fc::u64 kMinTimedInsns = 16'000'000;

struct Sample {
  double insns_per_sec = 0;
  fc::u64 insns = 0;
  double wall_seconds = 0;
  fc::u64 samples = 0;  // kBlockProfiled: sample periods attributed
  fc::cpu::BlockCache::Stats blocks;  // the timed run's block-cache counters
};

// Minimal profiler attachment for an engine-less bench: route vCPU samples
// straight into a SampleProfile (view 0 — no view switching here).
struct ProfSink final : public fc::cpu::SampleSink {
  fc::obs::SampleProfile profile;
  void on_sample(fc::Cycles, fc::GVirt pc, fc::u8 tier,
                 fc::u64 periods) override {
    profile.record(pc, tier, 0, periods);
  }
};

/// Run `warmup`, then time `budget`-cycle chunks until at least `min_insns`
/// instructions have retired (one chunk when min_insns is 0, or when a chunk
/// retires nothing).
Sample measure(const fc::ubench::Subtest& subtest, Tier tier,
               fc::Cycles warmup, fc::Cycles budget, fc::u64 min_insns) {
  using Clock = std::chrono::steady_clock;
  fc::harness::GuestSystem sys;
  sys.vcpu().set_block_cache_enabled(tier != Tier::kUncached);
  ProfSink sink;
  if (tier == Tier::kBlockProfiled) {
    const fc::os::KernelImage& kernel = sys.os().kernel();
    sink.profile.set_period(fc::core::FaceChangeEngine::kDefaultSamplePeriod);
    for (const auto& [addr, symbol] : kernel.symbols.by_address())
      sink.profile.add_function(symbol.name, symbol.address, symbol.size);
    sink.profile.set_kernel_floor(kernel.text_base);
    sys.vcpu().set_sample_sink(&sink, sink.profile.period());
  }
  if (subtest.needs_binaries) fc::apps::register_utility_binaries(sys.os());
  sys.os().spawn("ubench", subtest.factory());
  sys.run_for(warmup);

  const fc::u64 i0 = sys.vcpu().instructions_retired();
  const Clock::time_point t0 = Clock::now();
  for (fc::u64 before = i0;; before = sys.vcpu().instructions_retired()) {
    sys.run_for(budget);
    const fc::u64 now = sys.vcpu().instructions_retired();
    if (now - i0 >= min_insns || now == before) break;
  }
  const Clock::time_point t1 = Clock::now();
  Sample s;
  s.insns = sys.vcpu().instructions_retired() - i0;
  s.samples = sink.profile.total_weight();
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (s.wall_seconds > 0)
    s.insns_per_sec = static_cast<double>(s.insns) / s.wall_seconds;
  s.blocks = sys.vcpu().block_cache().stats();
  return s;
}

/// Best-of-`reps` wall clock for one (subtest, tier). The simulated work is
/// identical every repetition (asserted), so taking the fastest repetition
/// strips host scheduling noise from the wall-clock ratios — the profiler
/// overhead gate compares two ~1.0x-apart configs and would otherwise flake
/// on a loaded CI box.
Sample measure_best(const fc::ubench::Subtest& subtest, Tier tier,
                    fc::Cycles warmup, fc::Cycles budget, fc::u64 min_insns,
                    int reps) {
  Sample best = measure(subtest, tier, warmup, budget, min_insns);
  for (int r = 1; r < reps; ++r) {
    Sample s = measure(subtest, tier, warmup, budget, min_insns);
    if (s.insns != best.insns)
      std::printf("  WARNING: nondeterministic repetition on %s "
                  "(%llu vs %llu insns)\n",
                  subtest.name.c_str(), (unsigned long long)best.insns,
                  (unsigned long long)s.insns);
    if (s.insns_per_sec > best.insns_per_sec) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fc;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const Cycles warmup = smoke ? 500'000 : 3'000'000;
  const Cycles budget = smoke ? 2'000'000 : 60'000'000;
  const u64 min_insns = smoke ? 0 : kMinTimedInsns;

  std::printf("Interpreter throughput — uncached vs block cache\n");
  std::printf("(budget %llu simulated cycles per chunk, >= %llu insns per "
              "timed run%s)\n\n",
              (unsigned long long)budget, (unsigned long long)min_insns,
              smoke ? ", SMOKE" : "");
  std::printf("%-22s %11s %11s %11s %7s %7s\n", "Subtest", "off (i/s)",
              "block (i/s)", "prof (i/s)", "blk/off", "prf/blk");
  std::printf("%s\n", std::string(74, '-').c_str());

  obs::metrics().reset();
  auto suite = ubench::unixbench_suite();
  double log_sum_block = 0;
  double log_sum_prof = 0;
  u64 total_samples = 0;
  bool prof_stream_ok = true;
  std::string json = "{\n  \"budget_cycles\": " + std::to_string(budget) +
                     ",\n  \"smoke\": " + (smoke ? "true" : "false") +
                     ",\n  \"subtests\": [\n";
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& subtest = suite[i];
    // The block and profiled configs feed the tight overhead ratio, so
    // they get best-of-3 on release runs; the uncached run only feeds the
    // wide-margin block gate and gets one repetition.
    const int reps = smoke ? 1 : 3;
    Sample block =
        measure_best(subtest, Tier::kBlockOnly, warmup, budget, min_insns, reps);
    // Accumulate the block tier's counters into the obs registry (every
    // repetition counts the same); the whole registry is embedded in
    // BENCH_interp.json below.
    obs::Metrics& m = obs::metrics();
    m.add("bench.insns_retired", block.insns);
    m.add("block_cache.insn_hits", block.blocks.insn_hits);
    m.add("block_cache.block_misses", block.blocks.block_misses);
    m.add("block_cache.blocks_built", block.blocks.blocks_built);
    m.add("block_cache.insns_decoded", block.blocks.insns_decoded);
    m.observe("bench.subtest_insns", block.insns);
    Sample off = measure(subtest, Tier::kUncached, warmup, budget, min_insns);
    Sample prof = measure_best(subtest, Tier::kBlockProfiled, warmup, budget,
                               min_insns, reps);
    // Determinism check: same simulated budget → same instruction stream at
    // every tier (lockstep_test proves the stronger per-step property).
    if (block.insns != off.insns)
      std::printf("  WARNING: retired-instruction mismatch on %s "
                  "(%llu / %llu)\n",
                  subtest.name.c_str(), (unsigned long long)off.insns,
                  (unsigned long long)block.insns);
    // The profiler is an observer: attaching it must not move a single
    // retired instruction. A mismatch here is a correctness failure, not a
    // perf one, so it fails the bench even under --smoke.
    if (prof.insns != block.insns) {
      std::printf("  FAIL: profiler perturbed the stream on %s "
                  "(%llu vs %llu insns)\n",
                  subtest.name.c_str(), (unsigned long long)block.insns,
                  (unsigned long long)prof.insns);
      prof_stream_ok = false;
    }
    total_samples += prof.samples;
    double block_speedup =
        off.insns_per_sec > 0 ? block.insns_per_sec / off.insns_per_sec : 0;
    double prof_ratio = block.insns_per_sec > 0
                            ? prof.insns_per_sec / block.insns_per_sec
                            : 0;
    log_sum_block += std::log(block_speedup > 0 ? block_speedup : 1e-9);
    log_sum_prof += std::log(prof_ratio > 0 ? prof_ratio : 1e-9);
    std::printf("%-22s %11.0f %11.0f %11.0f %6.2fx %6.2fx\n",
                subtest.name.c_str(), off.insns_per_sec, block.insns_per_sec,
                prof.insns_per_sec, block_speedup, prof_ratio);
    char entry[512];
    std::snprintf(entry, sizeof(entry),
                  "    {\"name\": \"%s\", \"insns\": %llu, "
                  "\"off_insns_per_sec\": %.0f, \"on_insns_per_sec\": %.0f, "
                  "\"prof_insns_per_sec\": %.0f, \"prof_samples\": %llu, "
                  "\"speedup\": %.3f, \"prof_ratio\": %.3f}%s\n",
                  subtest.name.c_str(), (unsigned long long)block.insns,
                  off.insns_per_sec, block.insns_per_sec, prof.insns_per_sec,
                  (unsigned long long)prof.samples, block_speedup, prof_ratio,
                  i + 1 < suite.size() ? "," : "");
    json += entry;
  }
  const double n = static_cast<double>(suite.size());
  const double geomean_block = std::exp(log_sum_block / n);
  const double geomean_prof = std::exp(log_sum_prof / n);
  std::printf("%s\n", std::string(74, '-').c_str());
  std::printf("%-22s %35s %6.2fx %6.2fx\n", "GEOMEAN", "", geomean_block,
              geomean_prof);
  std::printf("%-22s profiler overhead %.1f%% (%llu samples)\n", "",
              (1.0 - geomean_prof) * 100.0, (unsigned long long)total_samples);

  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"geomean_speedup\": %.3f,\n"
                "  \"prof_geomean_ratio\": %.3f,\n"
                "  \"prof_total_samples\": %llu,\n",
                geomean_block, geomean_prof, (unsigned long long)total_samples);
  json += tail;
  json += "  \"metrics\": " + obs::metrics().to_json() + "\n}\n";
  std::ofstream("BENCH_interp.json") << json;

  if (!prof_stream_ok) {
    std::printf("\nFAILED: sampling profiler perturbed the instruction "
                "stream (see above)\n");
    return 1;
  }
  if (smoke) {
    std::printf("\nsmoke run: thresholds not enforced\n");
    return 0;
  }
  const bool block_ok = geomean_block >= 2.0;
  const bool prof_ok = geomean_prof >= 0.95;
  std::printf("\nthreshold (block geomean >= 2.0x): %s\n",
              block_ok ? "OK" : "FAILED");
  std::printf("threshold (profiled >= 0.95x of block tier — <= 5%% "
              "sampling overhead): %s\n",
              prof_ok ? "OK" : "FAILED");
  return (block_ok && prof_ok) ? 0 : 1;
}
