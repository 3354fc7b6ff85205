// In-guest benchmark workloads for Figures 6/7: a UnixBench-like subtest
// suite and a tunable Apache-style server. Shared by fig6/fig7 and the
// ablation benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace fc::ubench {

namespace abi = fc::abi;

/// A subtest model loops forever and bumps the OS "responses" counter once
/// per completed work unit; the harness measures units per simulated second.
using ModelFactory = std::function<std::shared_ptr<os::AppModel>()>;

struct Subtest {
  std::string name;
  ModelFactory factory;
  bool needs_binaries = false;  // needs the ls/cat/sh utility binaries
};

/// The UnixBench-like suite (compute, syscall overhead, pipe throughput,
/// pipe-based context switching, process creation, execl, file copy,
/// shell-script combo).
std::vector<Subtest> unixbench_suite();

/// Measure one subtest: ops per simulated second over `measure_cycles`
/// after `warmup_cycles`, in an optionally FACE-CHANGE-enabled system with
/// `loaded_views` application views loaded (bound to their — not running —
/// applications, exactly the paper's Figure 6 methodology).
struct MeasureOptions {
  bool face_change = false;
  u32 loaded_views = 0;
  Cycles warmup_cycles = 3'000'000;
  Cycles measure_cycles = 20'000'000;
  /// Engine knobs for the ablation benches.
  core::EngineOptions engine;
  /// Bind the benchmark process itself to its own profiled view instead of
  /// the full view (used by ablations that need view switching on the hot
  /// path).
  bool bind_benchmark_view = false;
};

struct MeasureResult {
  double ops_per_second = 0;
  u64 context_switch_traps = 0;
  u64 view_switches = 0;
  u64 recoveries = 0;
};

MeasureResult measure_subtest(const Subtest& subtest,
                              const MeasureOptions& options);

/// Figure 7's server: accept → read(conn) → open/read file → compute →
/// write(conn) → close, bumping the response counter per request.
std::shared_ptr<os::AppModel> make_http_server(Cycles per_request_compute);

/// Drive the server at `rate` requests/second for `total_requests`
/// connections; returns achieved responses/second.
struct HttperfOptions {
  bool face_change = false;
  u32 total_requests = 100;
  Cycles per_request_compute = 1'480'000;
  core::EngineOptions engine;  // ablation knobs
};
double run_httperf(double rate_per_second, const HttperfOptions& options);

/// The open-loop drive core shared by run_httperf, fig7_apache_io and
/// bench/fleet_http: spawn the apache-style server into an already-booted
/// system, warm it up to accept(), then schedule `total_requests`
/// connection arrivals at exactly `rate` per simulated second and run to
/// completion (or a generous deadline). Per-response latency is measured
/// against the *scheduled* arrival time, the open-loop definition — queueing
/// delay under overload shows up in full.
struct OpenLoopStats {
  u64 offered = 0;
  u64 served = 0;
  double seconds = 0;  // simulated seconds across the drive window
  double achieved_rps = 0;
  /// completion cycle − scheduled arrival cycle, in completion order (the
  /// single-vCPU server answers FIFO, so index i is request i).
  std::vector<Cycles> latencies;
};
OpenLoopStats run_http_workload(harness::GuestSystem& sys,
                                double rate_per_second, u32 total_requests,
                                Cycles per_request_compute = 1'480'000);

/// The saturation-knee receiver for bench/fleet_http: a UDP socket bound to
/// `port` plus a pure-compute loop bumping the response counter once per
/// `per_unit` cycles. Datagram delivery is elastic (the kernel never drops),
/// so the honest saturation metric is how much compute throughput survives
/// a given offered interrupt load — the knee is where retention collapses.
std::shared_ptr<os::AppModel> make_udp_compute(u16 port, Cycles per_unit);

}  // namespace fc::ubench
