// Multi-VM fleet runner: N independent guest VMs scheduled onto a bounded
// worker-thread pool, all referencing one immutable core::SharedImage.
//
// Thread model: each worker owns the full stack of the VM it is currently
// running — Machine, vCPU, MMU, engine, OS runtime — so the simulation hot
// path takes no locks. VM ids are claimed through a work-stealing scheduler
// (per-worker deques, steal-half; see work_steal.hpp); results land in
// disjoint pre-sized report slots with the pool join as the publishing edge,
// so there is no result-sink lock. The only cross-worker state is the shared
// store's page refcounts — cache-line-isolated atomics that each VM batches
// locally and flushes at boot-settle/teardown (see HostMemory) — and the
// scheduler deques. Private frame storage comes from thread-local page
// arenas, keeping the global allocator off the VM hot path. The obs
// recorder/metrics registries are thread-local, so tracing one VM never
// races another.
//
// Determinism contract (extends PR 4's across threads): a VM's simulation
// depends only on (shared image, app, iterations, budget) — never on which
// worker ran it or what ran before it on that worker (the thread-local
// metrics registry is reset per VM). The report is keyed by VM id, so
// FleetReport::to_json() and merged_trace() are byte-identical for any
// --jobs value; the fleet determinism test asserts this at jobs 1/4/8.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/shared_image.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "os/os_runtime.hpp"
#include "support/types.hpp"

namespace fc::core {
class FaceChangeEngine;
}
namespace fc::harness {
class GuestSystem;
}

namespace fc::fleet {

/// Caps on a fleet's shape; the tools reject a larger --vms or worker count
/// before building anything.
inline constexpr u32 kMaxVms = 4096;
inline constexpr u32 kMaxWorkers = 256;

/// The worker threads FleetRunner::run starts for `vms` VMs at `jobs`
/// (0 = one per VM): at least one, and no more than the VM count.
u32 resolved_workers(u32 vms, u32 jobs);

/// Empty when `vms` is in [1, kMaxVms] and resolved_workers(vms, jobs) is at
/// most kMaxWorkers; otherwise why the shape is rejected.
std::string fleet_shape_error(u32 vms, u32 jobs);

struct FleetOptions {
  u32 vms = 8;
  /// Worker threads; 0 = one per VM (capped at the VM count either way).
  u32 jobs = 1;
  /// Per-VM app workload iterations.
  u32 iterations = 4;
  /// Uneven workloads: when non-empty, VM i runs iteration_mix[i % size]
  /// iterations instead of `iterations`. Part of the determinism key (a
  /// VM's work depends on its id, never on scheduling), so reports stay
  /// byte-identical across --jobs while the per-VM runtimes diverge — the
  /// shape that makes work stealing observable.
  std::vector<u32> iteration_mix;
  Cycles run_budget = 300'000'000;
  /// Per-VM app assignment, round-robin; empty = the image's view order.
  std::vector<std::string> apps;
  os::OsConfig os_config;
  /// Capture a per-VM trace ring and carry it into the merged stream.
  bool capture_traces = false;
  u32 trace_capacity = 1u << 14;
  /// Attach the telemetry plane to every VM: the sampling profiler
  /// (capture_telemetry) and, on top of it, per-VM time series merged into
  /// the fleet timeline rollup (timeline_interval != 0). Cycle-driven, so
  /// the merged outputs are byte-identical across jobs counts.
  bool capture_telemetry = false;
  Cycles sample_period = 8192;  // FaceChangeEngine::kDefaultSamplePeriod
  Cycles timeline_interval = 1'000'000;
  /// false = baseline for the fleet_scale bench: every VM assembles its own
  /// kernel and builds its own views (the pre-SharedImage world).
  bool share_image = true;
  /// Custom per-VM workload. When set, the runner boots the VM, binds
  /// `workload_app`'s view, then hands the whole drive phase (spawn,
  /// traffic scheduling, run loop) to this hook instead of the stock
  /// make_app/run_until_exit path. Must be deterministic in vm_id alone —
  /// the jobs-invariance contract covers hook-driven runs too. Used by
  /// bench/fleet_http to drive open-loop request load.
  std::function<void(harness::GuestSystem&, core::FaceChangeEngine&,
                     u32 vm_id)>
      workload;
  /// View/app to bind for workload-driven VMs (required with `workload`).
  std::string workload_app;
};

struct VmResult {
  u32 vm = 0;
  std::string app;
  u64 instructions = 0;
  Cycles cycles = 0;
  u64 recoveries = 0;
  u64 view_switches = 0;
  /// COW residency at end of run: frames this VM privately owns / total.
  u32 private_frames = 0;
  u32 total_frames = 0;
  bool fault = false;
  /// engine.metrics_json() for this VM alone (deterministic JSON).
  std::string metrics_json;
  /// Serialized per-VM trace stream (empty unless capture_traces).
  std::vector<u8> trace;
  /// Telemetry capture (populated only under capture_telemetry).
  obs::SampleProfile profile;
  obs::TimeSeries timeline;
  /// This VM's switch-cost distribution (engine.switch_cost_cycles),
  /// carried out of the thread-local registry so the fleet can merge
  /// per-VM histograms and extract p50/p90/p99.
  obs::Histogram switch_cost;
};

struct FleetReport {
  std::vector<VmResult> vms;  // indexed by VM id
  u64 shared_store_pages = 0;
  /// Wall-clock duration of the run; intentionally NOT part of to_json()
  /// (the deterministic report must not depend on scheduling).
  double wall_seconds = 0.0;
  /// VM ids migrated between workers by the work-stealing scheduler.
  /// Scheduling telemetry — like wall_seconds, excluded from to_json().
  u64 steals = 0;

  u64 total_instructions() const;
  /// Shared store pages + every VM's private frames: the fleet's resident
  /// host-memory footprint in 4 KiB frames.
  u64 resident_frames() const;
  /// Deterministic merged report, keyed by VM id; byte-identical for any
  /// jobs count.
  std::string to_json() const;
  /// Deterministic merged trace container ("FCFL": per-VM FCTR streams in
  /// VM-id order). Empty when no VM captured a trace.
  std::vector<u8> merged_trace() const;

  /// Fleet-wide cycle attribution: every VM's profile merged in id order
  /// (bucket sums are order-independent, so the result is jobs-invariant).
  /// Empty profile when telemetry was not captured.
  obs::SampleProfile merged_profile() const;
  /// Per-VM switch-cost histograms merged into one fleet distribution.
  obs::Histogram merged_switch_cost() const;
  /// Fleet timeline: per-interval p50/p90/p99-across-VMs for every
  /// time-series column, plus the merged switch-cost percentiles.
  /// Deterministic JSON, byte-identical for any jobs count.
  std::string timeline_json() const;
};

/// Parse an FCFL container into (vm id, FCTR stream) pairs. Returns false
/// on bad magic/truncation.
bool parse_fleet_trace(const std::vector<u8>& bytes,
                       std::vector<std::pair<u32, std::vector<u8>>>* out);
inline bool is_fleet_trace(const std::vector<u8>& bytes) {
  return bytes.size() >= 4 && bytes[0] == 'F' && bytes[1] == 'C' &&
         bytes[2] == 'F' && bytes[3] == 'L';
}

class FleetRunner {
 public:
  /// `image` must outlive the runner and every run() call.
  FleetRunner(const core::SharedImage& image, FleetOptions options);

  FleetReport run();

 private:
  VmResult run_one_vm(u32 vm_id);

  const core::SharedImage* image_;
  FleetOptions options_;
};

}  // namespace fc::fleet
