// Scenario harness shared by tests, benchmarks and examples: boots a guest
// system, runs profiling sessions (the paper's profiling phase, one app per
// session), and drives complete attack scenarios through the runtime phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/datawrite.hpp"
#include "analysis/prober.hpp"
#include "apps/apps.hpp"
#include "attacks/attacks.hpp"
#include "core/dataview.hpp"
#include "core/engine.hpp"
#include "core/profiler.hpp"
#include "core/shared_image.hpp"
#include "hv/hypervisor.hpp"
#include "os/os_runtime.hpp"

namespace fc::harness {

/// The memoized boot-only SharedImage for one OsConfig: kernel + module
/// images plus the post-boot guest memory pages, captured from a template
/// boot on first use. Every GuestSystem constructed with the same config
/// afterwards boots copy-on-write against it instead of reassembling the
/// kernel from scratch. Thread-safe (mutex on the memo; the images
/// themselves are immutable once built).
const core::SharedImage& boot_image_for(const os::OsConfig& config);

/// A booted guest: hypervisor + OS. The kernel layout is deterministic, so
/// view configs profiled in one GuestSystem are valid in another.
class GuestSystem {
 public:
  /// Tag: assemble kernel and views from scratch instead of adopting a
  /// shared image (template capture; byte-equivalence regression tests).
  struct FreshBoot {};

  explicit GuestSystem(os::OsConfig config = {})
      : GuestSystem(config, boot_image_for(config)) {}

  /// Boot copy-on-write from a shared image (fleet VMs; the default ctor
  /// routes here via the memoized boot image), decoding through the image's
  /// decode memo. `image` must outlive this system.
  GuestSystem(os::OsConfig config, const core::SharedImage& image)
      : hv_(image.guest_phys_mib, &image.machine, &image.decode_memo),
        os_(hv_, config, &image.boot) {
    os_.boot();
    // Boot replay transiently diverges a handful of frames (table pages are
    // zeroed then rebuilt to their captured contents); fold the pure copies
    // back into the store now that the replay has settled.
    hv_.machine().host().reshare_identical();
  }

  /// A FreshBoot system decodes through a private memo.
  GuestSystem(os::OsConfig config, FreshBoot) : os_(hv_, config) {
    os_.boot();
  }

  hv::Hypervisor& hv() { return hv_; }
  os::OsRuntime& os() { return os_; }
  cpu::Vcpu& vcpu() { return hv_.vcpu(); }

  /// Run until the pid is gone (exited/reaped) or `max_cycles` elapse.
  hv::RunOutcome run_until_exit(u32 pid, Cycles max_cycles);
  /// Run for a fixed number of simulated cycles.
  hv::RunOutcome run_for(Cycles cycles) { return hv_.run_for(cycles); }

 private:
  hv::Hypervisor hv_;
  os::OsRuntime os_;
};

/// Profile one application in a fresh system (an independent profiling
/// session, as the paper does for unprofiled apps) and export its view.
core::KernelViewConfig profile_app(const std::string& app,
                                   u32 iterations = 30);

/// Profiles for all 12 Table I applications; memoized per process.
const std::vector<core::KernelViewConfig>& profile_all_apps(
    u32 iterations = 30);

/// Look up one app's memoized profile.
const core::KernelViewConfig& profile_of(const std::string& app,
                                         u32 iterations = 30);

/// Whole-system static call graph: the base kernel image plus every module
/// image loaded this boot, with the syscall and IRQ dispatch tables read
/// out of guest memory and registered as indirect-dispatch fan-out.
analysis::CallGraph build_call_graph(GuestSystem& sys);

/// Distill the analyzer's results into the runtime audit struct: the full
/// 0B 0F hazard return set, plus (per entry in `views`) the closure of that
/// view's config. Install with FaceChangeEngine::install_static_audit.
core::StaticAudit build_static_audit(
    const analysis::CallGraph& graph,
    const std::vector<std::pair<u32, core::KernelViewConfig>>& views);

// ---------------------------------------------------------------------------
// Boundary probing + data-view integrity.
// ---------------------------------------------------------------------------

/// The clean-boot analysis baseline every probe and data-view scenario
/// shares: call graph, raw syscall dispatch table, entry-reachable spans
/// and the data-write analysis. Built from a CLEAN template boot (the
/// kernel layout is deterministic, so the artifacts are valid in any boot)
/// — building it from an infected system would launder rootkit code into
/// the entry-reachable set and its stores into the whitelist. Memoized.
struct ProbeContext {
  analysis::CallGraph graph;
  std::vector<GVirt> syscall_table;  // all 512 raw slots, unresolved
  core::RangeList entry_reachable;
  analysis::DataWriteAnalysis data;
};
const ProbeContext& probe_context();

struct ProbeRunOptions {
  Cycles run_budget = 800'000'000;
};

/// Outcome of one app's boundary probe: the plan plus the runtime trap
/// classification. `unexplained` is the CI gate — a clean system must
/// explain every trap as closure-predicted or profile-gap.
struct ProbeRunResult {
  std::string app;
  analysis::ProbePlan plan;
  bool completed = false;  // probe process exited within budget
  u64 traps = 0;           // total UD2 recoveries during the run
  u64 predicted = 0;       // trap pc inside the view closure
  u64 profile_gap = 0;     // outside closure, entry-reachable (clean boot)
  u64 unexplained = 0;     // true cross-view hazards — must be 0
};

/// Execute the boundary probe plan for one app's view through the real
/// engine: plan the syscall set, boot a guest, bind the probe process to
/// the app's view, issue every planned call, classify every trap.
ProbeRunResult run_boundary_probe(const std::string& app,
                                  const ProbeRunOptions& options = {});

struct DataViewRunOptions {
  Cycles run_budget = 120'000'000;
};

/// Outcome of one data-view monitoring scenario.
struct DataViewRunResult {
  std::string name;
  core::DataViewMonitor::Stats stats;
  std::vector<core::DataViewMonitor::Violation> violations;
  std::size_t whitelist_writers = 0;  // policy size (CI artifact)
  /// Post-infection static pass found a module-unit store reaching a
  /// protected object (the static half of the detection).
  bool untrusted_static_writer = false;
};

/// Deploy a kernel rootkit under an armed DataViewMonitor and report the
/// write violations its installation produces, plus the post-infection
/// static writer verdict.
DataViewRunResult run_data_view_attack(attacks::Attack& attack,
                                       const DataViewRunOptions& options = {});

/// False-positive control: run every Table I app briefly plus one benign
/// module load under an armed monitor. Must report zero violations.
DataViewRunResult run_data_view_benign(u32 iterations = 3);

// ---------------------------------------------------------------------------
// Fleet images.
// ---------------------------------------------------------------------------

struct SharedImageOptions {
  /// Apps whose views the image carries (empty = all 12 Table I apps).
  std::vector<std::string> apps;
  u32 profile_iterations = 30;
  /// Config the fleet VMs will boot with (the captured memory image depends
  /// on it).
  os::OsConfig runtime_config;
  /// Run the static analyzer and embed the audit + per-view closures.
  bool with_static_audit = true;
};

/// Build the full fleet SharedImage: profile the apps, boot a template,
/// capture its memory, load and capture every view, prebuild all (from, to)
/// switch descriptors, and (optionally) the static audit. The returned
/// image is immutable and must outlive every VM constructed from it.
std::unique_ptr<core::SharedImage> build_shared_image(
    const SharedImageOptions& options = {});

// ---------------------------------------------------------------------------
// Attack scenarios (Table II).
// ---------------------------------------------------------------------------

struct AttackRunOptions {
  bool use_union_view = false;  // system-wide minimization baseline
  Cycles run_budget = 300'000'000;
  u32 victim_iterations = 25;
};

struct AttackRunResult {
  bool detected = false;  // every signature group matched a recovery
  std::vector<std::string> matched_symbols;
  std::size_t recovery_events = 0;
  bool backtrace_has_unknown = false;  // hidden-module frames (Figure 5)
  std::vector<std::string> rendered_events;  // first few, for display
  /// Base symbol (no +offset) of every recovery event, in order.
  std::vector<std::string> recovered_symbols;

  bool recovered(const std::string& prefix) const {
    for (const std::string& sym : recovered_symbols)
      if (sym.rfind(prefix, 0) == 0) return true;
    return false;
  }
};

AttackRunResult run_attack(attacks::Attack& attack,
                           const AttackRunOptions& options = {});

}  // namespace fc::harness
