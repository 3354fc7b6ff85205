// The FACE-CHANGE runtime engine (Algorithm 1): traps the guest's context
// switch, selects the incoming process's kernel view by VMI, defers the EPT
// switch to resume-userspace (the missed-interrupt optimization), skips
// switches between processes sharing a view, handles UD2 recovery traps, and
// supports hot load/unload of views.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/recovery.hpp"
#include "core/shared_image.hpp"
#include "core/switchdelta.hpp"
#include "core/view.hpp"
#include "core/viewbuilder.hpp"
#include "hv/hypervisor.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "os/kernel_image.hpp"

namespace fc::core {

class EngineTelemetry;

struct EngineOptions {
  /// Switch views at resume-userspace rather than immediately at the
  /// context switch (paper §III-B2; false = the naive scheme, ablated).
  bool switch_at_resume = true;
  /// Skip the EPT writes when prev and next share a kernel view.
  bool same_view_optimization = true;
  /// Proactively instant-recover 0B 0F return targets on the incoming
  /// task's saved stack at every context switch (see recovery.hpp —
  /// required for safe multi-view operation; off reproduces the paper's
  /// trap-time-only instant recovery).
  bool cross_view_scan = true;
  /// Switch through cached per-(from, to) delta descriptors that issue only
  /// the PDE/PTE writes whose value actually changes (see switchdelta.hpp)
  /// and invalidate only the TLB entries whose guest-physical page falls
  /// inside a changed range; false = the naive full rewrite plus a full
  /// TLB flush on every transition (the §III-B2 ablation).
  bool delta_switch_fastpath = true;
  ViewBuilderOptions builder;
};

class FaceChangeEngine : public hv::ExitHandler {
 public:
  FaceChangeEngine(hv::Hypervisor& hv, const os::KernelImage& kernel,
                   EngineOptions options = {});
  ~FaceChangeEngine() override;

  /// Install the context-switch trap and take over VM-exit handling.
  void enable();
  /// Remove all traps and restore the full kernel view.
  void disable();
  bool enabled() const { return enabled_; }

  /// Build a view from a profile and register it. Returns the view id.
  u32 load_view(const KernelViewConfig& config);

  /// Fleet path: rehydrate every view captured in `image` (ids come out
  /// 1..image.views.size(), matching the template load order the image's
  /// audit and descriptors are keyed by), install the audit, and prefill
  /// the switch-descriptor cache with the prebuilt descriptors. Requires
  /// enable() first, no views loaded yet, and a hypervisor constructed from
  /// the same image (validated via the image's frame-count invariants).
  void adopt_shared_views(const SharedImage& image);
  /// Hot-unload (§III-B4): deregister; if active, the EPT reverts to the
  /// full kernel view without interrupting the guest.
  void unload_view(u32 view_id);
  std::size_t view_count() const { return views_.size(); }

  /// Bind processes (by comm) to a view. Unbound processes get the full
  /// kernel view.
  void bind(const std::string& comm, u32 view_id);
  void unbind(const std::string& comm);

  /// Immediately install a view (tests / staged scenarios).
  void force_activate(u32 view_id);
  u32 active_view_id() const { return active_view_; }
  const KernelView* view(u32 view_id) const;

  RecoveryLog& recovery_log() { return recovery_log_; }
  const RecoveryEngine::Stats& recovery_stats() const {
    return recovery_->stats();
  }
  RecoveryEngine& recovery() { return *recovery_; }

  // --- telemetry plane (sampling profiler + time series) -----------------

  /// Default profiler period: fine enough for per-function attribution on a
  /// multi-million-cycle run, coarse enough that the per-sample work is
  /// noise (the bench gates overhead at <= 5%; measured well under 1%).
  static constexpr Cycles kDefaultSamplePeriod = 8192;
  static constexpr Cycles kDefaultTimelineInterval = 1'000'000;

  struct TelemetryOptions {
    /// Cycles between samples; 0 disables the whole plane.
    Cycles sample_period = kDefaultSamplePeriod;
    /// Cycles between time-series snapshot rows; 0 = profiler only. Rows
    /// fire at the first sample at/after each interval boundary, so keep
    /// this well above sample_period.
    Cycles timeline_interval = 0;
    /// Optional instant gauge for the "queue_depth" column (the engine
    /// cannot see the OS event queue; callers inject it). Null reads 0.
    std::function<u64()> queue_depth;
    /// Optional IO data-plane gauges, injected the same way: cumulative
    /// delivered events ("io_events") and instantaneous un-drained ring
    /// depth ("io_ring_depth"). Null reads 0.
    std::function<u64()> io_events;
    std::function<u64()> io_ring_depth;
  };

  /// Attach the cycle-driven sampling profiler (and, with a non-zero
  /// interval, the metric time series) to this engine's vCPU. The sample
  /// trigger is simulated time, so everything captured is byte-identical
  /// across runs and jobs counts. Replaces any previous attachment.
  void attach_telemetry(TelemetryOptions options);
  void attach_telemetry() { attach_telemetry(TelemetryOptions{}); }
  /// Detach and discard the captured telemetry (automatic at destruction).
  void detach_telemetry();
  bool telemetry_attached() const { return telemetry_ != nullptr; }
  /// Captured attribution / time series; FC_CHECKs unless attached.
  const obs::SampleProfile& profile() const;
  const obs::TimeSeries& timeline() const;
  /// The fixed time-series schema (shared by the fleet rollup).
  static const std::vector<std::string>& timeline_columns();

  /// Install the static analyzer's audit (hazard return set + per-view
  /// closure predictions). Replaces any previous audit; the recovery engine
  /// classifies every subsequent decision against it (see static_audit.hpp).
  void install_static_audit(StaticAudit audit);
  /// Merge one view's closure-predicted spans into the installed audit.
  void set_predicted_reachable(u32 view_id, RangeList spans);
  const StaticAudit& static_audit() const { return audit_; }

  struct Stats {
    u64 context_switch_traps = 0;
    u64 resume_traps = 0;
    u64 switches_skipped_same_view = 0;
    Cycles switch_cycles_charged = 0;
    // Fast-path attribution (see switchdelta.hpp). Every applied switch is
    // exactly one of the two, so their sum is the total — there is no
    // separate total counter to drift out of sync (disable()'s restore of
    // the full view, notably, is not a switch and counts as neither).
    u64 fastpath_switches = 0;
    u64 slowpath_switches = 0;
    u64 view_switches() const { return fastpath_switches + slowpath_switches; }
    u64 descriptor_cache_hits = 0;
    u64 descriptor_cache_misses = 0;
    u64 fastpath_pde_writes = 0;  // issued via descriptors
    u64 fastpath_pte_writes = 0;
    u64 naive_pde_writes_avoided = 0;  // naive-issue minus delta-issue
    u64 naive_pte_writes_avoided = 0;
    u64 scoped_invalidations = 0;
    u64 scoped_tlb_entries_dropped = 0;
    u64 full_flush_fallbacks = 0;  // fast-path switches that still flushed
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = Stats{};
    recovery_->reset_stats();
  }

  /// Multi-line run report: engine switch/trap counters plus the memory
  /// system underneath them (Mmu TLB stats and the vCPU's decoded-block
  /// cache, including invalidations by cause). Shown by `fcsh enforce`.
  /// When the flight recorder is capturing, a final `metrics: {...}` line
  /// carries the full registry export (see metrics_json).
  std::string render_run_report() const;

  /// Snapshot every layer's Stats struct into `out` as named counters
  /// (engine.*, recovery.*, mmu.*, ept.*, block_cache.*, hv.*). The report
  /// and all exporters read from this one export — no parallel ad-hoc
  /// fields to double-count.
  void export_metrics(obs::Metrics& out) const;
  /// export_metrics + the process-wide registry (histograms recorded by
  /// instrumented slow paths), rendered as deterministic JSON.
  std::string metrics_json() const;

  // --- hv::ExitHandler ---
  bool handle_invalid_opcode(GVirt pc) override;
  void handle_breakpoint(GVirt pc) override;

  /// The cached descriptor for (from, to), building it on first use.
  /// Exposed for tests and benches that attribute switch costs.
  const SwitchDescriptor& switch_descriptor(u32 from_id, u32 to_id);

 private:
  friend class EngineTelemetry;  // reads active_view_/stats_ at sample time

  void switch_to_view(u32 view_id);
  void apply_view(const KernelView* next);  // nullptr = full view
  void apply_descriptor(const SwitchDescriptor& descriptor);
  void charge_switch(const mem::Ept::Stats& before, Cycles invalidation_cost);
  u32 select_view(const hv::TaskInfo& task) const;
  void drop_descriptors_for(u32 view_id);

  hv::Hypervisor* hv_;
  const os::KernelImage* kernel_;
  EngineOptions options_;
  ViewBuilder builder_;
  RecoveryLog recovery_log_;
  std::unique_ptr<RecoveryEngine> recovery_;
  StaticAudit audit_;

  std::map<u32, std::unique_ptr<KernelView>> views_;
  // (from, to) → precomputed switch delta; dropped on unload and enable.
  std::map<std::pair<u32, u32>, SwitchDescriptor> switch_cache_;
  std::map<std::string, u32> bindings_;  // comm → view id
  u32 next_view_id_ = 1;
  u32 active_view_ = kFullKernelViewId;
  u32 pending_view_ = kFullKernelViewId;
  bool resume_trap_armed_ = false;

  GVirt switch_to_addr_ = 0;
  GVirt resume_userspace_addr_ = 0;
  bool enabled_ = false;

  // Identity PDE tables for the base kernel code region (captured at
  // enable time so the full view can be restored).
  std::vector<KernelView::BasePde> full_pdes_;

  Stats stats_;
  obs::Histogram* switch_cost_hist_ = nullptr;  // engine.switch_cost_cycles
  std::unique_ptr<EngineTelemetry> telemetry_;
};

}  // namespace fc::core
