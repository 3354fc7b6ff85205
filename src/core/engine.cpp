#include "core/engine.hpp"

#include <sstream>

#include "hv/guest_abi.hpp"
#include "obs/trace.hpp"
#include "support/logging.hpp"

namespace fc::core {

using mem::GuestLayout;

// A delta descriptor with more changed ranges than this falls back to a
// full TLB flush instead of a scoped invalidation.
constexpr std::size_t kMaxScopedRanges = 64;

// The vCPU's tier encoding is the profiler's wire encoding (fc_vcpu cannot
// depend on fc_obs consumers of its types, so the constants are mirrored).
static_assert(cpu::kTierInterp == obs::kSampleTierInterp);
static_assert(cpu::kTierBlock == obs::kSampleTierBlock);
static_assert(cpu::kTierTrace == obs::kSampleTierTrace);

/// The telemetry plane's vCPU-facing half: receives every cycle-driven
/// sample, attributes it (function, view, tier) through the kernel symbol
/// table, mirrors it into the flight recorder when one is capturing, and
/// drives the time series off the same trigger. Pure observer — it never
/// touches guest or vCPU state, so attaching it cannot perturb the
/// simulation (the interp-throughput bench asserts instruction-count
/// equality with and without it).
class EngineTelemetry final : public cpu::SampleSink {
 public:
  EngineTelemetry(FaceChangeEngine& engine,
                  FaceChangeEngine::TelemetryOptions options)
      : engine_(&engine), options_(std::move(options)) {
    profile_.set_period(options_.sample_period);
    profile_.set_kernel_floor(engine.kernel_->text_base);
    for (const auto& [addr, sym] : engine.kernel_->symbols.by_address())
      profile_.add_function(sym.name, sym.address, sym.size);
    if (options_.timeline_interval != 0) {
      timeline_.configure(options_.timeline_interval,
                          FaceChangeEngine::timeline_columns());
      next_snap_ = options_.timeline_interval;
    }
  }

  Cycles period() const { return options_.sample_period; }
  const obs::SampleProfile& profile() const { return profile_; }
  const obs::TimeSeries& timeline() const { return timeline_; }

  void on_sample(Cycles now, GVirt pc, u8 tier, u64 periods) override {
    const u16 view = static_cast<u16>(engine_->active_view_);
    profile_.record(pc, tier, view, periods);
    FC_TRACE_EVENT(kProfSample, tier, view, pc, periods, 0, 0);
    if (next_snap_ != 0 && now >= next_snap_) snapshot(now);
  }

 private:
  void snapshot(Cycles now) {
    const Cycles interval = options_.timeline_interval;
    // One row per crossing, indexed by simulated time. When a time jump
    // skips whole intervals the missing rows are simply absent — the fleet
    // rollup counts contributors per interval, so alignment survives.
    const u64 index = now / interval;
    const cpu::Vcpu& vcpu = engine_->hv_->vcpu();
    const mem::HostMemory& host = engine_->hv_->machine().host();
    const FaceChangeEngine::Stats& es = engine_->stats_;
    const cpu::BlockCache::Stats& bs = vcpu.block_cache().stats();
    const cpu::TraceCache::Stats& ts = vcpu.trace_cache().stats();
    timeline_.append(
        index, now,
        {vcpu.instructions_retired(), engine_->recovery_->stats().recoveries,
         es.view_switches(), es.switches_skipped_same_view, bs.insn_hits,
         bs.block_misses, ts.dispatched, ts.side_exits,
         host.cow_promotions(), host.private_frame_count(),
         options_.queue_depth ? options_.queue_depth() : 0,
         profile_.total_weight(),
         options_.io_events ? options_.io_events() : 0,
         options_.io_ring_depth ? options_.io_ring_depth() : 0});
    next_snap_ = (index + 1) * interval;
  }

  FaceChangeEngine* engine_;
  FaceChangeEngine::TelemetryOptions options_;
  obs::SampleProfile profile_;
  obs::TimeSeries timeline_;
  Cycles next_snap_ = 0;  // 0 = no time series
};

const std::vector<std::string>& FaceChangeEngine::timeline_columns() {
  // Cumulative counters unless noted; "private_frames", "queue_depth" and
  // "io_ring_depth" are instantaneous. Append-only: the rollup matches
  // columns by position.
  static const std::vector<std::string> kColumns = {
      "instructions",    "recoveries",    "view_switches",
      "switches_skipped", "block_insn_hits", "block_misses",
      "trace_dispatched", "trace_side_exits", "cow_promotions",
      "private_frames",  "queue_depth",   "samples",
      "io_events",       "io_ring_depth"};
  return kColumns;
}

void FaceChangeEngine::attach_telemetry(TelemetryOptions options) {
  detach_telemetry();
  if (options.sample_period == 0) return;
  telemetry_ = std::make_unique<EngineTelemetry>(*this, std::move(options));
  hv_->vcpu().set_sample_sink(telemetry_.get(), telemetry_->period());
}

void FaceChangeEngine::detach_telemetry() {
  if (telemetry_ == nullptr) return;
  if (hv_->vcpu().sample_sink() == telemetry_.get())
    hv_->vcpu().set_sample_sink(nullptr, 0);
  telemetry_.reset();
}

const obs::SampleProfile& FaceChangeEngine::profile() const {
  FC_CHECK(telemetry_ != nullptr, << "profile() without attach_telemetry()");
  return telemetry_->profile();
}

const obs::TimeSeries& FaceChangeEngine::timeline() const {
  FC_CHECK(telemetry_ != nullptr, << "timeline() without attach_telemetry()");
  return telemetry_->timeline();
}

FaceChangeEngine::FaceChangeEngine(hv::Hypervisor& hv,
                                   const os::KernelImage& kernel,
                                   EngineOptions options)
    : hv_(&hv),
      kernel_(&kernel),
      options_(options),
      builder_(hv, kernel, options.builder) {
  recovery_ = std::make_unique<RecoveryEngine>(hv, kernel, builder_,
                                               recovery_log_);
  switch_to_addr_ = kernel.symbols.must_addr("__switch_to");
  resume_userspace_addr_ = kernel.symbols.must_addr("resume_userspace");
  switch_cost_hist_ = &obs::metrics().histogram("engine.switch_cost_cycles");
}

FaceChangeEngine::~FaceChangeEngine() {
  detach_telemetry();
  if (enabled_) disable();
}

void FaceChangeEngine::enable() {
  if (enabled_) return;
  // Capture the current (identity) PDE tables covering the base kernel
  // code, so the full view can be restored exactly.
  mem::Ept& ept = hv_->machine().ept();
  GPhys code_begin = GuestLayout::kernel_pa(page_base(kernel_->text_base));
  GPhys code_end = GuestLayout::kernel_pa(
      (kernel_->text_end() + kPageMask) & ~kPageMask);
  full_pdes_.clear();
  for (u32 pde = mem::Ept::pde_index_of(code_begin);
       pde <= mem::Ept::pde_index_of(code_end - 1); ++pde) {
    full_pdes_.push_back({pde, ept.pde(pde)});
  }

  // The full-view PDE capture is an input to every cached descriptor;
  // recapturing invalidates them all.
  switch_cache_.clear();

  hv_->vcpu().add_breakpoint(switch_to_addr_);
  hv_->set_exit_handler(this);
  enabled_ = true;
}

void FaceChangeEngine::disable() {
  if (!enabled_) return;
  apply_view(nullptr);
  active_view_ = kFullKernelViewId;
  // A deferred switch may still be in flight; without this reset a later
  // enable() could apply a view from this session (possibly unloaded by
  // then) at its first resume-userspace trap.
  pending_view_ = kFullKernelViewId;
  hv_->vcpu().remove_breakpoint(switch_to_addr_);
  hv_->vcpu().remove_breakpoint(resume_userspace_addr_);
  resume_trap_armed_ = false;
  hv_->set_exit_handler(nullptr);
  enabled_ = false;
}

void FaceChangeEngine::install_static_audit(StaticAudit audit) {
  audit_ = std::move(audit);
  recovery_->set_audit(&audit_);
}

void FaceChangeEngine::set_predicted_reachable(u32 view_id, RangeList spans) {
  audit_.predicted[view_id] = std::move(spans);
  recovery_->set_audit(&audit_);
}

u32 FaceChangeEngine::load_view(const KernelViewConfig& config) {
  return load_view(builder_.plan(config));
}

u32 FaceChangeEngine::load_view(const ViewLayout& layout) {
  u32 id = next_view_id_++;
  views_[id] = builder_.build(layout, id);
  [[maybe_unused]] const KernelView& built = *views_[id];
  FC_TRACE_EVENT(kViewLoad, 0, id, built.shadow_frames.size() * kPageSize,
                 built.base_pdes.size(), built.module_ptes.size(), 0);
  return id;
}

void FaceChangeEngine::adopt_shared_views(const SharedImage& image) {
  FC_CHECK(enabled_, << "adopt_shared_views before enable()");
  FC_CHECK(views_.empty() && next_view_id_ == 1,
           << "adopt_shared_views on an engine with views");
  const mem::HostMemory& host = hv_->machine().host();
  FC_CHECK(host.frame_count() == image.frames_after_boot,
           << "machine diverged from the shared image before view adoption ("
           << host.frame_count() << " frames, expected "
           << image.frames_after_boot << ")");
  for (const SharedView& sv : image.views) load_view(sv);
  FC_CHECK(host.frame_count() == image.frames_after_views,
           << "shared view rehydration allocated unexpected frames");
  if (!image.audit.empty()) install_static_audit(image.audit);
  for (const SharedImage::PrebuiltSwitch& ps : image.switches)
    switch_cache_.emplace(std::make_pair(ps.from, ps.to), ps.descriptor);
}

void FaceChangeEngine::unload_view(u32 view_id) {
  FC_TRACE_EVENT(kViewUnload, 0, view_id, 0, 0, 0, 0);
  if (active_view_ == view_id) {
    // §III-B4: drop back to the full kernel view without interrupting the
    // running application.
    switch_to_view(kFullKernelViewId);
  }
  if (pending_view_ == view_id) pending_view_ = kFullKernelViewId;
  for (auto it = bindings_.begin(); it != bindings_.end();) {
    if (it->second == view_id)
      it = bindings_.erase(it);
    else
      ++it;
  }
  drop_descriptors_for(view_id);
  views_.erase(view_id);
}

void FaceChangeEngine::drop_descriptors_for(u32 view_id) {
  for (auto it = switch_cache_.begin(); it != switch_cache_.end();) {
    if (it->first.first == view_id || it->first.second == view_id)
      it = switch_cache_.erase(it);
    else
      ++it;
  }
}

void FaceChangeEngine::bind(const std::string& comm, u32 view_id) {
  FC_CHECK(view_id == kFullKernelViewId || views_.count(view_id) != 0,
           << "bind to unknown view " << view_id);
  bindings_[comm] = view_id;
}

void FaceChangeEngine::unbind(const std::string& comm) {
  bindings_.erase(comm);
}

const KernelView* FaceChangeEngine::view(u32 view_id) const {
  auto it = views_.find(view_id);
  return it == views_.end() ? nullptr : it->second.get();
}

u32 FaceChangeEngine::select_view(const hv::TaskInfo& task) const {
  auto it = bindings_.find(task.comm);
  return it == bindings_.end() ? kFullKernelViewId : it->second;
}

void FaceChangeEngine::apply_view(const KernelView* next) {
  mem::Ept& ept = hv_->machine().ept();
  const mem::Ept::Stats before = ept.stats();

  // Step 3B restore FIRST: the previous view's module overrides must be
  // written back through the PDE state they were applied under — once step
  // 3A repoints the base PDEs, an override falling inside a repointed PDE
  // would write its identity frame into the *next* view's table.
  if (const KernelView* prev = view(active_view_)) {
    for (const KernelView::PteOverride& ov : prev->module_ptes)
      ept.set_pte(ept.pde(ov.pde_index), ov.slot,
                  mem::EptEntry{true, ov.identity_frame});
  }

  // Step 3A: repoint the base-kernel-code PDEs.
  if (next != nullptr) {
    for (const KernelView::BasePde& bp : next->base_pdes)
      ept.set_pde(bp.pde_index, bp.table);
  } else {
    for (const KernelView::BasePde& bp : full_pdes_)
      ept.set_pde(bp.pde_index, bp.table);
  }

  // Step 3B apply: the next view's overrides, resolved through the freshly
  // repointed PDEs so they land in the now-active tables.
  if (next != nullptr) {
    for (const KernelView::PteOverride& ov : next->module_ptes)
      ept.set_pte(ept.pde(ov.pde_index), ov.slot,
                  mem::EptEntry{true, ov.view_frame});
  }

  [[maybe_unused]] const mem::Ept::Stats& written = ept.stats();
  FC_TRACE_EVENT(kEptRepoint, 0, 0, written.pde_writes - before.pde_writes,
                 written.pte_writes - before.pte_writes, 0, 0);
  ept.invalidate();
  // Cached decodes and traces are keyed by host frame, so the repoint
  // itself cannot stale them; the notifications drop the straight-line
  // cursor and record the switch in each cache's invalidation stats.
  hv_->vcpu().block_cache().note_view_switch();
  hv_->vcpu().trace_cache().note_view_switch();
  charge_switch(before, hv_->vcpu().perf_model().cost_tlb_flush);
}

void FaceChangeEngine::apply_descriptor(const SwitchDescriptor& descriptor) {
  mem::Machine& machine = hv_->machine();
  mem::Ept& ept = machine.ept();
  const mem::Ept::Stats before = ept.stats();
  const cpu::PerfModel& pm = hv_->vcpu().perf_model();

  for (const SwitchDescriptor::PdeWrite& pw : descriptor.pde_writes)
    ept.set_pde(pw.pde_index, pw.table);
  for (const SwitchDescriptor::PteWrite& tw : descriptor.pte_writes)
    ept.set_pte(tw.table, tw.slot, mem::EptEntry{true, tw.frame});
  {
    [[maybe_unused]] const mem::Ept::Stats& written = ept.stats();
    FC_TRACE_EVENT(kEptRepoint, 1, 0, written.pde_writes - before.pde_writes,
                   written.pte_writes - before.pte_writes, 0, 0);
  }

  Cycles invalidation_cost = 0;
  u32 dropped = 0;
  bool scoped = descriptor.changed_ranges.size() <= kMaxScopedRanges;
  if (scoped) {
    dropped = machine.mmu().invalidate_gpa_ranges(descriptor.changed_ranges);
    ept.note_scoped_invalidation();
    invalidation_cost = pm.cost_tlb_scoped_base +
                        static_cast<Cycles>(dropped) * pm.cost_tlb_scoped_per_entry;
    ++stats_.scoped_invalidations;
    stats_.scoped_tlb_entries_dropped += dropped;
  } else {
    ept.invalidate();
    invalidation_cost = pm.cost_tlb_flush;
    ++stats_.full_flush_fallbacks;
  }

  hv_->vcpu().block_cache().note_view_switch();
  hv_->vcpu().trace_cache().note_view_switch();
  ++stats_.fastpath_switches;
  stats_.fastpath_pde_writes += descriptor.pde_writes.size();
  stats_.fastpath_pte_writes += descriptor.pte_writes.size();
  stats_.naive_pde_writes_avoided +=
      descriptor.naive_pde_writes - descriptor.pde_writes.size();
  stats_.naive_pte_writes_avoided +=
      descriptor.naive_pte_writes - descriptor.pte_writes.size();
  charge_switch(before, invalidation_cost);
  FC_TRACE << "view switch delta: " << descriptor.pde_writes.size()
           << " pde + " << descriptor.pte_writes.size() << " pte writes, "
           << descriptor.changed_ranges.size() << " ranges, "
           << (scoped ? "scoped" : "full") << " invalidation dropping "
           << dropped << " TLB entries";
}

void FaceChangeEngine::charge_switch(const mem::Ept::Stats& before,
                                     Cycles invalidation_cost) {
  const mem::Ept::Stats after = hv_->machine().ept().stats();
  const cpu::PerfModel& pm = hv_->vcpu().perf_model();
  Cycles cost = (after.pde_writes - before.pde_writes) * pm.cost_ept_pde_write +
                (after.pte_writes - before.pte_writes) * pm.cost_ept_pte_write +
                invalidation_cost;
  hv_->vcpu().charge(cost);
  stats_.switch_cycles_charged += cost;
  FC_OBS_OBSERVE(switch_cost_hist_, cost);
}

const SwitchDescriptor& FaceChangeEngine::switch_descriptor(u32 from_id,
                                                            u32 to_id) {
  auto it = switch_cache_.find({from_id, to_id});
  if (it != switch_cache_.end()) {
    ++stats_.descriptor_cache_hits;
    return it->second;
  }
  ++stats_.descriptor_cache_misses;
  return switch_cache_
      .emplace(std::make_pair(from_id, to_id),
               build_switch_descriptor(hv_->machine().ept(), full_pdes_,
                                       view(from_id), view(to_id)))
      .first->second;
}

void FaceChangeEngine::switch_to_view(u32 view_id) {
  if (options_.same_view_optimization && view_id == active_view_) {
    ++stats_.switches_skipped_same_view;
    FC_TRACE_EVENT(kSwitchSkipped, 0, view_id, 0, 0, 0, 0);
    return;
  }
#if !defined(FC_OBS_DISABLED)
  const u32 from = active_view_;
  const mem::Ept::Stats ept_before = hv_->machine().ept().stats();
  const Cycles charged_before = stats_.switch_cycles_charged;
  const u64 scoped_before = stats_.scoped_invalidations;
#endif
  if (options_.delta_switch_fastpath) {
    apply_descriptor(switch_descriptor(active_view_, view_id));
  } else {
    apply_view(view(view_id));  // nullptr for the full view
    ++stats_.slowpath_switches;
  }
  active_view_ = view_id;
#if !defined(FC_OBS_DISABLED)
  const mem::Ept::Stats& ept_after = hv_->machine().ept().stats();
  u8 flags = options_.delta_switch_fastpath ? 0x1 : 0;
  flags |= stats_.scoped_invalidations > scoped_before ? 0x2 : 0x4;
  FC_TRACE_EVENT(kViewSwitch, flags, view_id, from,
                 ept_after.pde_writes - ept_before.pde_writes,
                 ept_after.pte_writes - ept_before.pte_writes,
                 stats_.switch_cycles_charged - charged_before);
#endif
}

void FaceChangeEngine::force_activate(u32 view_id) { switch_to_view(view_id); }

void FaceChangeEngine::handle_breakpoint(GVirt pc) {
  cpu::Vcpu& vcpu = hv_->vcpu();
  vcpu.charge(vcpu.perf_model().cost_trap_handler);
  if (pc == switch_to_addr_) {
    ++stats_.context_switch_traps;
    // READ_PROC_INFO: the incoming task pointer is __switch_to's argument.
    GVirt next_task_ptr = vcpu.regs()[isa::Reg::B];
    hv::TaskInfo info = hv_->vmi().task_at(next_task_ptr);
    u32 index = select_view(info);
    FC_TRACE_EVENT(kContextSwitchTrap, 0, index, info.pid, active_view_, 0, 0);

    // Cross-view protection: the incoming task's saved kernel continuation
    // executes under `effective` (the deferred case keeps the current view
    // active until resume-userspace; the immediate case applies the new
    // one). If that view is custom, proactively instant-recover any stack
    // frame whose return target reads the untrappable 0B 0F pair — the
    // generalization of the paper's Figure-3 fix (see recovery.hpp).
    u32 effective = options_.switch_at_resume && index != kFullKernelViewId
                        ? active_view_
                        : index;
    auto effective_it = views_.find(effective);
    if (options_.cross_view_scan && effective_it != views_.end()) {
      // The saved continuation is mirrored into the guest task struct by
      // switch_to; 0 means the task has never run yet (fresh fork).
      u32 saved_fp =
          hv_->vmi().read_u32(next_task_ptr + abi::Task::kSavedFp);
      if (saved_fp != 0)
        recovery_->scan_stack_for_instant(*effective_it->second, saved_fp);
    }

    if (index == kFullKernelViewId || !options_.switch_at_resume) {
      // Full view switches immediately (Algorithm 1 lines 34–36); the
      // ablation switches everything immediately.
      if (resume_trap_armed_) {
        vcpu.remove_breakpoint(resume_userspace_addr_);
        resume_trap_armed_ = false;
      }
      bool applies = index != active_view_;
      switch_to_view(index);
      // The immediate-switch hazard the paper observed: remapping kernel
      // code in the middle of the context switch path can miss interrupt
      // edges. (Only custom views remap; full→full switches are skips.)
      if (!options_.switch_at_resume && applies && index != kFullKernelViewId &&
          vcpu.irq_pending()) {
        vcpu.defer_pending_irqs(vcpu.cycles() +
                                vcpu.perf_model().missed_irq_delay);
      }
      return;
    } else {
      // Defer to resume-userspace to avoid missing interrupts.
      if (!resume_trap_armed_) {
        vcpu.add_breakpoint(resume_userspace_addr_);
        resume_trap_armed_ = true;
      }
      pending_view_ = index;
    }
    return;
  }
  if (pc == resume_userspace_addr_) {
    ++stats_.resume_traps;
    FC_TRACE_EVENT(kResumeTrap, 0, pending_view_, 0, 0, 0, 0);
    vcpu.remove_breakpoint(resume_userspace_addr_);
    resume_trap_armed_ = false;
    switch_to_view(pending_view_);
    return;
  }
}

std::string FaceChangeEngine::render_run_report() const {
  const mem::Mmu::Stats& mmu = hv_->machine().mmu().stats();
  const cpu::BlockCache& bc = hv_->vcpu().block_cache();
  const cpu::BlockCache::Stats& cache = bc.stats();
  std::ostringstream out;
  out << "view switching: " << stats_.context_switch_traps
      << " context-switch traps, " << stats_.view_switches() << " switches, "
      << stats_.switches_skipped_same_view << " skipped (same view), "
      << stats_.fastpath_switches << " via delta fast path\n";
  out << "tlb: " << mmu.tlb_hits << " hits, " << mmu.tlb_misses
      << " misses, " << mmu.flushes << " full flushes, "
      << mmu.scoped_flushes << " scoped ("
      << mmu.scoped_entries_dropped << " entries dropped)\n";
  out << "block cache: "
      << (hv_->vcpu().block_cache_enabled() ? "enabled" : "disabled") << ", "
      << cache.insn_hits << " insn hits, " << cache.block_misses
      << " block misses (" << cache.blocks_built << " built, "
      << cache.insns_decoded << " insns decoded, " << cache.uncacheable
      << " uncacheable), " << bc.size() << " blocks resident\n";
  // Host dispatch shape: how the block tier retired its instructions, not
  // what the guest did, so it stays out of metrics_json and the timeline.
  const u64 mean_tenths =
      cache.batches != 0 ? cache.batch_insns * 10 / cache.batches : 0;
  out << "block batches: " << cache.batch_insns << " insns in "
      << cache.batches << " batches (mean " << mean_tenths / 10 << "."
      << mean_tenths % 10 << ")\n";
  out << "block cache invalidations: " << cache.inval_guest_write
      << " guest write, " << cache.inval_code_load << " code load, "
      << cache.inval_recycle << " page recycle, " << cache.inval_view_switch
      << " view switch, " << cache.inval_capacity << " capacity\n";
  // Host-side only (it depends on what else decoded through the memo), so
  // it stays out of metrics_json and the timeline.
  const cpu::DecodeMemo::Stats memo = bc.memo().stats();
  out << "decode memo: " << memo.lookups << " lookups, " << memo.hits
      << " hits, " << memo.resident_runs << " runs / "
      << memo.resident_insns << " insns resident, " << memo.copied_bytes
      << " bytes copied\n";
  const cpu::TraceCache& tc = hv_->vcpu().trace_cache();
  const cpu::TraceCache::Stats& ts = tc.stats();
  out << "trace tier: "
      << (hv_->vcpu().trace_cache_enabled() ? "enabled" : "disabled") << ", "
      << ts.built << " built, " << ts.dispatched << " dispatched ("
      << ts.completions << " completions, " << ts.side_exits
      << " side exits), " << ts.trace_insns << " insns retired in traces, "
      << ts.retired << " retired stale, " << tc.size() << " resident";
  if (!audit_.empty()) {
    const RecoveryEngine::Stats& rs = recovery_->stats();
    out << "\nstatic audit: " << audit_.hazard_returns.size()
        << " hazard sites known, " << rs.instant_in_hazard_set
        << " instant recoveries in set, " << rs.instant_off_hazard_set
        << " off set (static false negatives)";
    if (!audit_.predicted.empty()) {
      out << "\nclosure: " << rs.recoveries_predicted
          << " recoveries predicted reachable, " << rs.recoveries_profile_gap
          << " profile gaps, " << rs.recoveries_unpredicted << " unpredicted";
    }
  }
  if (obs::trace_enabled()) out << "\nmetrics: " << metrics_json();
  return out.str();
}

void FaceChangeEngine::export_metrics(obs::Metrics& out) const {
  out.set("engine.context_switch_traps", stats_.context_switch_traps);
  out.set("engine.resume_traps", stats_.resume_traps);
  out.set("engine.view_switches", stats_.view_switches());
  out.set("engine.switches_skipped_same_view",
          stats_.switches_skipped_same_view);
  out.set("engine.switch_cycles_charged", stats_.switch_cycles_charged);
  out.set("engine.fastpath_switches", stats_.fastpath_switches);
  out.set("engine.slowpath_switches", stats_.slowpath_switches);
  out.set("engine.descriptor_cache_hits", stats_.descriptor_cache_hits);
  out.set("engine.descriptor_cache_misses", stats_.descriptor_cache_misses);
  out.set("engine.fastpath_pde_writes", stats_.fastpath_pde_writes);
  out.set("engine.fastpath_pte_writes", stats_.fastpath_pte_writes);
  out.set("engine.naive_pde_writes_avoided", stats_.naive_pde_writes_avoided);
  out.set("engine.naive_pte_writes_avoided", stats_.naive_pte_writes_avoided);
  out.set("engine.scoped_invalidations", stats_.scoped_invalidations);
  out.set("engine.scoped_tlb_entries_dropped",
          stats_.scoped_tlb_entries_dropped);
  out.set("engine.full_flush_fallbacks", stats_.full_flush_fallbacks);
  out.set("engine.views_loaded", views_.size());

  const RecoveryEngine::Stats& rs = recovery_->stats();
  out.set("recovery.recoveries", rs.recoveries);
  out.set("recovery.instant_recoveries", rs.instant_recoveries);
  out.set("recovery.lazy_pending", rs.lazy_pending);
  out.set("recovery.cross_view_scans", rs.cross_view_scans);
  out.set("recovery.instant_in_hazard_set", rs.instant_in_hazard_set);
  out.set("recovery.instant_off_hazard_set", rs.instant_off_hazard_set);
  out.set("recovery.predicted", rs.recoveries_predicted);
  out.set("recovery.profile_gap", rs.recoveries_profile_gap);
  out.set("recovery.unpredicted", rs.recoveries_unpredicted);

  const mem::Mmu::Stats& mmu = hv_->machine().mmu().stats();
  out.set("mmu.tlb_hits", mmu.tlb_hits);
  out.set("mmu.tlb_misses", mmu.tlb_misses);
  out.set("mmu.tlb_full_flushes", mmu.flushes);
  out.set("mmu.tlb_scoped_flushes", mmu.scoped_flushes);
  out.set("mmu.tlb_scoped_entries_dropped", mmu.scoped_entries_dropped);

  const mem::Ept::Stats& ept = hv_->machine().ept().stats();
  out.set("ept.pde_writes", ept.pde_writes);
  out.set("ept.pte_writes", ept.pte_writes);
  out.set("ept.invalidations", ept.invalidations);
  out.set("ept.scoped_invalidations", ept.scoped_invalidations);

  const cpu::BlockCache& bc = hv_->vcpu().block_cache();
  const cpu::BlockCache::Stats& cache = bc.stats();
  out.set("block_cache.insn_hits", cache.insn_hits);
  out.set("block_cache.block_misses", cache.block_misses);
  out.set("block_cache.blocks_built", cache.blocks_built);
  out.set("block_cache.insns_decoded", cache.insns_decoded);
  out.set("block_cache.uncacheable", cache.uncacheable);
  out.set("block_cache.inval_guest_write", cache.inval_guest_write);
  out.set("block_cache.inval_code_load", cache.inval_code_load);
  out.set("block_cache.inval_recycle", cache.inval_recycle);
  out.set("block_cache.inval_view_switch", cache.inval_view_switch);
  out.set("block_cache.inval_capacity", cache.inval_capacity);
  out.gauge_set("block_cache.blocks_resident", bc.size());

  const cpu::TraceCache& tc = hv_->vcpu().trace_cache();
  const cpu::TraceCache::Stats& ts = tc.stats();
  out.set("trace_cache.built", ts.built);
  out.set("trace_cache.build_failures", ts.build_failures);
  out.set("trace_cache.dispatched", ts.dispatched);
  out.set("trace_cache.completions", ts.completions);
  out.set("trace_cache.side_exits", ts.side_exits);
  out.set("trace_cache.retired", ts.retired);
  out.set("trace_cache.trace_insns", ts.trace_insns);
  out.set("trace_cache.fused_built", ts.fused_built);
  out.set("trace_cache.fused_exec", ts.fused_exec);
  out.set("trace_cache.inval_guest_write", ts.inval_guest_write);
  out.set("trace_cache.inval_code_load", ts.inval_code_load);
  out.set("trace_cache.inval_recycle", ts.inval_recycle);
  out.set("trace_cache.inval_view_switch", ts.inval_view_switch);
  out.set("trace_cache.inval_capacity", ts.inval_capacity);
  out.gauge_set("trace_cache.traces_resident", tc.size());

  const hv::Hypervisor::Stats& hvs = hv_->stats();
  out.set("hv.invalid_opcode_exits", hvs.invalid_opcode_exits);
  out.set("hv.breakpoint_exits", hvs.breakpoint_exits);
  out.set("hv.halt_exits", hvs.halt_exits);

  out.set("vcpu.instructions_retired", hv_->vcpu().instructions_retired());
  out.set("vcpu.cycles", hv_->vcpu().cycles());
}

std::string FaceChangeEngine::metrics_json() const {
  obs::Metrics snapshot;
  export_metrics(snapshot);
  snapshot.merge(obs::metrics());
  return snapshot.to_json();
}

bool FaceChangeEngine::handle_invalid_opcode(GVirt pc) {
  KernelView* active = nullptr;
  auto it = views_.find(active_view_);
  if (it != views_.end()) active = it->second.get();
  if (active == nullptr) {
    // Full view: a genuine guest fault.
    FC_TRACE_EVENT(kUd2Trap, 1, active_view_, pc, 0, 0, 0);
    return false;
  }
  bool handled = recovery_->handle(*active, pc);
  FC_TRACE_EVENT(kUd2Trap, handled ? 0 : 1, active_view_, pc, 0, 0, 0);
  return handled;
}

}  // namespace fc::core
