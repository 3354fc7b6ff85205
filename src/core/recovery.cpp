#include "core/recovery.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/hexdump.hpp"

namespace fc::core {

using mem::GuestLayout;

std::string RecoveryEvent::headline() const {
  std::ostringstream out;
  out << "Recover " << hex32(rip) << " <" << symbol << "> for kernel["
      << process_comm << "]";
  if (interrupt_context) out << " (interrupt context)";
  return out.str();
}

std::string RecoveryEvent::render() const {
  std::ostringstream out;
  out << headline() << "\n";
  for (const BacktraceFrame& frame : backtrace) {
    out << "|-- Backtrace: " << hex32(frame.rip) << " <" << frame.symbol
        << ">";
    out << "   bytes: " << byte_dump({frame.target_bytes, 2});
    if (frame.instant_recovered) {
      out << "  '0xb 0xf' cannot trap => Instant recovery";
    } else if (frame.target_bytes[0] == 0x0F && frame.target_bytes[1] == 0x0B) {
      out << "  '0xf 0xb' can trap => Lazy recovery";
    }
    out << "\n";
  }
  return out.str();
}

bool RecoveryLog::recovered_function(const std::string& prefix) const {
  for (const RecoveryEvent& ev : events_) {
    if (ev.symbol.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::vector<const RecoveryEvent*> RecoveryLog::for_process(
    const std::string& comm) const {
  std::vector<const RecoveryEvent*> out;
  for (const RecoveryEvent& ev : events_)
    if (ev.process_comm == comm) out.push_back(&ev);
  return out;
}

std::size_t RecoveryLog::benign_interrupt_count() const {
  std::size_t n = 0;
  for (const RecoveryEvent& ev : events_)
    if (ev.interrupt_context) ++n;
  return n;
}

bool RecoveryEngine::region_for(const KernelView& view, GVirt pc,
                                Region* out) const {
  if (!view.manages_page(GuestLayout::kernel_pa(pc))) return false;
  if (pc >= kernel_->text_base && pc < kernel_->text_end()) {
    *out = {kernel_->text_base, kernel_->text_end()};
    return true;
  }
  if (auto mod = hv_->vmi().module_covering(pc)) {
    *out = {mod->base, mod->base + mod->size};
    return true;
  }
  // Managed page but no identified region (e.g. a module that hid itself
  // after the view was built): bound the search by the module arena.
  *out = {GuestLayout::kernel_va(GuestLayout::kKernelHeapPhys),
          GuestLayout::kernel_va(GuestLayout::kKernelHeapPhys + 0x1000000)};
  return true;
}

void RecoveryEngine::load_range(KernelView& view, GVirt start, GVirt end) {
  mem::Machine& machine = hv_->machine();
  // These writes restore pristine function bytes over UD2 filler the vCPU
  // may have cached decodes of. Attribute the resulting block-cache
  // invalidations as code loads.
  mem::HostMemory::WriteCauseScope cause(machine.host(),
                                         mem::FrameWriteCause::kCodeLoad);
  for (GVirt at = start; at < end; ++at) {
    GPhys pa = GuestLayout::kernel_pa(at);
    auto it = view.shadow_frames.find(pa >> kPageShift);
    if (it == view.shadow_frames.end()) continue;  // not view-managed
    machine.host().write8(it->second, page_offset(pa),
                          hv_->pristine_read8(at));
  }
  view.loaded.insert(start, end);
}

void RecoveryEngine::recover_function(KernelView& view, GVirt addr,
                                      const Region& region, GVirt* start,
                                      GVirt* end) {
  if (builder_->options().whole_function_loading) {
    ViewBuilder::Bounds b =
        builder_->function_bounds(addr, region.begin, region.end);
    load_range(view, b.start, b.end);
    *start = b.start;
    *end = b.end;
  } else {
    // Block-granularity ablation: recover a small fixed window.
    GVirt lo = std::max(region.begin, addr & ~15u);
    GVirt hi = std::min(region.end, lo + 64);
    load_range(view, lo, hi);
    *start = lo;
    *end = hi;
  }
}

void RecoveryEngine::note_instant(GVirt ret, [[maybe_unused]] bool from_scan) {
  ++stats_.instant_recoveries;
  instant_returns_.push_back(ret);
  bool in_set = audit_ != nullptr && audit_->hazard_returns.count(ret) != 0;
  FC_TRACE_EVENT(kInstantRecovery,
                 (in_set ? 0x1 : 0) | (audit_ != nullptr ? 0x2 : 0) |
                     (from_scan ? 0x4 : 0),
                 0, ret, 0, 0, 0);
  if (audit_ == nullptr) return;
  if (in_set)
    ++stats_.instant_in_hazard_set;
  else
    ++stats_.instant_off_hazard_set;
}

void RecoveryEngine::scan_stack_for_instant(KernelView& view, u32 saved_fp) {
  ++stats_.cross_view_scans;
  hv::Vmi& vmi = hv_->vmi();
  mem::Machine& machine = hv_->machine();
  u32 fp = saved_fp;
  for (int depth = 0; depth < 32; ++depth) {
    if (fp == 0 || !is_kernel_address(fp)) break;
    u32 prev_rip = vmi.read_u32(fp + 4);
    u32 prev_fp = vmi.read_u32(fp);
    if (!is_kernel_address(prev_rip)) break;
    u8 b0 = machine.pread8(GuestLayout::kernel_pa(prev_rip));
    u8 b1 = machine.pread8(GuestLayout::kernel_pa(prev_rip + 1));
    if (b0 == 0x0B && b1 == 0x0F) {
      Region region;
      if (region_for(view, prev_rip, &region)) {
        GVirt start = 0, end = 0;
        recover_function(view, prev_rip, region, &start, &end);
        note_instant(prev_rip, /*from_scan=*/true);
      }
    }
    fp = prev_fp;
  }
}

bool RecoveryEngine::handle(KernelView& view, GVirt pc) {
  Region region;
  if (!region_for(view, pc, &region)) return false;

  hv::Vmi& vmi = hv_->vmi();
  cpu::Vcpu& vcpu = hv_->vcpu();
  mem::Machine& machine = hv_->machine();

  RecoveryEvent ev;
  ev.when = vcpu.cycles();
  ev.view_id = view.id;
  hv::TaskInfo task = vmi.current_task();
  ev.pid = task.pid;
  ev.process_comm = task.comm;
  ev.interrupt_context = vmi.in_interrupt_context();
  ev.rip = pc;
  ev.symbol = vmi.symbolize(pc);

  // BACK_TRACE (Algorithm 1): walk the frame-pointer chain, dumping each
  // return address; instantly recover callers whose return target currently
  // decodes as the shifted pair 0B 0F.
  u32 fp = vcpu.regs()[isa::Reg::FP];
  for (int depth = 0; depth < 32; ++depth) {
    if (fp == 0 || !is_kernel_address(fp)) break;
    u32 prev_rip = vmi.read_u32(fp + 4);
    u32 prev_fp = vmi.read_u32(fp);
    if (!is_kernel_address(prev_rip)) break;

    BacktraceFrame frame;
    frame.rip = prev_rip;
    frame.symbol = vmi.symbolize(prev_rip);
    // Read the return-target bytes through the *current* (view) mapping.
    frame.target_bytes[0] =
        machine.pread8(GuestLayout::kernel_pa(prev_rip));
    frame.target_bytes[1] =
        machine.pread8(GuestLayout::kernel_pa(prev_rip + 1));
    if (frame.target_bytes[0] == 0x0B && frame.target_bytes[1] == 0x0F) {
      // The fragmented-UD2 case: this caller would NOT trap on return.
      Region caller_region;
      if (region_for(view, prev_rip, &caller_region)) {
        GVirt s = 0, e = 0;
        recover_function(view, prev_rip, caller_region, &s, &e);
        frame.instant_recovered = true;
        note_instant(prev_rip, /*from_scan=*/false);
      }
    } else if (frame.target_bytes[0] == 0x0F &&
               frame.target_bytes[1] == 0x0B) {
      ++stats_.lazy_pending;
      FC_TRACE_EVENT(kLazyPending, 0, view.id, prev_rip, 0, 0, 0);
    }
    ev.backtrace.push_back(std::move(frame));
    fp = prev_fp;
  }

  // HANDLE_INVALID_OPCODE: recover the faulting function itself.
  recover_function(view, pc, region, &ev.recovered_start, &ev.recovered_end);
  ++stats_.recoveries;
  bool audit_present = audit_ != nullptr;
  bool predicted_reachable = false;
  bool profile_gap = false;
  if (audit_ != nullptr) {
    auto predicted = audit_->predicted.find(view.id);
    if (predicted != audit_->predicted.end()) {
      if (predicted->second.contains(pc)) {
        ++stats_.recoveries_predicted;
        predicted_reachable = true;
      } else if (!audit_->entry_reachable.empty() &&
                 audit_->entry_reachable.contains(pc)) {
        // Outside the view's closure but reachable from some clean-boot
        // kernel entry point: the training profile has a gap, not the view
        // boundary a hazard. Kept distinct from unpredicted so the probe
        // gate can demand *zero* truly unexplained traps.
        ++stats_.recoveries_profile_gap;
        profile_gap = true;
      } else {
        ++stats_.recoveries_unpredicted;
      }
    }
  }
  vcpu.charge(vcpu.perf_model().cost_recovery_base);
#if !defined(FC_OBS_DISABLED)
  if (obs::trace_enabled()) {
    obs::metrics().observe("recovery.recovered_bytes",
                           ev.recovered_end - ev.recovered_start);
  }
  FC_TRACE_EVENT(kRecovery,
                 (ev.interrupt_context ? 0x1 : 0) |
                     (predicted_reachable ? 0x2 : 0) |
                     (audit_present ? 0x4 : 0) | (profile_gap ? 0x8 : 0),
                 view.id, pc, ev.recovered_start,
                 ev.recovered_end - ev.recovered_start,
                 vcpu.perf_model().cost_recovery_base);
#else
  (void)audit_present;
  (void)predicted_reachable;
  (void)profile_gap;
#endif
  log_->add(std::move(ev));
  return true;
}

}  // namespace fc::core
