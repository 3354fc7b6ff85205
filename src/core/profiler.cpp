#include "core/profiler.hpp"

#include "hv/guest_abi.hpp"

namespace fc::core {

Profiler::Profiler(hv::Hypervisor& hv, const os::KernelImage& kernel)
    : hv_(&hv), kernel_(&kernel) {
  switch_to_addr_ = kernel.symbols.must_addr("__switch_to");
}

Profiler::~Profiler() {
  if (attached_) detach();
}

void Profiler::add_target(const std::string& comm) {
  targets_.insert(comm);
  per_app_.emplace(comm, Store{});
}

void Profiler::attach() {
  hv_->vcpu().set_trace_sink(this);
  attached_ = true;
  refresh_current();
}

void Profiler::detach() {
  hv_->vcpu().set_trace_sink(nullptr);
  attached_ = false;
}

void Profiler::refresh_current() {
  cached_comm_ = hv_->vmi().current_task().comm;
}

void Profiler::record(Store& store, GVirt start, GVirt end) {
  u64 key = (static_cast<u64>(start) << 32) | end;
  if (!store.seen_blocks.insert(key).second) return;
  ++blocks_recorded_;

  if (start >= kernel_->text_base && start < kernel_->text_end()) {
    store.base.insert(start, std::min<GVirt>(end, kernel_->text_end()));
    return;
  }
  // Module code: record relative to the module base (§II-A), resolving the
  // covering module through the guest's own module list.
  if (auto mod = hv_->vmi().module_covering(start)) {
    u32 rel_start = start - mod->base;
    u32 rel_end = std::min(end - mod->base, mod->size);
    if (rel_start < rel_end)
      store.module_rel[mod->name].insert(rel_start, rel_end);
  }
  // Otherwise: kernel-space block outside any identified region (should not
  // happen in a benign profiling environment) — ignored.
}

void Profiler::on_block(GVirt start, GVirt end) {
  // Watch the context-switch code run; afterwards `current` is the incoming
  // task.
  if (start <= switch_to_addr_ && switch_to_addr_ < end) {
    refresh_current();
  }
  if (!is_kernel_address(start)) return;

  if (hv_->vmi().in_interrupt_context()) {
    record(interrupt_, start, end);
    return;
  }
  if (targets_.count(cached_comm_) != 0) {
    record(per_app_[cached_comm_], start, end);
  }
}

KernelViewConfig Profiler::export_config(const std::string& comm) const {
  auto it = per_app_.find(comm);
  KernelViewConfig cfg;
  cfg.app_name = comm;
  if (it != per_app_.end()) {
    cfg.base = it->second.base;
    for (const auto& [name, ranges] : it->second.module_rel)
      cfg.modules[name].insert(ranges);
  }
  // Interrupt-context code goes into every view (§III-A3).
  cfg.base.insert(interrupt_.base);
  for (const auto& [name, ranges] : interrupt_.module_rel)
    cfg.modules[name].insert(ranges);
  // Entry stubs (syscall/irq entry, resume, switch) are not attributable to
  // one process but must always be present; include them explicitly.
  for (const os::FuncMeta& fn : kernel_->functions) {
    if (fn.subsystem == "entry" || fn.name == "schedule" ||
        fn.name == "__switch_to" || fn.name == "pick_next_task" ||
        fn.name == "update_curr") {
      cfg.base.insert(fn.address, fn.address + fn.size);
    }
  }
  return cfg;
}

KernelViewConfig Profiler::interrupt_profile() const {
  KernelViewConfig cfg;
  cfg.app_name = "<interrupt>";
  cfg.base = interrupt_.base;
  for (const auto& [name, ranges] : interrupt_.module_rel)
    cfg.modules[name].insert(ranges);
  return cfg;
}

}  // namespace fc::core
