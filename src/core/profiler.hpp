// The profiling phase (§III-A): a QEMU-style basic-block tracer.
//
// Attached to the vCPU's trace hook, it records every kernel-space basic
// block executed in a *target application's* context into that app's range
// list, and every block executed in interrupt context into a shared
// interrupt profile that is merged into every exported view (§III-A3).
// Context switches are observed exactly the way the paper does it — by
// watching the guest's context-switch code run and then reading the new
// `current` task via VMI.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "core/viewconfig.hpp"
#include "hv/hypervisor.hpp"
#include "os/kernel_image.hpp"

namespace fc::core {

class Profiler : public cpu::TraceSink {
 public:
  Profiler(hv::Hypervisor& hv, const os::KernelImage& kernel);
  ~Profiler() override;

  /// Profile every process whose comm equals `comm`.
  void add_target(const std::string& comm);

  /// Attach/detach the tracer (attaching is what "running under the
  /// profiling QEMU" means; detached guests run untraced).
  void attach();
  void detach();

  /// Export the kernel view for a target: its own profile + the shared
  /// interrupt profile + the entry/interrupt stub code that must be in
  /// every view.
  KernelViewConfig export_config(const std::string& comm) const;
  /// The raw interrupt-context profile (tests).
  KernelViewConfig interrupt_profile() const;

  u64 blocks_recorded() const { return blocks_recorded_; }

  // --- TraceSink ---
  void on_block(GVirt start, GVirt end) override;

 private:
  struct Store {
    RangeList base;
    std::map<std::string, RangeList> module_rel;
    std::unordered_set<u64> seen_blocks;
  };

  void record(Store& store, GVirt start, GVirt end);
  void refresh_current();

  hv::Hypervisor* hv_;
  const os::KernelImage* kernel_;
  GVirt switch_to_addr_ = 0;

  std::set<std::string> targets_;
  std::map<std::string, Store> per_app_;
  Store interrupt_;

  std::string cached_comm_;
  bool attached_ = false;
  u64 blocks_recorded_ = 0;
};

}  // namespace fc::core
