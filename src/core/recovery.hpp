// Kernel code recovery (§III-B3): the invalid-opcode trap handler.
//
// On a UD2 trap inside a view-managed region it (1) walks the frame-pointer
// chain to record the attack/exception provenance, (2) *instantly* recovers
// any caller whose return target currently reads `0B 0F` — the shifted UD2
// pair that would be misinterpreted instead of trapping (Figure 3) — and
// (3) recovers the faulting function by prologue-signature search and
// pristine-code copy, then resumes the guest at the same PC.
#pragma once

#include <string>
#include <vector>

#include "core/static_audit.hpp"
#include "core/view.hpp"
#include "core/viewbuilder.hpp"
#include "hv/hypervisor.hpp"

namespace fc::core {

struct BacktraceFrame {
  GVirt rip = 0;
  std::string symbol;      // "do_sys_poll+0x136" or "UNKNOWN"
  bool instant_recovered = false;  // return target read 0B 0F
  u8 target_bytes[2] = {0, 0};     // bytes at the return target at trap time
};

struct RecoveryEvent {
  Cycles when = 0;
  u32 view_id = 0;
  u32 pid = 0;
  std::string process_comm;
  bool interrupt_context = false;  // benign-recovery classification hint
  GVirt rip = 0;
  std::string symbol;              // function recovered at the fault
  GVirt recovered_start = 0, recovered_end = 0;
  std::vector<BacktraceFrame> backtrace;

  /// Paper-style one-liner: "Recover 0xc0211370 <pipe_poll+0x0> for
  /// kernel[top]".
  std::string headline() const;
  /// Multi-line rendering in the style of Figures 3–5.
  std::string render() const;
};

class RecoveryLog {
 public:
  void add(RecoveryEvent event) { events_.push_back(std::move(event)); }
  const std::vector<RecoveryEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Did any event recover a function whose symbol starts with `prefix`?
  bool recovered_function(const std::string& prefix) const;
  /// Events in a given process context.
  std::vector<const RecoveryEvent*> for_process(const std::string& comm) const;
  std::size_t benign_interrupt_count() const;
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<RecoveryEvent> events_;
};

class RecoveryEngine {
 public:
  RecoveryEngine(hv::Hypervisor& hv, const os::KernelImage& kernel,
                 const ViewBuilder& builder, RecoveryLog& log)
      : hv_(&hv), kernel_(&kernel), builder_(&builder), log_(&log) {}

  /// Handle an invalid-opcode trap at `pc` under `view`. Returns false if
  /// the fault is outside any region this view manages (a genuine guest
  /// fault).
  bool handle(KernelView& view, GVirt pc);

  /// Proactive cross-view protection, invoked by the engine at a context
  /// switch whose incoming task will execute its saved kernel continuation
  /// under `view`: walk the task's saved frame-pointer chain and instantly
  /// recover every caller whose return target currently reads the shifted
  /// pair 0B 0F. This generalizes the paper's Figure-3 instant recovery
  /// (which runs only inside a UD2 trap's backtrace) to the case where the
  /// continuation's own code is present and no trap would ever fire — a
  /// present function returning to an odd address inside a missing caller
  /// executes garbage instead of trapping.
  void scan_stack_for_instant(KernelView& view, u32 saved_fp);

  /// Cross-check runtime decisions against the static analyzer's audit
  /// (see static_audit.hpp). Pass nullptr to detach. The pointee must
  /// outlive this engine.
  void set_audit(const StaticAudit* audit) { audit_ = audit; }

  struct Stats {
    u64 recoveries = 0;
    u64 instant_recoveries = 0;
    u64 lazy_pending = 0;  // callers left as 0F 0B (will trap on return)
    u64 cross_view_scans = 0;
    // Audit classification (all zero when no audit is installed).
    u64 instant_in_hazard_set = 0;   // instant recovery at a predicted site
    u64 instant_off_hazard_set = 0;  // static false negative — must stay 0
    u64 recoveries_predicted = 0;    // trap PC inside the view's closure
    u64 recoveries_profile_gap = 0;  // outside closure, entry-reachable
    u64 recoveries_unpredicted = 0;  // true cross-view hazard candidates
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = Stats{};
    instant_returns_.clear();
  }

  /// Every return target instant-recovered so far (trap backtraces and
  /// cross-view stack scans), in occurrence order. The differential test
  /// checks each against the static hazard set.
  const std::vector<GVirt>& instant_return_targets() const {
    return instant_returns_;
  }

 private:
  struct Region {
    GVirt begin = 0, end = 0;
  };
  bool region_for(const KernelView& view, GVirt pc, Region* out) const;
  /// Copy pristine bytes for [start,end) into the view's shadow frames
  /// (write barrier attributed as a code load) and mark them loaded.
  void load_range(KernelView& view, GVirt start, GVirt end);
  void recover_function(KernelView& view, GVirt addr, const Region& region,
                        GVirt* start, GVirt* end);
  void note_instant(GVirt ret, bool from_scan);

  hv::Hypervisor* hv_;
  const os::KernelImage* kernel_;
  const ViewBuilder* builder_;
  RecoveryLog* log_;
  const StaticAudit* audit_ = nullptr;
  std::vector<GVirt> instant_returns_;
  Stats stats_;
};

}  // namespace fc::core
