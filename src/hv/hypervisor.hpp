// The hypervisor: owns the machine and the vCPU, dispatches VM exits to a
// registered handler (the FACE-CHANGE engine), and provides "pristine" reads
// of the original kernel code pages — the source for code recovery.
//
// When no handler is installed (baseline runs), the guest executes with zero
// VM exits besides exhaustion of run-loop slices, so baseline performance is
// clean.
#pragma once

#include <functional>
#include <optional>

#include "hv/vmi.hpp"
#include "mem/machine.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::hv {

/// FACE-CHANGE (or any tool) implements this to intercept VM exits.
class ExitHandler {
 public:
  virtual ~ExitHandler() = default;
  /// Invalid-opcode exit at `pc` (UD2 or bad bytes). Return true to resume
  /// execution at the (possibly recovered) pc; false means an unhandled
  /// guest fault.
  virtual bool handle_invalid_opcode(GVirt pc) = 0;
  /// Exec-breakpoint exit at `pc` (before the instruction runs). The
  /// hypervisor resumes past the breakpoint automatically afterwards.
  virtual void handle_breakpoint(GVirt pc) = 0;
};

enum class RunOutcome {
  kStopped,      // stop predicate satisfied
  kIdleForever,  // HLT with no future events — workload fully drained
  kGuestFault,   // unhandled invalid opcode / fetch fault
  kShutdown,
};

class Hypervisor {
 public:
  /// `memo`: the decode memo shared with other VMs of the same image (not
  /// owned); nullptr gives this VM a private one.
  explicit Hypervisor(u32 guest_phys_mib = 64,
                      const mem::MachineImage* image = nullptr,
                      cpu::DecodeMemo* memo = nullptr);
  ~Hypervisor();
  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  mem::Machine& machine() { return machine_; }
  cpu::Vcpu& vcpu() { return vcpu_; }
  Vmi& vmi() { return vmi_; }

  void set_exit_handler(ExitHandler* handler) { handler_ = handler; }

  struct Stats {
    u64 invalid_opcode_exits = 0;
    u64 breakpoint_exits = 0;
    u64 halt_exits = 0;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Run the guest until `stop()` returns true (checked between run-loop
  /// slices and after every VM exit).
  RunOutcome run(const std::function<bool()>& stop);
  /// Convenience: run for a given number of additional simulated cycles.
  RunOutcome run_for(Cycles cycles);

  /// Retire exactly one instruction (or one pending-IRQ delivery), routing
  /// any VM exit through the same handler logic as run(). Returns the run
  /// outcome if the run would have ended on this step, nullopt otherwise;
  /// `exit_seen` (optional) receives the raw vCPU exit for this step.
  /// This is the lockstep-comparison entry point: two hypervisors stepped
  /// with it traverse identical guest states.
  std::optional<RunOutcome> step_one(cpu::Exit* exit_seen = nullptr);

  // --- pristine kernel code access --------------------------------------
  // Reads bytes from the frames that backed kernel memory at boot — i.e.
  // the original kernel code, regardless of any EPT view currently active.
  u8 pristine_read8(GVirt kernel_va) const;
  void pristine_read(GVirt kernel_va, std::span<u8> out) const;

  GVirt last_fault_pc() const { return last_fault_pc_; }

 private:
  /// Shared exit dispatch for run() and step_one(): returns the outcome if
  /// the exit ends the run, nullopt to keep executing.
  std::optional<RunOutcome> handle_exit(const cpu::Exit& exit);

  mem::Machine machine_;
  cpu::Vcpu vcpu_;
  Vmi vmi_;
  ExitHandler* handler_ = nullptr;
  Stats stats_;
  GVirt last_fault_pc_ = 0;
};

}  // namespace fc::hv
