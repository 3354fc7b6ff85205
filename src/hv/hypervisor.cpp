#include "hv/hypervisor.hpp"

#include "obs/trace.hpp"
#include "support/logging.hpp"

namespace fc::hv {

Hypervisor::Hypervisor(u32 guest_phys_mib, const mem::MachineImage* image,
                       cpu::DecodeMemo* memo)
    : machine_(guest_phys_mib, image), vcpu_(machine_, memo), vmi_(machine_) {
  // The flight recorder stamps events with simulated time. There is one
  // recorder per thread; the most recently constructed hypervisor's vCPU
  // on this thread supplies the clock (lockstep harnesses construct pairs
  // but record from at most one).
  obs::recorder().set_clock(vcpu_.cycles_addr());
  obs::recorder().set_cycles_per_second(vcpu_.perf_model().cycles_per_second);
}

Hypervisor::~Hypervisor() {
  // Never leave the recorder pointing at a destroyed counter.
  if (obs::recorder().clock() == vcpu_.cycles_addr())
    obs::recorder().set_clock(nullptr);
}

std::optional<RunOutcome> Hypervisor::handle_exit(const cpu::Exit& exit) {
  // Slice exhaustion is run-loop bookkeeping, not a guest event.
  if (exit.reason != cpu::ExitReason::kNone &&
      exit.reason != cpu::ExitReason::kInstructionLimit)
    FC_TRACE_EVENT(kVmExit, static_cast<u8>(exit.reason), 0, exit.pc, 0, 0, 0);
  switch (exit.reason) {
    case cpu::ExitReason::kInstructionLimit:
      return std::nullopt;
    case cpu::ExitReason::kBreakpoint: {
      ++stats_.breakpoint_exits;
      vcpu_.charge(vcpu_.perf_model().cost_vmexit);
      if (handler_ != nullptr) handler_->handle_breakpoint(exit.pc);
      // Step over the breakpointed instruction on resume.
      vcpu_.suppress_breakpoint_once();
      return std::nullopt;
    }
    case cpu::ExitReason::kInvalidOpcode: {
      ++stats_.invalid_opcode_exits;
      vcpu_.charge(vcpu_.perf_model().cost_vmexit);
      bool handled =
          handler_ != nullptr && handler_->handle_invalid_opcode(exit.pc);
      if (!handled) {
        last_fault_pc_ = exit.pc;
        FC_WARN << "unhandled invalid opcode at 0x" << std::hex << exit.pc;
        return RunOutcome::kGuestFault;
      }
      return std::nullopt;
    }
    case cpu::ExitReason::kFetchFault:
      last_fault_pc_ = exit.pc;
      FC_WARN << "guest fetch fault at 0x" << std::hex << exit.pc;
      return RunOutcome::kGuestFault;
    case cpu::ExitReason::kHalt:
      // on_idle found no future events: the workload is drained.
      ++stats_.halt_exits;
      return RunOutcome::kIdleForever;
    case cpu::ExitReason::kShutdown:
      return RunOutcome::kShutdown;
    case cpu::ExitReason::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

RunOutcome Hypervisor::run(const std::function<bool()>& stop) {
  constexpr u64 kSlice = 20'000;  // instructions per run-loop slice
  while (true) {
    if (stop()) return RunOutcome::kStopped;
    cpu::Exit exit = vcpu_.run(kSlice);
    if (std::optional<RunOutcome> outcome = handle_exit(exit)) return *outcome;
  }
}

std::optional<RunOutcome> Hypervisor::step_one(cpu::Exit* exit_seen) {
  cpu::Exit exit = vcpu_.run(1);
  if (exit_seen != nullptr) *exit_seen = exit;
  return handle_exit(exit);
}

RunOutcome Hypervisor::run_for(Cycles cycles) {
  const Cycles end = vcpu_.cycles() + cycles;
  return run([&] { return vcpu_.cycles() >= end; });
}

u8 Hypervisor::pristine_read8(GVirt kernel_va) const {
  FC_CHECK(is_kernel_address(kernel_va),
           << "pristine read of non-kernel address");
  GPhys pa = mem::GuestLayout::kernel_pa(kernel_va);
  HostFrame frame = machine_.boot_frame_for(pa);
  return machine_.host().read8(frame, page_offset(pa));
}

void Hypervisor::pristine_read(GVirt kernel_va, std::span<u8> out) const {
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = pristine_read8(kernel_va + static_cast<GVirt>(i));
}

}  // namespace fc::hv
