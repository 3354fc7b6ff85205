// §V-A extension (the paper's future work): finer-grained behavioural
// profiling.
//
// The paper concedes that an attack using only kernel code *within* the
// victim's view is invisible to view enforcement — e.g. a parasite C&C
// server inside a web server needs nothing beyond the networking code the
// host already uses. Its proposed remedy is to "also profile the
// application's behavior, specifically its interactions with the kernel".
//
// This module implements that remedy at the natural granularity this
// simulator observes: the set of (syscall number → reached kernel entry
// point) edges an application exercises during profiling. At runtime a
// monitor checks every syscall dispatch against the profile; an in-view
// attack like the C&C case still deviates *behaviourally* (a web server
// that suddenly calls bind/listen on a new port, a viewer that starts
// forking) and is flagged without any code recovery having fired.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "hv/hypervisor.hpp"
#include "os/kernel_image.hpp"

namespace fc::core {

/// The behavioural profile: which syscalls an application legitimately
/// issues, and — for the security-relevant ones where the paper's C&C
/// counter-example lives (bind/connect/execve take the same kernel code
/// path regardless of target) — which *arguments* it uses. Serializable
/// next to the kernel view config.
struct BehaviorProfile {
  std::string app_name;
  std::set<u32> syscalls;
  /// nr → allowed values of the syscall's security-relevant argument
  /// (bind/connect: the port; execve: the binary id).
  std::map<u32, std::set<u32>> constrained_args;

  std::string serialize() const;
  static BehaviorProfile parse(const std::string& text);

  /// Is this syscall's security-relevant argument constrained, and if so,
  /// which register carries it? Returns false for unconstrained syscalls.
  static bool constrained_arg(u32 nr, u32 reg_b, u32 reg_c, u32* arg);

  bool allows(u32 nr) const { return syscalls.count(nr) != 0; }
  bool allows_arg(u32 nr, u32 arg) const {
    auto it = constrained_args.find(nr);
    return it == constrained_args.end() || it->second.count(arg) != 0;
  }
};

/// Records syscall numbers per target application during a profiling
/// session. Installed as a vCPU trace sink alongside (or instead of) the
/// block profiler — it watches the syscall entry code execute and reads the
/// number from the guest's registers.
class BehaviorProfiler : public cpu::TraceSink {
 public:
  BehaviorProfiler(hv::Hypervisor& hv, const os::KernelImage& kernel);
  void add_target(const std::string& comm);
  void attach();
  void detach();
  BehaviorProfile export_profile(const std::string& comm) const;

  // TraceSink:
  void on_block(GVirt start, GVirt end) override;

 private:
  hv::Hypervisor* hv_;
  GVirt switch_to_addr_ = 0;
  GVirt syscall_entry_addr_ = 0;
  std::set<std::string> targets_;
  std::map<std::string, BehaviorProfile> per_app_;
  std::string cached_comm_;
  bool attached_ = false;
};

/// Runtime enforcement: traps the syscall dispatch point and flags
/// deviations. Composes with FaceChangeEngine (both are breakpoint-driven;
/// this one uses the syscall entry address).
class BehaviorMonitor : public hv::ExitHandler {
 public:
  BehaviorMonitor(hv::Hypervisor& hv, const os::KernelImage& kernel);
  ~BehaviorMonitor() override;

  void bind(const std::string& comm, BehaviorProfile profile);
  /// Enable monitoring. `chain` is the downstream handler (typically the
  /// FaceChangeEngine) that receives all exits this monitor doesn't own.
  void enable(hv::ExitHandler* chain = nullptr);
  void disable();

  struct Violation {
    Cycles when = 0;
    u32 pid = 0;
    std::string comm;
    u32 syscall_nr = 0;
    bool argument_violation = false;  // in-set syscall, out-of-profile arg
    u32 argument = 0;
    std::string render() const;
  };
  const std::vector<Violation>& violations() const { return violations_; }
  u64 syscalls_checked() const { return syscalls_checked_; }

  // hv::ExitHandler:
  bool handle_invalid_opcode(GVirt pc) override;
  void handle_breakpoint(GVirt pc) override;

 private:
  hv::Hypervisor* hv_;
  GVirt syscall_entry_addr_ = 0;
  hv::ExitHandler* chain_ = nullptr;
  std::map<std::string, BehaviorProfile> bindings_;
  std::vector<Violation> violations_;
  u64 syscalls_checked_ = 0;
  bool enabled_ = false;
};

}  // namespace fc::core
