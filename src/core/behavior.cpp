#include "core/behavior.hpp"

#include <cstdio>
#include <sstream>

#include "hv/guest_abi.hpp"
#include "support/check.hpp"

namespace fc::core {

// ---------------------------------------------------------------------------
// BehaviorProfile (de)serialization.
// ---------------------------------------------------------------------------

bool BehaviorProfile::constrained_arg(u32 nr, u32 reg_b, u32 reg_c,
                                      u32* arg) {
  switch (nr) {
    case abi::kSysBind:
    case abi::kSysConnect:
      *arg = reg_c;  // the port
      return true;
    case abi::kSysExecve:
      *arg = reg_b;  // the binary id
      return true;
    default:
      return false;
  }
}

std::string BehaviorProfile::serialize() const {
  std::ostringstream out;
  out << "# face-change behaviour profile\n";
  out << "app " << app_name << "\n[syscalls]\n";
  for (u32 nr : syscalls) out << nr << "\n";
  for (const auto& [nr, args] : constrained_args) {
    out << "[args " << nr << "]\n";
    for (u32 arg : args) out << arg << "\n";
  }
  return out.str();
}

BehaviorProfile BehaviorProfile::parse(const std::string& text) {
  BehaviorProfile profile;
  std::istringstream in(text);
  std::string line;
  std::set<u32>* target = nullptr;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("app ", 0) == 0) {
      profile.app_name = line.substr(4);
      continue;
    }
    if (line == "[syscalls]") {
      target = &profile.syscalls;
      continue;
    }
    if (line.rfind("[args ", 0) == 0) {
      u32 nr = static_cast<u32>(std::stoul(line.substr(6)));
      target = &profile.constrained_args[nr];
      continue;
    }
    FC_CHECK(target != nullptr, << "number before section: " << line);
    target->insert(static_cast<u32>(std::stoul(line)));
  }
  return profile;
}

// ---------------------------------------------------------------------------
// BehaviorProfiler.
// ---------------------------------------------------------------------------

BehaviorProfiler::BehaviorProfiler(hv::Hypervisor& hv,
                                   const os::KernelImage& kernel)
    : hv_(&hv) {
  switch_to_addr_ = kernel.symbols.must_addr("__switch_to");
  syscall_entry_addr_ = kernel.symbols.must_addr("syscall_call");
}

void BehaviorProfiler::add_target(const std::string& comm) {
  targets_.insert(comm);
  per_app_.emplace(comm, BehaviorProfile{});
}

void BehaviorProfiler::attach() {
  hv_->vcpu().set_trace_sink(this);
  attached_ = true;
  cached_comm_ = hv_->vmi().current_task().comm;
}

void BehaviorProfiler::detach() {
  hv_->vcpu().set_trace_sink(nullptr);
  attached_ = false;
}

void BehaviorProfiler::on_block(GVirt start, GVirt end) {
  if (start <= switch_to_addr_ && switch_to_addr_ < end) {
    cached_comm_ = hv_->vmi().current_task().comm;
    return;
  }
  // The first basic block of syscall_call ends at the dispatch call; at
  // that point %eax still holds the syscall number.
  if (start == syscall_entry_addr_ && targets_.count(cached_comm_) != 0) {
    const auto& regs = hv_->vcpu().regs();
    u32 nr = regs[isa::Reg::A];
    per_app_[cached_comm_].syscalls.insert(nr);
    u32 arg = 0;
    if (BehaviorProfile::constrained_arg(nr, regs[isa::Reg::B],
                                         regs[isa::Reg::C], &arg)) {
      per_app_[cached_comm_].constrained_args[nr].insert(arg);
    }
  }
}

BehaviorProfile BehaviorProfiler::export_profile(
    const std::string& comm) const {
  BehaviorProfile profile;
  auto it = per_app_.find(comm);
  if (it != per_app_.end()) profile = it->second;
  profile.app_name = comm;
  return profile;
}

// ---------------------------------------------------------------------------
// BehaviorMonitor.
// ---------------------------------------------------------------------------

BehaviorMonitor::BehaviorMonitor(hv::Hypervisor& hv,
                                 const os::KernelImage& kernel)
    : hv_(&hv) {
  syscall_entry_addr_ = kernel.symbols.must_addr("syscall_call");
}

BehaviorMonitor::~BehaviorMonitor() {
  if (enabled_) disable();
}

void BehaviorMonitor::bind(const std::string& comm, BehaviorProfile profile) {
  bindings_[comm] = std::move(profile);
}

void BehaviorMonitor::enable(hv::ExitHandler* chain) {
  chain_ = chain;
  hv_->vcpu().add_breakpoint(syscall_entry_addr_);
  hv_->set_exit_handler(this);
  enabled_ = true;
}

void BehaviorMonitor::disable() {
  hv_->vcpu().remove_breakpoint(syscall_entry_addr_);
  hv_->set_exit_handler(chain_);
  enabled_ = false;
}

std::string BehaviorMonitor::Violation::render() const {
  char buf[160];
  if (argument_violation) {
    std::snprintf(buf, sizeof(buf),
                  "behaviour violation: [%s] pid %u issued syscall %u with "
                  "unprofiled argument %u (in-view attack indicator)",
                  comm.c_str(), pid, syscall_nr, argument);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "behaviour violation: [%s] pid %u issued syscall %u "
                  "outside its profiled behaviour",
                  comm.c_str(), pid, syscall_nr);
  }
  return buf;
}

bool BehaviorMonitor::handle_invalid_opcode(GVirt pc) {
  return chain_ != nullptr && chain_->handle_invalid_opcode(pc);
}

void BehaviorMonitor::handle_breakpoint(GVirt pc) {
  if (pc != syscall_entry_addr_) {
    if (chain_ != nullptr) chain_->handle_breakpoint(pc);
    return;
  }
  ++syscalls_checked_;
  hv::TaskInfo task = hv_->vmi().current_task();
  auto it = bindings_.find(task.comm);
  if (it == bindings_.end()) return;
  const auto& regs = hv_->vcpu().regs();
  u32 nr = regs[isa::Reg::A];
  if (!it->second.allows(nr)) {
    violations_.push_back(
        {hv_->vcpu().cycles(), task.pid, task.comm, nr, false, 0});
    return;
  }
  u32 arg = 0;
  if (BehaviorProfile::constrained_arg(nr, regs[isa::Reg::B],
                                       regs[isa::Reg::C], &arg) &&
      !it->second.allows_arg(nr, arg)) {
    violations_.push_back(
        {hv_->vcpu().cycles(), task.pid, task.comm, nr, true, arg});
  }
}

}  // namespace fc::core
