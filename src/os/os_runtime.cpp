#include "os/os_runtime.hpp"

#include <algorithm>

#include <cstdio>

#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace fc::os {

using cpu::Vcpu;
using isa::Reg;
using Packet = io::IoPlane::Packet;
using mem::GuestLayout;
namespace abi = fc::abi;

namespace {

constexpr u32 kSigAlrm = 14;
constexpr u32 kEintr = 0xFFFFFFFCu;   // -4
constexpr u32 kEbadf = 0xFFFFFFF7u;   // -9
constexpr u32 kMaxFds = 1024;         // RLIMIT_NOFILE: dup2 targets above fail
constexpr u32 kEchild = 0xFFFFFFF6u;  // -10
constexpr u32 kEsrch = 0xFFFFFFFDu;   // -3
constexpr u32 kHz = 250;              // ticks per simulated second (4 ms)

// Guest-physical carve-outs inside the kernel heap region.
constexpr GPhys kKstackPhysBase = GuestLayout::kKernelHeapPhys;           // 64 tasks × 2 pages
constexpr GPhys kHeapNodePhysBase = GuestLayout::kKernelHeapPhys + 0x100000;
constexpr GPhys kHeapNodePhysLimit = GuestLayout::kKernelHeapPhys + 0x200000;
constexpr GPhys kModuleArenaPhys = GuestLayout::kKernelHeapPhys + 0x800000;
constexpr GPhys kModuleArenaLimit = GuestLayout::kKernelHeapPhys + 0x1000000;

constexpr u32 kKstackPages = 2;

u32 align_up(u32 v, u32 a) { return (v + a - 1) & ~(a - 1); }

}  // namespace

OsRuntime::OsRuntime(hv::Hypervisor& hv, OsConfig config,
                     const SharedBoot* shared)
    : hv_(&hv),
      config_(config),
      shared_boot_(shared),
      module_arena_cursor_(GuestLayout::kernel_va(kModuleArenaPhys)) {}

OsRuntime::~OsRuntime() = default;

// ---------------------------------------------------------------------------
// Guest-memory helpers.
// ---------------------------------------------------------------------------

namespace {
void kwrite32(mem::Machine& m, GVirt va, u32 value) {
  m.pwrite32(GuestLayout::kernel_pa(va), value);
}
u32 kread32(const mem::Machine& m, GVirt va) {
  return m.pread32(GuestLayout::kernel_pa(va));
}
/// Write kernel bytes through the frames that backed memory at boot — the
/// "real" kernel pages, regardless of any EPT view currently installed.
/// Used for module text, which must land in the pristine code recovery
/// source.
void kwrite_bytes_boot(mem::Machine& m, GVirt va, std::span<const u8> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    GPhys pa = GuestLayout::kernel_pa(va + static_cast<GVirt>(i));
    m.host().write8(m.boot_frame_for(pa), page_offset(pa), bytes[i]);
  }
}
}  // namespace

OsRuntime::TaskRt& OsRuntime::task(u32 pid) {
  auto it = pid_slot_.find(pid);
  FC_CHECK(it != pid_slot_.end(), << "no task with pid " << pid);
  return tasks_[it->second];
}
const OsRuntime::TaskRt& OsRuntime::task(u32 pid) const {
  auto it = pid_slot_.find(pid);
  FC_CHECK(it != pid_slot_.end(), << "no task with pid " << pid);
  return tasks_[it->second];
}

u32 OsRuntime::current_pid() const { return tasks_[current_].pid; }

bool OsRuntime::task_alive(u32 pid) const {
  auto it = pid_slot_.find(pid);
  if (it == pid_slot_.end()) return false;
  const TaskRt& t = tasks_[it->second];
  return t.used && t.pid == pid && t.state != abi::TaskState::kZombie &&
         t.state != abi::TaskState::kDead;
}

bool OsRuntime::task_zombie_or_dead(u32 pid) const {
  auto it = pid_slot_.find(pid);
  if (it == pid_slot_.end()) return true;
  const TaskRt& t = tasks_[it->second];
  return !t.used || t.pid != pid || t.state == abi::TaskState::kZombie ||
         t.state == abi::TaskState::kDead;
}

void OsRuntime::sync_task_to_guest(const TaskRt& t) {
  mem::Machine& m = hv_->machine();
  GVirt base = abi::Task::addr(t.slot);
  kwrite32(m, base + abi::Task::kPid, t.pid);
  kwrite32(m, base + abi::Task::kState, static_cast<u32>(t.state));
  kwrite32(m, base + abi::Task::kCr3, t.cr3);
  kwrite32(m, base + abi::Task::kKstackTop, t.kstack_top);
  for (u32 i = 0; i < abi::Task::kCommLen; ++i) {
    u8 c = i < t.comm.size() ? static_cast<u8>(t.comm[i]) : 0;
    m.pwrite8(GuestLayout::kernel_pa(base + abi::Task::kComm + i), c);
  }
}

void OsRuntime::set_current(u32 slot) {
  current_ = slot;
  mem::Machine& m = hv_->machine();
  kwrite32(m, abi::kCurrentTaskAddr, abi::Task::addr(slot));
  kwrite32(m, abi::kEsp0Addr, tasks_[slot].kstack_top);
}

// ---------------------------------------------------------------------------
// Boot.
// ---------------------------------------------------------------------------

void OsRuntime::boot() {
  mem::Machine& machine = hv_->machine();

  // 1. Build and install the kernel text (reuse the template's image when
  //    booting from a SharedBoot — assembly is the expensive part of boot,
  //    and the result is byte-identical by construction).
  if (shared_boot_ != nullptr)
    kernel_ = shared_boot_->kernel;
  else
    kernel_ = KernelBuilder::build(make_base_kernel_blueprint(),
                                   GuestLayout::kernel_va(GuestLayout::kKernelCodePhys));
  FC_CHECK(kernel_.text.size() <= GuestLayout::kKernelCodeMax,
           << "kernel too large: " << kernel_.text.size());
  machine.pwrite_bytes(GuestLayout::kKernelCodePhys, kernel_.text);

  // 2. Kernel page directory: direct-map the whole of guest physical memory
  //    into the kernel half.
  ptb_ = std::make_unique<mem::GuestPageTableBuilder>(
      machine, /*table_region_base=*/0x1000,
      /*table_region_limit=*/GuestLayout::kKernelCodePhys);
  kernel_dir_ = ptb_->create_directory();
  ptb_->map(kernel_dir_, kKernelBase, 0, machine.guest_phys_pages());

  write_kernel_data_tables();
  create_idle_task();

  // 3. Wire the vCPU.
  Vcpu& vcpu = hv_->vcpu();
  vcpu.set_env(this);
  vcpu.set_idt_base(abi::kIdtBase);
  vcpu.set_kstack_ptr_addr(abi::kEsp0Addr);
  vcpu.set_cr3(kernel_dir_);
  vcpu.regs().pc = kernel_.symbols.must_addr("cpu_idle");
  vcpu.regs().mode = cpu::Mode::kKernel;
  vcpu.regs().interrupts_enabled = false;
  vcpu.regs()[Reg::SP] = tasks_[0].kstack_top;
  vcpu.regs()[Reg::FP] = 0;

  // 4. VMI configuration (the hypervisor's System.map).
  hv_->vmi().set_kernel_symbols(&kernel_.symbols);
  hv_->vmi().set_kernel_text_range(kernel_.text_base, kernel_.text_end());

  // 5. Stock files.
  files_[kPathEtcConf] = {abi::FileClass::kExt4, 64 << 10, "/etc/app.conf"};
  files_[kPathDataFile] = {abi::FileClass::kExt4, 8 << 20, "/var/data.bin"};
  files_[kPathLogFile] = {abi::FileClass::kExt4, 1 << 20, "/var/log/app.log"};
  files_[kPathProcStat] = {abi::FileClass::kProc, 4 << 10, "/proc/stat"};
  files_[kPathProcMeminfo] = {abi::FileClass::kProc, 4 << 10, "/proc/meminfo"};
  files_[kPathDevTty] = {abi::FileClass::kTty, 0, "/dev/tty0"};
  files_[kPathIndexHtml] = {abi::FileClass::kExt4, 16 << 10, "/var/www/index.html"};
  files_[kPathDbFile] = {abi::FileClass::kExt4, 32 << 20, "/var/lib/mysql/ibdata"};
  files_[kPathHiddenLog] = {abi::FileClass::kExt4, 1 << 20, "/usr/_h4x_.log"};
  files_[kPathMediaFile] = {abi::FileClass::kExt4, 64 << 20, "/home/user/movie.ogv"};

  // 5.5. IO data plane. Ring init depends only on the ring layout, so the
  //      boot image is independent of the coalescing and DMA tuning:
  //      clones replaying these deterministic writes against a shared
  //      image see them as same-value no-ops and keep sharing.
  io_ = std::make_unique<io::IoPlane>(machine, vcpu, events_, config_.io);
  io_->init_rings();

  start_timer();

  // 6. Stock e1000 NIC driver module (host-loaded at boot; its interrupt
  //    handler gives every profile genuine module-code content).
  u32 e1000 = register_module(ModuleSpec{
      "e1000", make_e1000_blueprint(), /*init_symbol=*/"",
      /*publish_symbols=*/true,
      [](OsRuntime& os, const ModuleImage& img) {
        // Register the module's IRQ handler for the NIC line.
        GVirt handler = img.base + img.symbols_rel.must_addr("e1000_intr");
        kwrite32(os.hypervisor().machine(),
                 abi::kIrqHandlerTableAddr + abi::kIrqNet * 4, handler);
      }});
  load_module_now(e1000);
}

void OsRuntime::write_kernel_data_tables() {
  mem::Machine& m = hv_->machine();
  const hv::SymbolTable& syms = kernel_.symbols;

  // IDT.
  for (u32 v = 0; v < 256; ++v) kwrite32(m, abi::kIdtBase + v * 4, 0);
  for (u8 line = 0; line < 4; ++line) {
    char stub[32];
    std::snprintf(stub, sizeof(stub), "irq_entry_%d", line);
    kwrite32(m, abi::kIdtBase + (32 + line) * 4, syms.must_addr(stub));
  }
  kwrite32(m, abi::kIdtBase + abi::kSyscallVector * 4,
           syms.must_addr("syscall_call"));

  // IRQ handler table.
  for (u32 i = 0; i < 8; ++i)
    kwrite32(m, abi::kIrqHandlerTableAddr + i * 4,
             syms.must_addr("sys_ni_syscall"));
  kwrite32(m, abi::kIrqHandlerTableAddr + abi::kIrqTimer * 4,
           syms.must_addr("timer_interrupt"));
  kwrite32(m, abi::kIrqHandlerTableAddr + abi::kIrqDisk * 4,
           syms.must_addr("ata_interrupt"));
  kwrite32(m, abi::kIrqHandlerTableAddr + abi::kIrqTty * 4,
           syms.must_addr("kbd_interrupt"));

  // Syscall table.
  for (u32 i = 0; i < abi::kSyscallTableSlots; ++i)
    kwrite32(m, abi::kSyscallTableAddr + i * 4,
             syms.must_addr("sys_ni_syscall"));
  auto set_sys = [&](u32 nr, const char* sym) {
    kwrite32(m, abi::kSyscallTableAddr + nr * 4, syms.must_addr(sym));
  };
  set_sys(abi::kSysExit, "sys_exit");
  set_sys(abi::kSysFork, "sys_fork");
  set_sys(abi::kSysRead, "sys_read");
  set_sys(abi::kSysWrite, "sys_write");
  set_sys(abi::kSysOpen, "sys_open");
  set_sys(abi::kSysClose, "sys_close");
  set_sys(abi::kSysWaitpid, "sys_waitpid");
  set_sys(abi::kSysExecve, "sys_execve");
  set_sys(abi::kSysTime, "sys_time");
  set_sys(abi::kSysGetpid, "sys_getpid");
  set_sys(abi::kSysAlarm, "sys_alarm");
  set_sys(abi::kSysKill, "sys_kill");
  set_sys(abi::kSysPipe, "sys_pipe");
  set_sys(abi::kSysBrk, "sys_brk");
  set_sys(abi::kSysSignal, "sys_signal");
  set_sys(abi::kSysIoctl, "sys_ioctl");
  set_sys(abi::kSysFcntl, "sys_fcntl");
  set_sys(abi::kSysDup2, "sys_dup2");
  set_sys(abi::kSysGettimeofday, "sys_gettimeofday");
  set_sys(abi::kSysMmap, "sys_mmap2");
  set_sys(abi::kSysStat, "sys_stat64");
  set_sys(abi::kSysSetitimer, "sys_setitimer");
  set_sys(abi::kSysWait4, "sys_wait4");
  set_sys(abi::kSysFsync, "sys_fsync");
  set_sys(abi::kSysSigreturn, "sys_sigreturn");
  set_sys(abi::kSysClone, "sys_clone");
  set_sys(abi::kSysUname, "sys_uname");
  set_sys(abi::kSysInitModule, "sys_init_module");
  set_sys(abi::kSysDeleteModule, "sys_delete_module");
  set_sys(abi::kSysGetdents, "sys_getdents");
  set_sys(abi::kSysSelect, "sys_select");
  set_sys(abi::kSysNanosleep, "sys_nanosleep");
  set_sys(abi::kSysPoll, "sys_poll");
  set_sys(abi::kSysSigaction, "sys_rt_sigaction");
  set_sys(abi::kSysSocket, "sys_socket");
  set_sys(abi::kSysBind, "sys_bind");
  set_sys(abi::kSysConnect, "sys_connect");
  set_sys(abi::kSysListen, "sys_listen");
  set_sys(abi::kSysAccept, "sys_accept");
  set_sys(abi::kSysSendto, "sys_sendto");
  set_sys(abi::kSysRecvfrom, "sys_recvfrom");
  set_sys(158, "sys_sched_yield");

  // Scalars.
  kwrite32(m, abi::kModuleListAddr, 0);
  kwrite32(m, abi::kIrqCountAddr, 0);
  kwrite32(m, abi::kJiffiesAddr, 0);
  kwrite32(m, abi::kNeedReschedAddr, 0);
  kwrite32(m, abi::kClocksourceAddr, config_.clocksource);

  // Task array.
  for (u32 i = 0; i < abi::Task::kMaxTasks * abi::Task::kSize; i += 4)
    kwrite32(m, abi::kTaskArrayAddr + i, 0);
}

void OsRuntime::create_idle_task() {
  TaskRt& t = tasks_[0];
  t.used = true;
  t.slot = 0;
  t.pid = 0;
  t.comm = "swapper";
  t.state = abi::TaskState::kRunning;
  t.cr3 = kernel_dir_;
  GPhys kstack = kKstackPhysBase;
  t.kstack_top = GuestLayout::kernel_va(kstack) + kKstackPages * kPageSize;
  t.quantum_left = config_.quantum_ticks;
  pid_slot_[0] = 0;
  sync_task_to_guest(t);
  set_current(0);
}

void OsRuntime::start_timer() {
  // Each tick reschedules the next through `this`: the queue owns the only
  // pending closure, so destroying the runtime frees it.
  events_.schedule_at(hv_->vcpu().cycles() + config_.timer_period, [this] {
    hv_->vcpu().raise_irq(abi::kIrqTimer);
    start_timer();
  });
}

// ---------------------------------------------------------------------------
// Task creation / processes.
// ---------------------------------------------------------------------------

u32 OsRuntime::alloc_task_slot() {
  for (u32 slot = 1; slot < abi::Task::kMaxTasks; ++slot) {
    if (!tasks_[slot].used) return slot;
  }
  FC_UNREACHABLE(<< "out of task slots");
}

GPhys OsRuntime::alloc_user_pages(u32 count) {
  return hv_->machine().alloc_phys_pages(count, GuestLayout::kUserPhys,
                                         hv_->machine().guest_phys_pages() *
                                             static_cast<u64>(kPageSize));
}

GPhys OsRuntime::alloc_heap_pages(u32 count) {
  return hv_->machine().alloc_phys_pages(count, kHeapNodePhysBase,
                                         kHeapNodePhysLimit);
}

void OsRuntime::map_user(TaskRt& t, GVirt va, u32 pages, GPhys pa) {
  ptb_->set_allocation_log(&t.table_pages);
  ptb_->map(t.cr3, va, pa, pages);
  ptb_->set_allocation_log(nullptr);
  t.user_segs.push_back({va, pages, pa});
  hv_->vcpu().mmu().flush_tlb();
}

std::optional<GPhys> OsRuntime::user_va_to_pa(const TaskRt& t, GVirt va) const {
  for (const UserSeg& seg : t.user_segs) {
    if (va >= seg.va && va < seg.va + seg.pages * kPageSize)
      return seg.pa + (va - seg.va);
  }
  return {};
}

void OsRuntime::write_user(const TaskRt& t, GVirt va,
                           std::span<const u8> bytes) {
  auto pa = user_va_to_pa(t, va);
  FC_CHECK(pa.has_value(), << "write_user: unmapped va " << va);
  hv_->machine().pwrite_bytes(*pa, bytes);
}

u32 OsRuntime::install_fd(TaskRt& t, abi::FileClass cls, u32 obj) {
  for (u32 fd = 0; fd < t.fds.size(); ++fd) {
    if (!t.fds[fd].open) {
      t.fds[fd] = {true, cls, obj, 0, false};
      return fd;
    }
  }
  t.fds.push_back({true, cls, obj, 0, false});
  return static_cast<u32>(t.fds.size() - 1);
}

void OsRuntime::fd_addref(const Fd& fd) {
  if (!fd.open) return;
  if (fd.cls == abi::FileClass::kSocket) ++sockets_[fd.obj].refs;
  if (fd.cls == abi::FileClass::kPipe) ++pipes_[fd.obj].refs;
}

void OsRuntime::fd_close(Fd& fd) {
  if (!fd.open) return;
  fd.open = false;
  if (fd.cls == abi::FileClass::kSocket) {
    Socket& s = sockets_[fd.obj];
    if (s.refs > 0 && --s.refs == 0) s = Socket{};
  } else if (fd.cls == abi::FileClass::kPipe) {
    Pipe& p = pipes_[fd.obj];
    if (p.refs > 0 && --p.refs == 0) p = Pipe{};
  }
}

void OsRuntime::close_fds(TaskRt& t) {
  for (Fd& fd : t.fds) fd_close(fd);
}

/// Free a reaped task's user pages and page-table pages back to their
/// regions so fork-heavy workloads run indefinitely.
void OsRuntime::release_task_memory(TaskRt& t) {
  mem::Machine& m = hv_->machine();
  for (const UserSeg& seg : t.user_segs) {
    m.free_phys_pages(seg.pa, seg.pages, mem::GuestLayout::kUserPhys);
  }
  t.user_segs.clear();
  for (GPhys page : t.table_pages) {
    m.free_phys_pages(page, 1, ptb_->table_region_base());
  }
  t.table_pages.clear();
  hv_->vcpu().mmu().flush_tlb();
}

u32 OsRuntime::create_task_common(const std::string& comm) {
  u32 slot = alloc_task_slot();
  TaskRt& t = tasks_[slot];
  t = TaskRt{};
  t.used = true;
  t.slot = slot;
  t.pid = next_pid_++;
  t.comm = comm.substr(0, abi::Task::kCommLen - 1);
  t.state = abi::TaskState::kRunnable;
  pid_slot_[t.pid] = slot;

  // Kernel stack (per-slot fixed carve-out).
  GPhys kstack = kKstackPhysBase + slot * kKstackPages * kPageSize;
  t.kstack_top = GuestLayout::kernel_va(kstack) + kKstackPages * kPageSize;

  // Page directory with the shared kernel half.
  ptb_->set_allocation_log(&t.table_pages);
  t.cr3 = ptb_->create_directory();
  ptb_->share_kernel_half(t.cr3, kernel_dir_);
  ptb_->set_allocation_log(nullptr);

  // User stack.
  GPhys stack_pa = alloc_user_pages(4);
  map_user(t, kUserStackTop - 4 * kPageSize, 4, stack_pa);

  // Std fds: 0,1,2 → tty.
  t.fds.assign(3, Fd{true, abi::FileClass::kTty, 0, 0, false});
  t.quantum_left = config_.quantum_ticks;
  return slot;
}

namespace {
/// Fabricate the initial kernel stack so the first __switch_to into this
/// task "returns" through ret_from_fork → resume_userspace → iret.
void fabricate_switch_frame(mem::Machine& m, GVirt kstack_top,
                            GVirt ret_from_fork, u32* saved_sp,
                            u32* saved_fp) {
  kwrite32(m, kstack_top - 16, ret_from_fork);  // return address
  kwrite32(m, kstack_top - 20, 0);              // saved %ebp (chain end)
  *saved_sp = kstack_top - 20;
  *saved_fp = kstack_top - 20;
}
}  // namespace

u32 OsRuntime::spawn(const std::string& comm, std::shared_ptr<AppModel> model,
                     ProgramImage program) {
  u32 slot = create_task_common(comm);
  TaskRt& t = tasks_[slot];
  t.model = std::move(model);
  t.program = program;

  u32 code_pages = align_up(static_cast<u32>(program.code.size()), kPageSize) /
                       kPageSize +
                   1;
  GPhys code_pa = alloc_user_pages(code_pages);
  map_user(t, kUserCodeVa, code_pages, code_pa);
  hv_->machine().pwrite_bytes(code_pa, program.code);

  t.snap.pc = program.entry_va();
  t.snap.sp = kUserStackTop;
  t.in_syscall = false;

  fabricate_switch_frame(hv_->machine(), t.kstack_top,
                         kernel_.symbols.must_addr("ret_from_fork"),
                         &t.saved_sp, &t.saved_fp);
  t.saved_if = false;
  sync_task_to_guest(t);
  kwrite32(hv_->machine(), abi::Task::addr(t.slot) + abi::Task::kSavedSp,
           t.saved_sp);
  kwrite32(hv_->machine(), abi::Task::addr(t.slot) + abi::Task::kSavedFp,
           t.saved_fp);
  kwrite32(hv_->machine(), abi::kNeedReschedAddr, 1);
  FC_TRACE_EVENT(kTaskSpawn, 0, 0, t.pid, obs::name_hash(comm.c_str()), 0, 0);
  return t.pid;
}

void OsRuntime::register_binary(
    const std::string& name, ProgramImage program,
    std::function<std::shared_ptr<AppModel>()> factory) {
  binaries_.emplace_back(name, Binary{std::move(program), std::move(factory)});
}

bool OsRuntime::has_binary(const std::string& name) const {
  for (const auto& [n, bin] : binaries_)
    if (n == name) return true;
  return false;
}

u32 OsRuntime::binary_id(const std::string& name) const {
  for (u32 i = 0; i < binaries_.size(); ++i)
    if (binaries_[i].first == name) return i;
  FC_UNREACHABLE(<< "unknown binary " << name);
}

GVirt OsRuntime::inject_code(u32 pid, std::span<const u8> code) {
  TaskRt& t = task(pid);
  u32 pages = align_up(static_cast<u32>(code.size()), kPageSize) / kPageSize;
  GVirt at = t.inject_cursor;
  GPhys pa = alloc_user_pages(pages);
  map_user(t, at, pages, pa);
  hv_->machine().pwrite_bytes(pa, code);
  t.inject_cursor += pages * kPageSize;
  return at;
}

void OsRuntime::detour(u32 pid, GVirt pc) { task(pid).snap.pc = pc; }

GVirt OsRuntime::task_entry_va(u32 pid) const {
  return task(pid).program.entry_va();
}

void OsRuntime::post_signal(u32 pid, u32 sig) { queue_signal(task(pid), sig); }

u32 OsRuntime::register_file(FsFileSpec spec) {
  u32 id = next_path_id_++;
  files_[id] = std::move(spec);
  return id;
}

std::string OsRuntime::debug_tasks() const {
  std::string out;
  static const char* kStates[] = {"unused", "runnable", "running",
                                  "blocked", "zombie", "dead"};
  for (const TaskRt& t : tasks_) {
    if (!t.used) continue;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "slot=%u pid=%u comm=%-10s state=%-8s chan=%llx%s\n",
                  t.slot, t.pid, t.comm.c_str(),
                  kStates[static_cast<u32>(t.state)],
                  static_cast<unsigned long long>(t.wait_channel),
                  t.slot == current_ ? " <current>" : "");
    out += line;
  }
  return out;
}

u32 OsRuntime::fds_class(u32 pid, u32 fd) const {
  const TaskRt& t = task(pid);
  if (fd >= t.fds.size() || !t.fds[fd].open)
    return static_cast<u32>(abi::FileClass::kBad);
  return static_cast<u32>(t.fds[fd].cls);
}

// ---------------------------------------------------------------------------
// Blocking / waking.
// ---------------------------------------------------------------------------

void OsRuntime::block_current(u64 channel) {
  TaskRt& t = current();
  t.state = abi::TaskState::kBlocked;
  t.wait_channel = channel;
  sync_task_to_guest(t);
}

void OsRuntime::wake_channel(u64 channel) {
  bool woke = false;
  bool woke_current = false;
  for (TaskRt& t : tasks_) {
    if (t.used && t.state == abi::TaskState::kBlocked &&
        t.wait_channel == channel) {
      t.state = abi::TaskState::kRunnable;
      t.wait_channel = 0;
      sync_task_to_guest(t);
      woke = true;
      if (t.slot == current_) woke_current = true;
    }
  }
  // Wakeups preempt only the idle task; running tasks keep their quantum
  // (they reschedule when they block or their quantum expires). This keeps
  // switch patterns deterministic. A wake of the *current* task can race
  // with its own in-progress schedule() (the interrupt arrived between
  // pick_next_task and __switch_to) — flag a resched so the lost wakeup is
  // picked up immediately after the switch.
  if (woke && (current_ == 0 || woke_current))
    kwrite32(hv_->machine(), abi::kNeedReschedAddr, 1);
}

void OsRuntime::queue_signal(TaskRt& t, u32 sig) {
  FC_CHECK(sig < 32, << "bad signal " << sig);
  if (t.sighandler[sig] != 0) {
    t.pending_sigs |= (1u << sig);
    if (t.state == abi::TaskState::kBlocked) {
      t.state = abi::TaskState::kRunnable;
      t.wait_channel = 0;
      sync_task_to_guest(t);
      if (current_ == 0 || t.slot == current_)
        kwrite32(hv_->machine(), abi::kNeedReschedAddr, 1);
    }
  } else if (sig == 9 || sig == 15) {
    terminate_task(t.pid);
  }
  // Other unhandled signals are ignored.
}

void OsRuntime::terminate_task(u32 pid) {
  TaskRt& t = task(pid);
  if (t.state == abi::TaskState::kZombie ||
      t.state == abi::TaskState::kDead || !t.used) {
    return;
  }
  close_fds(t);
  t.model.reset();
  t.state = abi::TaskState::kZombie;
  t.wait_channel = 0;
  sync_task_to_guest(t);
  wake_channel(chan(kChanChildExit, t.parent));

  if (t.slot == current_) {
    // The dying task holds the CPU (e.g. it just faulted): hand execution
    // back to the idle loop. Idle restarts from the top of its (stateless)
    // loop; its continuation will be re-saved at its next switch-out.
    TaskRt& idle = tasks_[0];
    idle.state = abi::TaskState::kRunning;
    sync_task_to_guest(idle);
    set_current(0);
    cpu::Vcpu& vcpu = hv_->vcpu();
    vcpu.set_cr3(idle.cr3);
    auto& regs = vcpu.regs();
    regs.pc = kernel_.symbols.must_addr("cpu_idle");
    regs[isa::Reg::SP] = idle.kstack_top;
    regs[isa::Reg::FP] = 0;
    regs.mode = cpu::Mode::kKernel;
    regs.interrupts_enabled = false;
    kwrite32(hv_->machine(), abi::kNeedReschedAddr, 1);
  }
}

// ---------------------------------------------------------------------------
// CpuEnv: events, app steps.
// ---------------------------------------------------------------------------

void OsRuntime::pump_events(Vcpu& vcpu) { events_.run_due(vcpu.cycles()); }

bool OsRuntime::on_idle(Vcpu& vcpu) {
  pump_events(vcpu);
  if (vcpu.irq_pending()) return true;
  if (events_.empty()) return false;
  Cycles deadline = events_.next_deadline();
  if (deadline > vcpu.cycles()) vcpu.charge(deadline - vcpu.cycles());
  pump_events(vcpu);
  return true;
}

void OsRuntime::on_app_step(Vcpu& vcpu) {
  pump_events(vcpu);
  TaskRt& t = current();
  AppAction act;
  if (t.model) {
    act = t.model->next(vcpu.regs()[Reg::A], *this, t.pid);
  } else {
    act = AppAction::syscall(abi::kSysExit, 0);
  }
  vcpu.regs()[Reg::A] = act.nr;
  vcpu.regs()[Reg::B] = act.b;
  vcpu.regs()[Reg::C] = act.c;
  vcpu.regs()[Reg::D] = act.d;
  vcpu.charge(act.compute);
}

// ---------------------------------------------------------------------------
// KSVC dispatch.
// ---------------------------------------------------------------------------

void OsRuntime::on_ksvc(u16 service, Vcpu& vcpu) {
  pump_events(vcpu);
  mem::Machine& m = hv_->machine();
  auto& regs = vcpu.regs();
  u32& A = regs[Reg::A];
  const u32 B = regs[Reg::B];
  const u32 C = regs[Reg::C];
  TaskRt& t = current();

  auto signal_pending = [&](const TaskRt& task_ref) {
    u32 mask = 0;
    for (u32 s = 0; s < 32; ++s)
      if (task_ref.sighandler[s] != 0) mask |= (1u << s);
    return (task_ref.pending_sigs & mask) != 0;
  };

  auto fd_ref = [&](u32 fd) -> Fd* {
    if (fd >= t.fds.size() || !t.fds[fd].open) return nullptr;
    return &t.fds[fd];
  };

  switch (static_cast<abi::Ksvc>(service)) {
    // --- context / entry ---------------------------------------------------
    case abi::kKsvcSaveUctx: {
      u32 sp = regs[Reg::SP];
      t.snap.gpr = regs.gpr;
      t.snap.pc = vcpu.mmu().read32(sp);
      t.snap.sp = vcpu.mmu().read32(sp + 4);
      t.in_syscall = true;
      ++counters_.syscalls;
      break;
    }
    case abi::kKsvcSyscallDone:
      t.sys_retval = A;
      break;
    case abi::kKsvcRetpathCheck: {
      u32 flags = vcpu.mmu().read32(regs[Reg::SP] + 40);
      A = (flags & 1u) ? 1 : 0;
      break;
    }
    case abi::kKsvcIrqEnter: {
      kwrite32(m, abi::kIrqCountAddr, kread32(m, abi::kIrqCountAddr) + 1);
      u32 sp = regs[Reg::SP];
      u32 flags = vcpu.mmu().read32(sp + 8);
      if (flags & 1u) {  // interrupted user mode: snapshot it
        t.snap.gpr = regs.gpr;
        t.snap.pc = vcpu.mmu().read32(sp);
        t.snap.sp = vcpu.mmu().read32(sp + 4);
        t.in_syscall = false;
      }
      break;
    }
    case abi::kKsvcIrqExit:
      kwrite32(m, abi::kIrqCountAddr, kread32(m, abi::kIrqCountAddr) - 1);
      break;
    case abi::kKsvcTimerTick:
      handle_timer_tick();
      break;
    case abi::kKsvcNetRx:
      io_->drain_nic([this](const Packet& p) { apply_packet(p); });
      A = 0;
      break;
    case abi::kKsvcDiskDone:
      io_->drain_blk([this](u32 pid) {
        if (pid_slot_.count(pid)) {
          task(pid).disk_ready = true;
          wake_channel(chan(kChanDisk, pid));
        }
      });
      A = 0;
      break;
    case abi::kKsvcTtyEvent:
      tty_input_available_ += tty_pending_keys_;
      tty_pending_keys_ = 0;
      wake_channel(chan(kChanTty, 0));
      A = 0;
      break;

    // --- scheduler ----------------------------------------------------------
    case abi::kKsvcSchedDecide:
      ksvc_sched_decide(vcpu);
      break;
    case abi::kKsvcSwitchTo:
      ksvc_switch_to(vcpu);
      break;
    case abi::kKsvcPrepareResume:
      ksvc_prepare_resume(vcpu);
      break;

    // --- vfs -----------------------------------------------------------------
    case abi::kKsvcPathClass: {
      auto it = files_.find(B);
      A = it == files_.end() ? static_cast<u32>(abi::FileClass::kBad)
                             : static_cast<u32>(it->second.cls);
      break;
    }
    case abi::kKsvcFdClass: {
      Fd* fd = fd_ref(B);
      A = fd == nullptr ? static_cast<u32>(abi::FileClass::kBad)
                        : static_cast<u32>(fd->cls);
      break;
    }
    case abi::kKsvcFileOpen: {
      auto it = files_.find(B);
      if (it == files_.end()) {
        A = kEbadf;
      } else {
        A = install_fd(t, it->second.cls, B);
      }
      break;
    }
    case abi::kKsvcFileRead:
      ksvc_file_read(vcpu);
      break;
    case abi::kKsvcFileWrite:
      ksvc_file_write(vcpu);
      break;
    case abi::kKsvcFileClose: {
      Fd* fd = fd_ref(B);
      if (fd != nullptr) fd_close(*fd);
      A = 0;
      break;
    }
    case abi::kKsvcFileStat:
      A = files_.count(B) ? 0 : kEbadf;
      break;
    case abi::kKsvcFileFsync: {
      if (t.disk_ready) {
        t.disk_ready = false;
        A = 0;
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        u32 pid = t.pid;
        events_.schedule_at(vcpu.cycles() + config_.disk_latency,
                            [this, pid] { io_->blk_complete(pid); });
        block_current(chan(kChanDisk, pid));
        A = abi::kEagain;
      }
      break;
    }
    case abi::kKsvcPipeCreate: {
      u32 idx = 0;
      while (idx < pipes_.size() && pipes_[idx].used) ++idx;
      FC_CHECK(idx < pipes_.size(), << "out of pipes");
      pipes_[idx] = {0, true, 2};
      u32 rfd = install_fd(t, abi::FileClass::kPipe, idx);
      u32 wfd = install_fd(t, abi::FileClass::kPipe, idx);
      A = rfd | (wfd << 16);
      break;
    }
    case abi::kKsvcGetdents: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
      } else if (!fd->readable_dir) {
        fd->readable_dir = true;
        A = 8;  // entries on first scan
      } else {
        A = 0;
      }
      break;
    }
    case abi::kKsvcIoctl:
    case abi::kKsvcFcntl:
      A = 0;
      break;
    case abi::kKsvcDup2: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr || C >= kMaxFds) {
        A = kEbadf;
      } else if (C == B) {
        A = C;  // dup2(fd, fd) is a no-op that returns fd
      } else {
        const Fd copy = *fd;  // growing the table may move *fd
        if (t.fds.size() <= C) t.fds.resize(C + 1);
        fd_close(t.fds[C]);
        t.fds[C] = copy;
        fd_addref(t.fds[C]);
        A = C;
      }
      break;
    }
    case abi::kKsvcPollWait: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
        break;
      }
      bool ready = false;
      u64 channel = 0;
      switch (fd->cls) {
        case abi::FileClass::kPipe:
          ready = pipes_[fd->obj].bytes > 0;
          channel = chan(kChanPipe, fd->obj);
          break;
        case abi::FileClass::kTty:
          ready = tty_input_available_ > 0;
          channel = chan(kChanTty, 0);
          break;
        case abi::FileClass::kSocket: {
          Socket& s = sockets_[fd->obj];
          ready = !s.rx.empty() || !s.accept_queue.empty();
          channel = s.listening ? chan(kChanSockAccept, fd->obj)
                                : chan(kChanSockRecv, fd->obj);
          break;
        }
        default:
          ready = true;
          break;
      }
      if (ready) {
        A = 1;
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        block_current(channel);
        A = abi::kEagain;
      }
      break;
    }

    // --- sockets ------------------------------------------------------------
    case abi::kKsvcSockCreate: {
      u32 idx = 0;
      while (idx < sockets_.size() && sockets_[idx].used) ++idx;
      FC_CHECK(idx < sockets_.size(), << "out of sockets");
      sockets_[idx] = Socket{};
      sockets_[idx].used = true;
      sockets_[idx].refs = 1;
      sockets_[idx].proto = (C == 2) ? 0u : 1u;  // SOCK_DGRAM=2 → udp
      sockets_[idx].owner = t.pid;
      A = install_fd(t, abi::FileClass::kSocket, idx);
      break;
    }
    case abi::kKsvcSockBind: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr || fd->cls != abi::FileClass::kSocket) {
        A = kEbadf;
        break;
      }
      Socket& s = sockets_[fd->obj];
      s.bound = true;
      s.port = static_cast<u16>(C);
      A = 0;
      break;
    }
    case abi::kKsvcSockListen: {
      Fd* fd = fd_ref(B);
      if (fd != nullptr) sockets_[fd->obj].listening = true;
      A = 0;
      break;
    }
    case abi::kKsvcSockAccept: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
        break;
      }
      Socket& s = sockets_[fd->obj];
      if (!s.accept_queue.empty()) {
        u32 req = s.accept_queue.front();
        s.accept_queue.pop_front();
        u32 idx = 0;
        while (idx < sockets_.size() && sockets_[idx].used) ++idx;
        FC_CHECK(idx < sockets_.size(), << "out of sockets");
        sockets_[idx] = Socket{};
        sockets_[idx].used = true;
        sockets_[idx].refs = 1;
        sockets_[idx].proto = 1;
        sockets_[idx].connected = true;
        sockets_[idx].port = s.port;
        sockets_[idx].owner = t.pid;
        // The request bytes arrive shortly after the handshake completes,
        // so the server's first read on the connection blocks briefly (as
        // with a real TCP client).
        if (req > 0) schedule_stream_data(vcpu.cycles() + 30'000, idx, req);
        A = install_fd(t, abi::FileClass::kSocket, idx);
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        block_current(chan(kChanSockAccept, fd->obj));
        A = abi::kEagain;
      }
      break;
    }
    case abi::kKsvcSockConnect: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
        break;
      }
      Socket& s = sockets_[fd->obj];
      if (s.connected) {
        A = 0;
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        if (!s.conn_pending) {
          s.conn_pending = true;
          s.port = static_cast<u16>(C);
          u32 sock_id = fd->obj;
          events_.schedule_at(
              vcpu.cycles() + config_.net_rtt, [this, sock_id] {
                io_->nic_rx({Packet::kConnAck, sock_id, 0});
              });
        }
        block_current(chan(kChanSockConn, fd->obj));
        A = abi::kEagain;
      }
      break;
    }
    case abi::kKsvcSockSend: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
        break;
      }
      counters_.net_bytes_sent += C;
      if (send_responder_) send_responder_(*this, fd->obj, C);
      A = C;
      break;
    }
    case abi::kKsvcSockRecv: {
      Fd* fd = fd_ref(B);
      if (fd == nullptr) {
        A = kEbadf;
        break;
      }
      Socket& s = sockets_[fd->obj];
      if (!s.rx.empty()) {
        A = s.rx.front();
        s.rx.pop_front();
        counters_.net_bytes_received += A;
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        block_current(chan(kChanSockRecv, fd->obj));
        A = abi::kEagain;
      }
      break;
    }
    case abi::kKsvcSockProto: {
      Fd* fd = fd_ref(B);
      A = (fd == nullptr) ? 0 : sockets_[fd->obj].proto;
      break;
    }

    // --- processes ------------------------------------------------------------
    case abi::kKsvcFork:
      ksvc_fork(vcpu, /*is_clone=*/false);
      break;
    case abi::kKsvcClone:
      ksvc_fork(vcpu, /*is_clone=*/true);
      break;
    case abi::kKsvcExecve:
      ksvc_execve(vcpu);
      break;
    case abi::kKsvcExit: {
      close_fds(t);
      t.state = abi::TaskState::kZombie;
      t.wait_channel = 0;
      t.model.reset();
      sync_task_to_guest(t);
      wake_channel(chan(kChanChildExit, t.parent));
      A = 0;
      break;
    }
    case abi::kKsvcWait: {
      i32 found = -1;
      bool any_child = false;
      for (TaskRt& child : tasks_) {
        if (!child.used || child.parent != t.pid) continue;
        any_child = true;
        if (child.state == abi::TaskState::kZombie) {
          found = static_cast<i32>(child.pid);
          child.state = abi::TaskState::kDead;
          sync_task_to_guest(child);
          release_task_memory(child);
          child.used = false;
          pid_slot_.erase(child.pid);
          break;
        }
      }
      if (found >= 0) {
        A = static_cast<u32>(found);
      } else if (!any_child) {
        A = kEchild;
      } else if (signal_pending(t)) {
        A = kEintr;
      } else {
        block_current(chan(kChanChildExit, t.pid));
        A = abi::kEagain;
      }
      break;
    }
    case abi::kKsvcGetpid:
      A = t.pid;
      break;
    case abi::kKsvcBrk:
      t.brk += B;
      A = t.brk;
      break;
    case abi::kKsvcMmap: {
      A = t.brk;
      t.brk += align_up(B == 0 ? kPageSize : B, kPageSize);
      break;
    }
    case abi::kKsvcUname:
      A = 0;
      break;
    case abi::kKsvcTime:
      A = 1'400'000'000u + static_cast<u32>(jiffies_ / kHz);
      break;
    case abi::kKsvcNanosleep: {
      if (t.sleep_until != 0 && jiffies_ >= t.sleep_until) {
        t.sleep_until = 0;
        A = 0;
      } else if (signal_pending(t)) {
        t.sleep_until = 0;
        A = kEintr;
      } else {
        if (t.sleep_until == 0)
          t.sleep_until = jiffies_ + std::max<u32>(1, B);
        block_current(chan(kChanSleep, t.pid));
        A = abi::kEagain;
      }
      break;
    }

    // --- signals / timers -------------------------------------------------------
    case abi::kKsvcSignalReg:
      if (B < 32) t.sighandler[B] = C;
      A = 0;
      break;
    case abi::kKsvcKill: {
      auto it = pid_slot_.find(B);
      if (it == pid_slot_.end()) {
        A = kEsrch;
      } else {
        queue_signal(tasks_[it->second], C);
        A = 0;
      }
      break;
    }
    case abi::kKsvcSetitimer:
      t.itimer_deadline = jiffies_ + std::max<u32>(1, B);
      t.itimer_interval = B;
      A = 0;
      break;
    case abi::kKsvcAlarm:
      t.itimer_deadline = jiffies_ + std::max<u32>(1, B);
      t.itimer_interval = 0;
      A = 0;
      break;
    case abi::kKsvcSigreturn:
      t.snap = t.sig_saved;
      t.in_sighandler = false;
      t.in_syscall = false;
      A = 0;
      break;

    // --- modules -------------------------------------------------------------
    case abi::kKsvcModuleInit:
      ksvc_module_init(vcpu);
      break;
    case abi::kKsvcModuleDelete: {
      for (auto it = loaded_modules_.begin(); it != loaded_modules_.end();
           ++it) {
        if (it->name == module_registry_.at(B).name) {
          // Unlink from the guest list if still visible.
          if (!it->hidden) {
            GVirt prev = 0;
            GVirt node = kread32(m, abi::kModuleListAddr);
            while (node != 0 && node != it->list_node) {
              prev = node;
              node = kread32(m, node + abi::ModuleNode::kNext);
            }
            if (node == it->list_node) {
              u32 next = kread32(m, node + abi::ModuleNode::kNext);
              if (prev == 0)
                kwrite32(m, abi::kModuleListAddr, next);
              else
                kwrite32(m, prev + abi::ModuleNode::kNext, next);
            }
          }
          loaded_modules_.erase(it);
          break;
        }
      }
      A = 0;
      break;
    }
    case abi::kKsvcModuleHide: {
      // B = any address inside the module to hide.
      for (LoadedModule& mod : loaded_modules_) {
        if (B >= mod.base && B < mod.base + mod.size && !mod.hidden) {
          GVirt prev = 0;
          GVirt node = kread32(m, abi::kModuleListAddr);
          while (node != 0 && node != mod.list_node) {
            prev = node;
            node = kread32(m, node + abi::ModuleNode::kNext);
          }
          if (node == mod.list_node) {
            u32 next = kread32(m, node + abi::ModuleNode::kNext);
            if (prev == 0)
              kwrite32(m, abi::kModuleListAddr, next);
            else
              kwrite32(m, prev + abi::ModuleNode::kNext, next);
          }
          mod.hidden = true;
        }
      }
      A = 0;
      break;
    }
    case abi::kKsvcRkLog:
      ++counters_.rootkit_log_events;
      A = 0;
      break;

    default:
      FC_UNREACHABLE(<< "unknown KSVC service " << service);
  }
}

// ---------------------------------------------------------------------------
// Scheduler KSVCs.
// ---------------------------------------------------------------------------

void OsRuntime::ksvc_sched_decide(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  TaskRt& cur = current();

  u32 next_slot = 0xFFFFFFFFu;
  for (u32 i = 1; i <= abi::Task::kMaxTasks; ++i) {
    u32 cand = (rr_cursor_ + i) % abi::Task::kMaxTasks;
    if (cand == 0 || cand == current_) continue;
    if (tasks_[cand].used &&
        tasks_[cand].state == abi::TaskState::kRunnable) {
      next_slot = cand;
      break;
    }
  }

  bool cur_eligible = cur.state == abi::TaskState::kRunning ||
                      cur.state == abi::TaskState::kRunnable;
  if (next_slot == 0xFFFFFFFFu) {
    if (cur_eligible || current_ == 0) {
      // Keep running (or keep idling).
      kwrite32(hv_->machine(), abi::kNeedReschedAddr, 0);
      regs[Reg::A] = 0;
      return;
    }
    next_slot = 0;  // idle
  }

  rr_cursor_ = next_slot;
  if (cur.state == abi::TaskState::kRunning)
    cur.state = abi::TaskState::kRunnable;
  sync_task_to_guest(cur);
  tasks_[next_slot].state = abi::TaskState::kRunning;
  sync_task_to_guest(tasks_[next_slot]);
  kwrite32(hv_->machine(), abi::kNeedReschedAddr, 0);
  regs[Reg::A] = abi::Task::addr(next_slot);
  regs[Reg::B] = abi::Task::addr(next_slot);
}

void OsRuntime::ksvc_switch_to(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  u32 next_slot = abi::Task::slot_of(regs[Reg::B]);
  FC_CHECK(next_slot < abi::Task::kMaxTasks && tasks_[next_slot].used,
           << "switch to bad task");
  TaskRt& old = current();
  old.saved_sp = regs[Reg::SP];
  old.saved_fp = regs[Reg::FP];
  old.saved_gpr = regs.gpr;
  old.saved_if = regs.interrupts_enabled;
  // Mirror the kernel continuation into the guest task struct (as Linux's
  // switch_to leaves thread.sp there) — the hypervisor's cross-view stack
  // scan reads it via VMI.
  mem::Machine& m = hv_->machine();
  kwrite32(m, abi::Task::addr(old.slot) + abi::Task::kSavedSp, old.saved_sp);
  kwrite32(m, abi::Task::addr(old.slot) + abi::Task::kSavedFp, old.saved_fp);

  set_current(next_slot);
  TaskRt& next = tasks_[next_slot];
  vcpu.set_cr3(next.cr3);
  regs.gpr = next.saved_gpr;
  regs[Reg::SP] = next.saved_sp;
  regs[Reg::FP] = next.saved_fp;
  regs.interrupts_enabled = next.saved_if;
  ++counters_.context_switches;
}

void OsRuntime::ksvc_prepare_resume(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  TaskRt& t = current();
  FC_CHECK(t.slot != 0, << "idle task cannot resume to user space");

  if (t.in_syscall) {
    t.snap.gpr[static_cast<u8>(Reg::A)] = t.sys_retval;
    t.in_syscall = false;
  }

  // Signal delivery (do_signal's job): redirect the resume to a registered
  // handler; sigreturn will restore the saved context.
  if (!t.in_sighandler && t.pending_sigs != 0) {
    for (u32 sig = 0; sig < 32; ++sig) {
      if ((t.pending_sigs & (1u << sig)) && t.sighandler[sig] != 0) {
        t.pending_sigs &= ~(1u << sig);
        t.sig_saved = t.snap;
        t.in_sighandler = true;
        t.snap.pc = t.sighandler[sig];
        t.snap.gpr[static_cast<u8>(Reg::B)] = sig;
        break;
      }
    }
  }

  for (int r = 0; r < isa::kNumRegs; ++r) {
    if (r == static_cast<int>(Reg::SP)) continue;
    regs.gpr[r] = t.snap.gpr[r];
  }
  mem::Mmu& mmu = vcpu.mmu();
  GVirt ktop = t.kstack_top;
  mmu.write32(ktop - 12, t.snap.pc);
  mmu.write32(ktop - 8, t.snap.sp);
  mmu.write32(ktop - 4,
              cpu::FlagsWord::pack(cpu::Mode::kUser, false, true));
  regs[Reg::SP] = ktop - 12;
}

// ---------------------------------------------------------------------------
// File KSVCs.
// ---------------------------------------------------------------------------

void OsRuntime::ksvc_file_read(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  u32& A = regs[Reg::A];
  const u32 B = regs[Reg::B];
  const u32 C = std::max<u32>(1, regs[Reg::C]);
  TaskRt& t = current();
  if (B >= t.fds.size() || !t.fds[B].open) {
    A = kEbadf;
    return;
  }
  Fd& fd = t.fds[B];
  auto signal_pending = [&] {
    for (u32 s = 0; s < 32; ++s)
      if (t.sighandler[s] != 0 && (t.pending_sigs & (1u << s))) return true;
    return false;
  };

  switch (fd.cls) {
    case abi::FileClass::kExt4: {
      bool need_disk =
          fd.offset == 0 || ((fd.offset >> 16) != ((fd.offset + C) >> 16));
      if (need_disk && !t.disk_ready) {
        u32 pid = t.pid;
        events_.schedule_at(vcpu.cycles() + config_.disk_latency,
                            [this, pid] { io_->blk_complete(pid); });
        block_current(chan(kChanDisk, pid));
        A = abi::kEagain;
        return;
      }
      t.disk_ready = false;
      fd.offset += C;
      counters_.fs_bytes_read += C;
      A = C;
      return;
    }
    case abi::FileClass::kProc:
      counters_.fs_bytes_read += C;
      A = std::min<u32>(C, 4096);
      return;
    case abi::FileClass::kPipe: {
      Pipe& p = pipes_[fd.obj];
      if (p.bytes == 0) {
        if (signal_pending()) {
          A = kEintr;
        } else {
          block_current(chan(kChanPipe, fd.obj));
          A = abi::kEagain;
        }
        return;
      }
      u32 take = std::min(C, p.bytes);
      p.bytes -= take;
      A = take;
      return;
    }
    case abi::FileClass::kTty: {
      if (tty_input_available_ == 0) {
        if (signal_pending()) {
          A = kEintr;
        } else {
          block_current(chan(kChanTty, 0));
          A = abi::kEagain;
        }
        return;
      }
      u32 take = std::min(C, tty_input_available_);
      tty_input_available_ -= take;
      A = take;
      return;
    }
    case abi::FileClass::kSocket: {
      Socket& s = sockets_[fd.obj];
      if (!s.rx.empty()) {
        A = s.rx.front();
        s.rx.pop_front();
        counters_.net_bytes_received += A;
      } else if (signal_pending()) {
        A = kEintr;
      } else {
        block_current(chan(kChanSockRecv, fd.obj));
        A = abi::kEagain;
      }
      return;
    }
    case abi::FileClass::kBad:
      A = kEbadf;
      return;
  }
}

void OsRuntime::ksvc_file_write(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  u32& A = regs[Reg::A];
  const u32 B = regs[Reg::B];
  const u32 C = std::max<u32>(1, regs[Reg::C]);
  TaskRt& t = current();
  if (B >= t.fds.size() || !t.fds[B].open) {
    A = kEbadf;
    return;
  }
  Fd& fd = t.fds[B];
  switch (fd.cls) {
    case abi::FileClass::kExt4:
      fd.offset += C;
      counters_.fs_bytes_written += C;
      A = C;
      return;
    case abi::FileClass::kProc:
      A = C;
      return;
    case abi::FileClass::kPipe:
      pipes_[fd.obj].bytes += C;
      wake_channel(chan(kChanPipe, fd.obj));
      A = C;
      return;
    case abi::FileClass::kTty:
      counters_.tty_bytes_written += C;
      A = C;
      return;
    case abi::FileClass::kSocket:
      counters_.net_bytes_sent += C;
      if (send_responder_) send_responder_(*this, fd.obj, C);
      A = C;
      return;
    case abi::FileClass::kBad:
      A = kEbadf;
      return;
  }
}

// ---------------------------------------------------------------------------
// fork / execve.
// ---------------------------------------------------------------------------

void OsRuntime::ksvc_fork(Vcpu& vcpu, bool is_clone) {
  (void)is_clone;  // same mechanics; differs only in the guest code path
  auto& regs = vcpu.regs();
  TaskRt& parent = current();
  u32 child_slot = create_task_common(parent.comm);
  TaskRt& child = tasks_[child_slot];
  TaskRt& p = current();  // re-resolve: create_task_common may not move, but be explicit

  // Copy all user segments (code + stack + injected pages) into fresh
  // frames; the child must be able to diverge (infections are per-process).
  mem::Machine& m = hv_->machine();
  for (const UserSeg& seg : p.user_segs) {
    bool is_stack = seg.va == kUserStackTop - 4 * kPageSize;
    if (is_stack) {
      // create_task_common already allocated + mapped the child stack.
      std::vector<u8> buf(seg.pages * kPageSize);
      m.pread_bytes(seg.pa, buf);
      auto pa = user_va_to_pa(child, seg.va);
      FC_CHECK(pa.has_value(), << "child stack missing");
      m.pwrite_bytes(*pa, buf);
      continue;
    }
    GPhys np = alloc_user_pages(seg.pages);
    std::vector<u8> buf(seg.pages * kPageSize);
    m.pread_bytes(seg.pa, buf);
    m.pwrite_bytes(np, buf);
    map_user(child, seg.va, seg.pages, np);
  }

  child.program = p.program;
  child.snap = p.snap;
  child.in_syscall = true;
  child.sys_retval = 0;  // fork returns 0 in the child
  child.brk = p.brk;
  child.inject_cursor = p.inject_cursor;
  child.fds = p.fds;
  for (const Fd& fd : child.fds) fd_addref(fd);
  child.sighandler = p.sighandler;
  child.model = p.model ? p.model->fork_child() : nullptr;
  child.parent = p.pid;
  child.comm = p.comm;

  fabricate_switch_frame(m, child.kstack_top,
                         kernel_.symbols.must_addr("ret_from_fork"),
                         &child.saved_sp, &child.saved_fp);
  child.saved_if = false;
  child.state = abi::TaskState::kRunnable;
  sync_task_to_guest(child);
  kwrite32(m, abi::Task::addr(child.slot) + abi::Task::kSavedSp,
           child.saved_sp);
  kwrite32(m, abi::Task::addr(child.slot) + abi::Task::kSavedFp,
           child.saved_fp);
  kwrite32(m, abi::kNeedReschedAddr, 1);
  ++counters_.forks;
  regs[Reg::A] = child.pid;
}

void OsRuntime::ksvc_execve(Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  const u32 id = regs[Reg::B];
  FC_CHECK(id < binaries_.size(), << "execve: bad binary id " << id);
  TaskRt& t = current();
  const Binary& bin = binaries_[id].second;

  // Fresh code pages mapped over the code region.
  u32 code_pages =
      align_up(static_cast<u32>(bin.program.code.size()), kPageSize) /
          kPageSize +
      1;
  GPhys code_pa = alloc_user_pages(code_pages);
  // Replace any existing mapping of the code region.
  for (auto it = t.user_segs.begin(); it != t.user_segs.end();) {
    if (it->va == kUserCodeVa)
      it = t.user_segs.erase(it);
    else
      ++it;
  }
  map_user(t, kUserCodeVa, code_pages, code_pa);
  hv_->machine().pwrite_bytes(code_pa, bin.program.code);

  t.program = bin.program;
  t.model = bin.factory ? bin.factory() : nullptr;
  t.comm = binaries_[id].first.substr(0, abi::Task::kCommLen - 1);
  t.snap = Snapshot{};
  t.snap.pc = bin.program.entry_va();
  t.snap.sp = kUserStackTop;
  sync_task_to_guest(t);
  regs[Reg::A] = 0;
}

// ---------------------------------------------------------------------------
// Timer tick (guest context, interrupt).
// ---------------------------------------------------------------------------

void OsRuntime::handle_timer_tick() {
  mem::Machine& m = hv_->machine();
  ++jiffies_;
  kwrite32(m, abi::kJiffiesAddr, static_cast<u32>(jiffies_));

  TaskRt& cur = current();
  if (cur.slot != 0) {
    if (cur.quantum_left > 0) --cur.quantum_left;
    if (cur.quantum_left == 0) {
      cur.quantum_left = config_.quantum_ticks;
      kwrite32(m, abi::kNeedReschedAddr, 1);
    }
  } else {
    // The idle task re-checks the runqueue every tick: a wakeup can race
    // with an in-flight schedule() (the woken task becomes runnable after
    // pick_next_task chose the idle task but before __switch_to ran), and
    // without this re-check the flag would stay clear forever.
    for (const TaskRt& t : tasks_) {
      if (t.used && t.slot != 0 && t.state == abi::TaskState::kRunnable) {
        kwrite32(m, abi::kNeedReschedAddr, 1);
        break;
      }
    }
  }

  for (TaskRt& t : tasks_) {
    if (!t.used) continue;
    if (t.sleep_until != 0 && jiffies_ >= t.sleep_until &&
        t.state == abi::TaskState::kBlocked &&
        t.wait_channel == chan(kChanSleep, t.pid)) {
      wake_channel(chan(kChanSleep, t.pid));
    }
    if (t.itimer_deadline != 0 && jiffies_ >= t.itimer_deadline) {
      t.itimer_deadline =
          t.itimer_interval != 0 ? jiffies_ + t.itimer_interval : 0;
      queue_signal(t, kSigAlrm);
    }
  }
}

// ---------------------------------------------------------------------------
// Devices / traffic.
// ---------------------------------------------------------------------------

void OsRuntime::apply_packet(const Packet& pkt) {
  // kDatagram/kSyn select by port (the low 16 bits of sel); kData/kConnAck
  // by socket id.
  const u16 port = static_cast<u16>(pkt.sel);
  switch (pkt.kind) {
    case Packet::kDatagram:
      for (u32 i = 0; i < sockets_.size(); ++i) {
        Socket& s = sockets_[i];
        if (s.used && s.proto == 0 && s.bound && s.port == port) {
          s.rx.push_back(pkt.len);
          wake_channel(chan(kChanSockRecv, i));
          return;
        }
      }
      return;  // no listener: dropped
    case Packet::kSyn:
      for (u32 i = 0; i < sockets_.size(); ++i) {
        Socket& s = sockets_[i];
        if (s.used && s.proto == 1 && s.listening && s.port == port) {
          s.accept_queue.push_back(pkt.len);
          wake_channel(chan(kChanSockAccept, i));
          return;
        }
      }
      return;
    case Packet::kData:
      if (pkt.sel < sockets_.size() && sockets_[pkt.sel].used) {
        sockets_[pkt.sel].rx.push_back(pkt.len);
        wake_channel(chan(kChanSockRecv, pkt.sel));
      }
      return;
    case Packet::kConnAck:
      if (pkt.sel < sockets_.size() && sockets_[pkt.sel].used) {
        sockets_[pkt.sel].connected = true;
        sockets_[pkt.sel].conn_pending = false;
        wake_channel(chan(kChanSockConn, pkt.sel));
      }
      return;
    default:
      return;  // unknown kind: dropped
  }
}

void OsRuntime::schedule_datagram(Cycles at, u16 port, u32 len) {
  events_.schedule_at(at, [this, port, len] {
    io_->nic_rx({Packet::kDatagram, port, len});
  });
}

void OsRuntime::schedule_connection(Cycles at, u16 port, u32 request_len) {
  events_.schedule_at(at, [this, port, request_len] {
    io_->nic_rx({Packet::kSyn, port, request_len});
  });
}

void OsRuntime::schedule_stream_data(Cycles at, u32 sock_id, u32 len) {
  events_.schedule_at(at, [this, sock_id, len] {
    io_->nic_rx({Packet::kData, sock_id, len});
  });
}

void OsRuntime::schedule_datagram_stream(Cycles start, Cycles gap, u32 count,
                                         u16 port, u32 len) {
  if (count == 0) return;
  events_.schedule_at(start, [this, start, gap, count, port, len] {
    io_->nic_rx({Packet::kDatagram, port, len});
    // Reschedule off the *scheduled* time, not the fire time, so the
    // arrival process stays exactly open-loop even when the guest falls
    // behind and events fire late.
    schedule_datagram_stream(start + gap, gap, count - 1, port, len);
  });
}

void OsRuntime::bump_responses() {
  ++counters_.responses_completed;
  if (response_log_ != nullptr)
    response_log_->push_back(hv_->vcpu().cycles());
}

void OsRuntime::schedule_keystrokes(Cycles start, Cycles period, u32 count) {
  for (u32 i = 0; i < count; ++i) {
    events_.schedule_at(start + static_cast<Cycles>(i) * period, [this] {
      ++tty_pending_keys_;
      hv_->vcpu().raise_irq(abi::kIrqTty);
    });
  }
}

// ---------------------------------------------------------------------------
// Modules.
// ---------------------------------------------------------------------------

u32 OsRuntime::register_module(ModuleSpec spec) {
  module_registry_.push_back(std::move(spec));
  return static_cast<u32>(module_registry_.size() - 1);
}

void OsRuntime::ksvc_module_init(cpu::Vcpu& vcpu) {
  auto& regs = vcpu.regs();
  const u32 id = regs[Reg::B];
  FC_CHECK(id < module_registry_.size(), << "bad module id " << id);
  load_module_now(id);
  regs[Reg::A] = 0;
}

void OsRuntime::load_module_now(u32 module_id) {
  const ModuleSpec& spec = module_registry_.at(module_id);
  mem::Machine& m = hv_->machine();

  GVirt base = align_up(module_arena_cursor_, kPageSize);
  ModuleImage img;
  if (const ModuleImage* cached =
          shared_boot_ != nullptr ? shared_boot_->find_module(spec.name, base)
                                  : nullptr;
      cached != nullptr) {
    img = *cached;
  } else {
    img = KernelBuilder::build_module(spec.blueprint, spec.name, base,
                                      kernel_.symbols);
  }
  FC_CHECK(base + img.text.size() <=
               GuestLayout::kernel_va(kModuleArenaLimit),
           << "module arena exhausted");
  module_arena_cursor_ = base + align_up(static_cast<u32>(img.text.size()),
                                         kPageSize);

  // Module text goes to the pristine (boot) frames: this is what the
  // recovery engine fetches from.
  kwrite_bytes_boot(m, base, img.text);

  // Guest module list node.
  GPhys node_pa = alloc_heap_pages(1);
  GVirt node = GuestLayout::kernel_va(node_pa);
  kwrite32(m, node + abi::ModuleNode::kNext, kread32(m, abi::kModuleListAddr));
  kwrite32(m, node + abi::ModuleNode::kBase, base);
  kwrite32(m, node + abi::ModuleNode::kSizeField,
           static_cast<u32>(img.text.size()));
  for (u32 i = 0; i < abi::ModuleNode::kNameLen; ++i) {
    u8 c = i < spec.name.size() ? static_cast<u8>(spec.name[i]) : 0;
    m.pwrite8(GuestLayout::kernel_pa(node + abi::ModuleNode::kName + i), c);
  }
  kwrite32(m, abi::kModuleListAddr, node);

  LoadedModule rec;
  rec.name = spec.name;
  rec.base = base;
  rec.size = static_cast<u32>(img.text.size());
  rec.list_node = node;
  loaded_modules_.push_back(rec);
  loaded_module_images_.push_back(img);

  if (spec.publish_symbols)
    hv_->vmi().register_module_symbols(spec.name, img.symbols_rel);

  // Park the init entry in the last syscall-table slot (called by
  // sys_init_module as guest code); default to a no-op.
  GVirt init = kernel_.symbols.must_addr("sys_ni_syscall");
  if (!spec.init_symbol.empty())
    init = base + img.symbols_rel.must_addr(spec.init_symbol);
  kwrite32(m, abi::kSyscallTableAddr + (abi::kSyscallTableSlots - 1) * 4,
           init);

  if (spec.on_load) spec.on_load(*this, img);
}

std::optional<hv::ModuleInfo> OsRuntime::loaded_module(
    const std::string& name) const {
  for (const LoadedModule& mod : loaded_modules_) {
    if (mod.name == name) return hv::ModuleInfo{mod.name, mod.base, mod.size};
  }
  return {};
}

}  // namespace fc::os
