// The guest OS runtime: C++ half of "minos".
//
// All control flow — syscall dispatch, scheduler, blocking loops, interrupt
// handlers — runs as guest code built from the blueprint; this class
// implements the leaf semantics (KSVC instructions), the device models
// (timer, NIC, disk, tty), and process lifecycle, mirroring the kernel's
// authoritative state into guest memory where the paper's VMI expects it
// (current task pointer, task structs, module list, irq count).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hv/event_queue.hpp"
#include "hv/guest_abi.hpp"
#include "hv/hypervisor.hpp"
#include "io/io_plane.hpp"
#include "os/app_model.hpp"
#include "os/kbuilder.hpp"
#include "os/kernel_image.hpp"
#include "os/user_program.hpp"

namespace fc::os {

struct OsConfig {
  Cycles timer_period = 400'000;  // 4 ms at the nominal 100 MHz
  u32 quantum_ticks = 2;
  u32 clocksource = 0;       // 0 = tsc (QEMU profiling), 1 = kvm-clock (KVM)
  Cycles disk_latency = 120'000;
  Cycles net_rtt = 60'000;
  /// IO data-plane tuning. The ring arena is initialized at boot with the
  /// same layout regardless of these knobs (so the memoized boot image is
  /// shared across tunings); only runtime delivery behaviour differs. The
  /// defaults are the parity tuning: one IRQ per published completion
  /// (see src/io/io_plane.hpp).
  io::IoTuning io;
};

/// Registered on-disk/in-proc files the guest can open by path id.
struct FsFileSpec {
  abi::FileClass cls = abi::FileClass::kExt4;
  u32 size = 1 << 20;
  std::string name;
};

/// Well-known path ids preregistered at boot.
enum WellKnownPath : u32 {
  kPathEtcConf = 1,     // ext4
  kPathDataFile = 2,    // ext4 (bulk data)
  kPathLogFile = 3,     // ext4 (written)
  kPathProcStat = 4,    // procfs
  kPathProcMeminfo = 5, // procfs
  kPathDevTty = 6,      // tty
  kPathIndexHtml = 7,   // ext4 (served by apache)
  kPathDbFile = 8,      // ext4 (mysqld)
  kPathHiddenLog = 9,   // ext4 (rootkit keystroke log)
  kPathMediaFile = 10,  // ext4 (totem/eog)
  kPathFirstFree = 32,
};

/// Prebuilt boot artifacts captured from a template boot. A clone OsRuntime
/// constructed with one skips kernel/module assembly (the expensive part of
/// boot) and takes byte-identical copies instead; all guest-memory writes it
/// then replays are same-value no-ops against the shared machine image (see
/// mem::HostMemory), so clones keep sharing the template's frames.
struct SharedBoot {
  KernelImage kernel;
  /// Module images the template built, keyed by (name, link base).
  std::vector<ModuleImage> modules;

  const ModuleImage* find_module(const std::string& name, GVirt base) const {
    for (const ModuleImage& img : modules)
      if (img.name == name && img.base == base) return &img;
    return nullptr;
  }
};

class OsRuntime : public cpu::CpuEnv {
 public:
  OsRuntime(hv::Hypervisor& hv, OsConfig config = {},
            const SharedBoot* shared = nullptr);
  ~OsRuntime() override;

  /// Build the kernel, write it into guest memory, set up page tables, IDT,
  /// syscall table, the idle task, the timer, and the stock e1000 module.
  /// With a SharedBoot the kernel and module images are reused instead of
  /// rebuilt (byte-identical by the sharedimage regression test).
  void boot();

  const KernelImage& kernel() const { return kernel_; }
  hv::Hypervisor& hypervisor() { return *hv_; }
  hv::EventQueue& events() { return events_; }
  const OsConfig& config() const { return config_; }

  // --- process lifecycle -------------------------------------------------
  u32 spawn(const std::string& comm, std::shared_ptr<AppModel> model,
            ProgramImage program = build_standard_loop());
  bool task_alive(u32 pid) const;
  bool task_zombie_or_dead(u32 pid) const;
  u32 current_pid() const;

  /// Register an execve target: name → (program, model factory).
  void register_binary(const std::string& name, ProgramImage program,
                       std::function<std::shared_ptr<AppModel>()> factory);
  u32 binary_id(const std::string& name) const;
  bool has_binary(const std::string& name) const;

  // --- attack surface for the malware framework ---------------------------
  /// Write code into a victim's address space; returns where it landed.
  GVirt inject_code(u32 pid, std::span<const u8> code);
  /// Redirect the victim's next user-space resume to `pc` (the classic
  /// hijacked-EIP online infection).
  void detour(u32 pid, GVirt pc);
  /// Where the next inject_code() for this pid will land (shellcode needs
  /// its own base address to encode absolute jumps back to the host code).
  GVirt next_inject_addr(u32 pid) const { return task(pid).inject_cursor; }
  GVirt task_entry_va(u32 pid) const;
  /// Queue a signal from outside the guest (used by some scenarios).
  void post_signal(u32 pid, u32 sig);
  /// Host-side forced termination (what a hypervisor does to a faulted
  /// process): works even on the currently-running task, in which case the
  /// CPU is handed back to the idle loop.
  void terminate_task(u32 pid);

  // --- kernel modules ------------------------------------------------------
  struct ModuleSpec {
    std::string name;
    Blueprint blueprint;
    std::string init_symbol;      // "" = no guest-side init
    bool publish_symbols = true;  // register with VMI (rootkits may still
                                  // hide themselves later at runtime)
    /// Host-side load hook (e.g. register an IRQ handler slot). Runs at
    /// load for both guest-initiated and host-initiated loads, with the
    /// relocated module image.
    std::function<void(OsRuntime&, const ModuleImage&)> on_load;
  };
  /// Register a module; returns the id an insmod process passes to
  /// sys_init_module (reg B).
  u32 register_module(ModuleSpec spec);
  /// Host-side load (used at boot for stock drivers and by tests).
  void load_module_now(u32 module_id);
  /// Loaded-module lookup (host-side truth, even if hidden from the guest).
  std::optional<hv::ModuleInfo> loaded_module(const std::string& name) const;
  /// The relocated image of every module load this boot, in load order and
  /// not pruned on delete (host-side truth; feeds the static call-graph
  /// analyzer, which wants the code as it was when it entered memory).
  const std::vector<ModuleImage>& loaded_module_images() const {
    return loaded_module_images_;
  }

  // --- devices / traffic ---------------------------------------------------
  void schedule_datagram(Cycles at, u16 port, u32 len);
  void schedule_connection(Cycles at, u16 port, u32 request_len);
  void schedule_stream_data(Cycles at, u32 sock_id, u32 len);
  void schedule_keystrokes(Cycles start, Cycles period, u32 count);
  /// Open-loop datagram generator: `count` arrivals at exactly `start`,
  /// `start + gap`, ... Self-rescheduling, so the event-queue depth stays
  /// O(1) no matter the rate (the saturation benches drive hundreds of
  /// thousands of arrivals through this).
  void schedule_datagram_stream(Cycles start, Cycles gap, u32 count, u16 port,
                                u32 len);
  /// The virtio-style data plane (valid after boot()). Every packet and
  /// disk completion reaches the guest through its rings.
  io::IoPlane* io_plane() { return io_.get(); }
  /// Called whenever the guest sends on a connected socket; may schedule
  /// reply traffic. (The "other end" of every connection.)
  using SendResponder = std::function<void(OsRuntime&, u32 sock_id, u32 len)>;
  void set_send_responder(SendResponder responder) {
    send_responder_ = std::move(responder);
  }

  // --- introspection for tests and benches --------------------------------
  struct IoCounters {
    u64 tty_bytes_written = 0;
    u64 fs_bytes_written = 0;
    u64 fs_bytes_read = 0;
    u64 net_bytes_sent = 0;
    u64 net_bytes_received = 0;
    u64 responses_completed = 0;  // bumped by apache-style models
    u64 rootkit_log_events = 0;
    u64 syscalls = 0;
    u64 context_switches = 0;
    u64 forks = 0;
  };
  IoCounters& counters() { return counters_; }
  void bump_responses();
  /// Record the completion cycle of every bump_responses() into `log`
  /// (null disables). The open-loop benches pair these with their known
  /// arrival schedule to compute response-latency percentiles.
  void set_response_log(std::vector<Cycles>* log) { response_log_ = log; }

  u32 fds_class(u32 pid, u32 fd) const;  // test helper
  u32 register_file(FsFileSpec spec);
  u64 jiffies() const { return jiffies_; }
  /// One line per live task: slot/pid/comm/state/wait-channel (debugging).
  std::string debug_tasks() const;

  // --- CpuEnv --------------------------------------------------------------
  void on_ksvc(u16 service, cpu::Vcpu& vcpu) override;
  void on_app_step(cpu::Vcpu& vcpu) override;
  bool on_idle(cpu::Vcpu& vcpu) override;

 private:
  struct Pipe {
    u32 bytes = 0;
    bool used = false;
    u32 refs = 0;
  };
  struct Socket {
    bool used = false;
    u32 refs = 0;
    u32 proto = 0;  // 0 udp, 1 tcp
    bool bound = false, listening = false, connected = false;
    bool conn_pending = false;
    u16 port = 0;
    std::deque<u32> rx;            // received chunk sizes
    std::deque<u32> accept_queue;  // pending connections (request sizes)
    u32 owner = 0;
  };
  struct Fd {
    bool open = false;
    abi::FileClass cls = abi::FileClass::kBad;
    u32 obj = 0;  // file path id / pipe id / socket id / tty id
    u32 offset = 0;
    bool readable_dir = false;
  };
  struct UserSeg {
    GVirt va;
    u32 pages;
    GPhys pa;
  };
  struct Snapshot {
    std::array<u32, 8> gpr{};
    GVirt pc = 0;
    u32 sp = 0;
  };
  struct TaskRt {
    bool used = false;
    u32 slot = 0;
    u32 pid = 0;
    std::string comm;
    abi::TaskState state = abi::TaskState::kUnused;
    GPhys cr3 = 0;
    GVirt kstack_top = 0;
    // User context snapshot (authoritative; PREPARE_RESUME restores it).
    Snapshot snap;
    Snapshot sig_saved;
    bool in_sighandler = false;
    bool in_syscall = false;
    u32 sys_retval = 0;
    // Kernel continuation (saved by __switch_to). The full register file
    // is preserved, as real switch_to does for callee-saved registers —
    // blocked syscalls keep their arguments across the switch.
    u32 saved_sp = 0, saved_fp = 0;
    std::array<u32, 8> saved_gpr{};
    bool saved_if = false;
    // Blocking.
    u64 wait_channel = 0;
    bool disk_ready = false;
    u64 sleep_until = 0;  // jiffies
    // Files / signals / timers.
    std::vector<Fd> fds;
    std::array<GVirt, 32> sighandler{};
    u32 pending_sigs = 0;
    u64 itimer_deadline = 0;  // jiffies; 0 = off
    u32 itimer_interval = 0;  // ticks; 0 = one-shot
    // Program / model.
    std::shared_ptr<AppModel> model;
    ProgramImage program;
    std::vector<UserSeg> user_segs;
    std::vector<GPhys> table_pages;  // page-directory + page-table pages
    GVirt inject_cursor = kUserInjectVa;
    GVirt brk = kUserHeapVa;
    u32 parent = 0;
    u32 quantum_left = 0;
  };

  // --- helpers -------------------------------------------------------------
  TaskRt& task(u32 pid);
  const TaskRt& task(u32 pid) const;
  TaskRt& current() { return tasks_[current_]; }
  void sync_task_to_guest(const TaskRt& t);
  void set_current(u32 pid);
  void pump_events(cpu::Vcpu& vcpu);
  void wake_channel(u64 channel);
  void block_current(u64 channel);
  static u64 chan(u32 kind, u32 id) {
    return (static_cast<u64>(kind) << 32) | id;
  }
  enum ChanKind : u32 {
    kChanDisk = 1,
    kChanPipe,
    kChanTty,
    kChanSockRecv,
    kChanSockAccept,
    kChanSockConn,
    kChanChildExit,
    kChanSleep,
  };

  u32 alloc_task_slot();
  GPhys alloc_user_pages(u32 count);
  GPhys alloc_heap_pages(u32 count);
  void map_user(TaskRt& t, GVirt va, u32 pages, GPhys pa);
  void write_user(const TaskRt& t, GVirt va, std::span<const u8> bytes);
  std::optional<GPhys> user_va_to_pa(const TaskRt& t, GVirt va) const;
  u32 install_fd(TaskRt& t, abi::FileClass cls, u32 obj);
  void fd_addref(const Fd& fd);
  void fd_close(Fd& fd);
  void close_fds(TaskRt& t);
  void release_task_memory(TaskRt& t);
  void queue_signal(TaskRt& t, u32 sig);
  u32 create_task_common(const std::string& comm);

  void setup_kernel_page_dir();
  void write_kernel_data_tables();
  void create_idle_task();
  void start_timer();
  void handle_timer_tick();
  /// Hand one drained NIC record to the socket layer. The record was read
  /// back from guest memory, so an unknown kind or socket id is dropped.
  void apply_packet(const io::IoPlane::Packet& pkt);

  // KSVC implementations.
  void ksvc_sched_decide(cpu::Vcpu& vcpu);
  void ksvc_switch_to(cpu::Vcpu& vcpu);
  void ksvc_prepare_resume(cpu::Vcpu& vcpu);
  void ksvc_file_read(cpu::Vcpu& vcpu);
  void ksvc_file_write(cpu::Vcpu& vcpu);
  void ksvc_fork(cpu::Vcpu& vcpu, bool is_clone);
  void ksvc_execve(cpu::Vcpu& vcpu);
  void ksvc_module_init(cpu::Vcpu& vcpu);

  hv::Hypervisor* hv_;
  OsConfig config_;
  const SharedBoot* shared_boot_ = nullptr;
  KernelImage kernel_;
  hv::EventQueue events_;
  std::unique_ptr<mem::GuestPageTableBuilder> ptb_;

  std::array<TaskRt, abi::Task::kMaxTasks> tasks_;
  std::map<u32, u32> pid_slot_;  // pid → slot (slots are recycled)
  u32 next_pid_ = 1;
  u32 current_ = 0;  // slot of the running task
  u32 rr_cursor_ = 0;
  u64 jiffies_ = 0;

  std::map<u32, FsFileSpec> files_;
  u32 next_path_id_ = kPathFirstFree;
  std::array<Pipe, 64> pipes_;
  std::array<Socket, 128> sockets_;
  u32 tty_input_available_ = 0;

  u32 tty_pending_keys_ = 0;
  SendResponder send_responder_;
  std::unique_ptr<io::IoPlane> io_;
  std::vector<Cycles>* response_log_ = nullptr;

  struct LoadedModule {
    std::string name;
    GVirt base = 0;
    u32 size = 0;
    GVirt list_node = 0;
    bool hidden = false;
  };
  std::vector<ModuleSpec> module_registry_;
  std::vector<LoadedModule> loaded_modules_;
  std::vector<ModuleImage> loaded_module_images_;
  GVirt module_arena_cursor_;

  struct Binary {
    ProgramImage program;
    std::function<std::shared_ptr<AppModel>()> factory;
  };
  std::vector<std::pair<std::string, Binary>> binaries_;

  IoCounters counters_;
  GPhys kernel_dir_ = 0;
};

}  // namespace fc::os
