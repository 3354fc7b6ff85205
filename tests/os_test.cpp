// Guest OS (minos) tests: process lifecycle, blocking I/O, pipes, signals,
// interval timers, sockets, execve, module loading/hiding, and resource
// recycling — all through the real guest code paths.
#include <gtest/gtest.h>

#include "harness/harness.hpp"

namespace fc {
namespace {

namespace abi = fc::abi;
using os::AppAction;
using os::AppModel;
using os::OsRuntime;

AppAction sys(u32 nr, u32 b = 0, u32 c = 0, u32 d = 0) {
  return AppAction::syscall(nr, b, c, d, 100);
}

/// A scriptable model: runs a fixed list of actions, then exits. Records
/// every syscall result.
class ScriptModel : public AppModel {
 public:
  explicit ScriptModel(std::vector<AppAction> script)
      : script_(std::move(script)) {}
  AppAction next(u32 last, OsRuntime&, u32) override {
    if (step_ > 0) results_.push_back(last);
    if (step_ >= script_.size()) return sys(abi::kSysExit);
    return script_[step_++];
  }
  const std::vector<u32>& results() const { return results_; }

 private:
  std::vector<AppAction> script_;
  std::size_t step_ = 0;
  std::vector<u32> results_;
};

class OsFixture : public ::testing::Test {
 protected:
  harness::GuestSystem sys_;

  std::shared_ptr<ScriptModel> run_script(std::vector<AppAction> script,
                                          const char* comm = "test") {
    auto model = std::make_shared<ScriptModel>(std::move(script));
    u32 pid = sys_.os().spawn(comm, model);
    EXPECT_NE(sys_.run_until_exit(pid, 600'000'000),
              hv::RunOutcome::kGuestFault);
    EXPECT_TRUE(sys_.os().task_zombie_or_dead(pid));
    return model;
  }
};

TEST_F(OsFixture, GetpidAndUname) {
  auto model = run_script({sys(abi::kSysGetpid), sys(abi::kSysUname)});
  ASSERT_EQ(model->results().size(), 2u);
  EXPECT_EQ(model->results()[0], 1u);  // first spawned pid
  EXPECT_EQ(model->results()[1], 0u);
}

TEST_F(OsFixture, FileOpenReadWriteClose) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathEtcConf, 0),  // → fd 3
      sys(abi::kSysRead, 3, 4096),              // disk wait, then 4096
      sys(abi::kSysWrite, 3, 512),
      sys(abi::kSysStat, os::kPathEtcConf),
      sys(abi::kSysClose, 3),
  });
  const auto& r = model->results();
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], 3u);
  EXPECT_EQ(r[1], 4096u);
  EXPECT_EQ(r[2], 512u);
  EXPECT_EQ(r[3], 0u);
  EXPECT_EQ(r[4], 0u);
  EXPECT_EQ(sys_.os().counters().fs_bytes_read, 4096u);
  EXPECT_EQ(sys_.os().counters().fs_bytes_written, 512u);
}

TEST_F(OsFixture, DiskReadsGoThroughTheInterruptPath) {
  u64 switches_before = sys_.os().counters().context_switches;
  run_script({
      sys(abi::kSysOpen, os::kPathDataFile, 0),
      sys(abi::kSysRead, 3, 65536),  // offset 0 → disk I/O → block
  });
  // Blocking on disk forces at least one switch to idle and back.
  EXPECT_GT(sys_.os().counters().context_switches, switches_before);
}

TEST_F(OsFixture, ProcReadsAreImmediate) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathProcStat, 0),
      sys(abi::kSysRead, 3, 2048),
      sys(abi::kSysGetdents, 3, 128),
  });
  EXPECT_EQ(model->results()[1], 2048u);
  EXPECT_EQ(model->results()[2], 8u);  // first scan returns entries
}

TEST_F(OsFixture, PipeRoundTrip) {
  auto model = run_script({
      sys(abi::kSysPipe),
      sys(abi::kSysWrite, 4, 256),  // wfd = 4 (rfd=3)
      sys(abi::kSysRead, 3, 4096),
  });
  const auto& r = model->results();
  EXPECT_EQ(r[0] & 0xFFFF, 3u);
  EXPECT_EQ(r[0] >> 16, 4u);
  EXPECT_EQ(r[2], 256u);  // read drained exactly what was written
}

TEST_F(OsFixture, TtyReadBlocksUntilKeystroke) {
  sys_.os().schedule_keystrokes(2'000'000, 100'000, 4);
  auto model = run_script({sys(abi::kSysRead, 0, 16)});
  EXPECT_GE(model->results()[0], 1u);
  EXPECT_LE(model->results()[0], 16u);
}

TEST_F(OsFixture, UdpSocketLifecycle) {
  sys_.os().schedule_datagram(3'000'000, 7777, 400);
  auto model = run_script({
      sys(abi::kSysSocket, 2, 2),
      sys(abi::kSysBind, 3, 7777),
      sys(abi::kSysRecvfrom, 3, 2048),
      sys(abi::kSysSendto, 3, 300),
      sys(abi::kSysClose, 3),
  });
  const auto& r = model->results();
  EXPECT_EQ(r[0], 3u);
  EXPECT_EQ(r[1], 0u);
  EXPECT_EQ(r[2], 400u);  // the datagram
  EXPECT_EQ(r[3], 300u);
  EXPECT_EQ(sys_.os().counters().net_bytes_received, 400u);
}

TEST_F(OsFixture, TcpAcceptDeliversRequestData) {
  sys_.os().schedule_connection(3'000'000, 8080, 512);
  auto model = run_script({
      sys(abi::kSysSocket, 2, 1),
      sys(abi::kSysBind, 3, 8080),
      sys(abi::kSysListen, 3),
      sys(abi::kSysAccept, 3),      // → conn fd 4
      sys(abi::kSysRead, 4, 4096),  // request arrives shortly after
      sys(abi::kSysWrite, 4, 1000),
      sys(abi::kSysClose, 4),
  });
  const auto& r = model->results();
  EXPECT_EQ(r[3], 4u);
  EXPECT_EQ(r[4], 512u);
  EXPECT_EQ(r[5], 1000u);
}

TEST_F(OsFixture, TcpConnectCompletesAfterRtt) {
  auto model = run_script({
      sys(abi::kSysSocket, 2, 1),
      sys(abi::kSysConnect, 3, 80),
      sys(abi::kSysSendto, 3, 128),
  });
  EXPECT_EQ(model->results()[1], 0u);
  EXPECT_EQ(model->results()[2], 128u);
}

TEST_F(OsFixture, NanosleepAdvancesJiffies) {
  run_script({sys(abi::kSysNanosleep, 5)});
  EXPECT_GE(sys_.os().jiffies(), 5u);
}

TEST_F(OsFixture, BadFdReadFails) {
  auto model = run_script({sys(abi::kSysRead, 17, 100)});
  // vfs_read's class dispatch finds no handler for an invalid descriptor
  // and the error class marker propagates out as the syscall result.
  EXPECT_EQ(model->results()[0], 0xFFFFFFFFu);
}

TEST_F(OsFixture, Dup2CopiesDescriptors) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathProcStat, 0),  // fd 3 (proc: no disk wait)
      sys(abi::kSysDup2, 3, 9),
      sys(abi::kSysRead, 9, 128),
  });
  EXPECT_EQ(model->results()[1], 9u);
  EXPECT_EQ(model->results()[2], 128u);
}

// A target far past the table's end grows the descriptor table, which can
// move the source descriptor: it must be copied first (a heap
// use-after-free under ASan otherwise).
TEST_F(OsFixture, Dup2GrowingTheTableKeepsBothDescriptors) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathProcStat, 0),  // fd 3
      sys(abi::kSysDup2, 3, 700),
      sys(abi::kSysRead, 700, 128),
      sys(abi::kSysRead, 3, 128),
  });
  const auto& r = model->results();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[1], 700u);
  EXPECT_EQ(r[2], 128u);
  EXPECT_EQ(r[3], 128u);
}

TEST_F(OsFixture, Dup2OntoItselfIsANoOp) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathProcStat, 0),  // fd 3
      sys(abi::kSysDup2, 3, 3),
      sys(abi::kSysRead, 3, 128),
  });
  const auto& r = model->results();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[1], 3u);
  EXPECT_EQ(r[2], 128u);  // still open
}

TEST_F(OsFixture, Dup2RejectsOutOfRangeTargets) {
  auto model = run_script({
      sys(abi::kSysOpen, os::kPathProcStat, 0),  // fd 3
      sys(abi::kSysDup2, 3, 0xFFFFFFF0u),
      sys(abi::kSysDup2, 3, 1024),
      sys(abi::kSysRead, 3, 128),
  });
  const auto& r = model->results();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[1], 0xFFFFFFF7u);  // -EBADF, and no table growth
  EXPECT_EQ(r[2], 0xFFFFFFF7u);
  EXPECT_EQ(r[3], 128u);
}

// Booting arms the periodic timer, which reschedules itself on every tick.
// Destroying the system must free the pending tick: run under ASan with
// detect_leaks=1, this is the leak check for it.
TEST(OsRuntimeLifetime, ConstructRunAndDestroy) {
  u64 jiffies = 0;
  {
    harness::GuestSystem system;
    system.hv().run_for(2'000'000);
    jiffies = system.os().jiffies();
  }
  EXPECT_GT(jiffies, 0u);
}

// ---------------------------------------------------------------------------
// fork / wait / execve.
// ---------------------------------------------------------------------------

class ForkParent : public AppModel {
 public:
  AppAction next(u32 last, OsRuntime&, u32) override {
    switch (phase_++) {
      case 0: return sys(abi::kSysFork);
      case 1:
        child_pid_ = last;
        return sys(abi::kSysWait4, last);
      case 2:
        reaped_ = last;
        [[fallthrough]];
      default:
        return sys(abi::kSysExit);
    }
  }
  std::shared_ptr<AppModel> fork_child() override {
    return std::make_shared<ScriptModel>(
        std::vector<AppAction>{sys(abi::kSysGetpid)});
  }
  u32 child_pid_ = 0, reaped_ = 0;

 private:
  int phase_ = 0;
};

TEST_F(OsFixture, ForkWaitReapsChild) {
  auto model = std::make_shared<ForkParent>();
  u32 pid = sys_.os().spawn("parent", model);
  sys_.run_until_exit(pid, 600'000'000);
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(pid));
  EXPECT_GT(model->child_pid_, pid);
  EXPECT_EQ(model->reaped_, model->child_pid_);
  EXPECT_EQ(sys_.os().counters().forks, 1u);
}

TEST_F(OsFixture, ForkReturnsZeroInChild) {
  // The child model records `last` on its first step — which is fork's
  // return value in the child (0).
  class Recorder : public AppModel {
   public:
    AppAction next(u32 last, OsRuntime&, u32) override {
      first_result = last;
      return sys(abi::kSysExit);
    }
    u32 first_result = 0xDEAD;
  };
  class Parent : public AppModel {
   public:
    explicit Parent(std::shared_ptr<Recorder> rec) : rec_(std::move(rec)) {}
    AppAction next(u32, OsRuntime&, u32) override {
      if (phase_++ == 0) return sys(abi::kSysFork);
      return sys(abi::kSysWait4, 0xFFFFFFFF);
    }
    std::shared_ptr<AppModel> fork_child() override { return rec_; }

   private:
    std::shared_ptr<Recorder> rec_;
    int phase_ = 0;
  };
  auto recorder = std::make_shared<Recorder>();
  u32 pid = sys_.os().spawn("parent", std::make_shared<Parent>(recorder));
  sys_.run_until_exit(pid, 600'000'000);
  EXPECT_EQ(recorder->first_result, 0u);
}

TEST_F(OsFixture, WaitWithNoChildrenReturnsEchild) {
  auto model = run_script({sys(abi::kSysWait4, 0xFFFFFFFF)});
  EXPECT_EQ(model->results()[0], 0xFFFFFFF6u);  // -ECHILD
}

TEST_F(OsFixture, ExecveReplacesProgramAndModel) {
  apps::register_utility_binaries(sys_.os());
  u64 tty_before = sys_.os().counters().tty_bytes_written;
  auto model = run_script(
      {sys(abi::kSysExecve, sys_.os().binary_id("cat"))}, "execer");
  // cat reads /etc and writes to the tty; the ScriptModel's exit never runs
  // (the model was replaced), so observe cat's side effects instead.
  EXPECT_GT(sys_.os().counters().tty_bytes_written, tty_before);
}

TEST_F(OsFixture, ForkStormRecyclesResources) {
  // More forks than task slots / would-be page budget: verifies slot and
  // page recycling end to end.
  class Storm : public AppModel {
   public:
    AppAction next(u32, OsRuntime&, u32) override {
      if (count_ >= 200) return sys(abi::kSysExit);
      if (in_fork_) {
        in_fork_ = false;
        return sys(abi::kSysWait4, 0xFFFFFFFF);
      }
      in_fork_ = true;
      ++count_;
      return sys(abi::kSysFork);
    }
   private:
    int count_ = 0;
    bool in_fork_ = false;
  };
  u32 pid = sys_.os().spawn("storm", std::make_shared<Storm>());
  hv::RunOutcome outcome = sys_.run_until_exit(pid, 3'000'000'000ull);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(pid));
  EXPECT_EQ(sys_.os().counters().forks, 200u);
}

// ---------------------------------------------------------------------------
// Signals and timers.
// ---------------------------------------------------------------------------

TEST_F(OsFixture, KillWithoutHandlerTerminatesTarget) {
  auto victim = std::make_shared<ScriptModel>(
      std::vector<AppAction>{sys(abi::kSysNanosleep, 1000)});
  u32 vpid = sys_.os().spawn("victim", victim);
  sys_.run_for(3'000'000);
  ASSERT_TRUE(sys_.os().task_alive(vpid));
  auto killer = run_script({sys(abi::kSysKill, vpid, 9)}, "killer");
  EXPECT_EQ(killer->results()[0], 0u);
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(vpid));
}

TEST_F(OsFixture, AlarmDeliversSigalrmToHandler) {
  // The handler is real user code: it performs getpid then sigreturn.
  os::UserCodeBuilder handler(os::kUserInjectVa);
  handler.syscall(abi::kSysGetpid);
  handler.syscall(abi::kSysSigreturn);
  // Main program: register handler, arm alarm, sleep long.
  auto model = std::make_shared<ScriptModel>(std::vector<AppAction>{
      sys(abi::kSysSigaction, 14, os::kUserInjectVa),
      sys(abi::kSysAlarm, 3),
      sys(abi::kSysNanosleep, 50),
  });
  u32 pid = sys_.os().spawn("alarmer", model);
  sys_.os().inject_code(pid, handler.finish());
  u64 syscalls_before = sys_.os().counters().syscalls;
  sys_.run_until_exit(pid, 600'000'000);
  // The sleep was interrupted (EINTR) by SIGALRM and the handler ran
  // (getpid + sigreturn add syscalls beyond the script's own three).
  ASSERT_GE(model->results().size(), 3u);
  EXPECT_EQ(model->results()[2], 0xFFFFFFFCu);  // -EINTR
  EXPECT_GE(sys_.os().counters().syscalls - syscalls_before, 5u);
}

// ---------------------------------------------------------------------------
// Kernel modules.
// ---------------------------------------------------------------------------

TEST_F(OsFixture, BootLoadsE1000AndItIsVisible) {
  auto mods = sys_.hv().vmi().module_list();
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].name, "e1000");
  EXPECT_GT(mods[0].size, 0u);
  EXPECT_TRUE(sys_.os().loaded_module("e1000").has_value());
}

TEST_F(OsFixture, GuestInsmodLoadsAndRunsInit) {
  os::Blueprint bp;
  bp.add("testmod_fn", "test", [](os::EmitCtx& c) { c.pad(20); });
  bp.add("testmod_init", "test", [](os::EmitCtx& c) {
    // Init writes a marker into the syscall table's last-but-one slot.
    auto& a = c.a();
    a.mov_imm(isa::Reg::A, 0x12345678);
    a.store_abs(abi::kSyscallTableAddr + (abi::kSyscallTableSlots - 2) * 4);
  });
  u32 id = sys_.os().register_module(
      {"testmod", std::move(bp), "testmod_init", true, nullptr});
  run_script({sys(abi::kSysInitModule, id)}, "insmod");

  auto mods = sys_.hv().vmi().module_list();
  ASSERT_EQ(mods.size(), 2u);
  EXPECT_EQ(mods[0].name, "testmod");  // newest first
  EXPECT_EQ(sys_.hv().vmi().read_u32(
                abi::kSyscallTableAddr + (abi::kSyscallTableSlots - 2) * 4),
            0x12345678u);
}

TEST_F(OsFixture, HiddenModuleDisappearsFromGuestListButNotHostTruth) {
  os::Blueprint bp;
  bp.add("hider_init", "test", [](os::EmitCtx& c) {
    auto& a = c.a();
    a.mov_imm_sym(isa::Reg::B, "hider_init");
    c.ksvc(abi::kKsvcModuleHide);
  });
  u32 id = sys_.os().register_module(
      {"hider", std::move(bp), "hider_init", false, nullptr});
  run_script({sys(abi::kSysInitModule, id)}, "insmod");

  for (const auto& mod : sys_.hv().vmi().module_list())
    EXPECT_NE(mod.name, "hider");
  EXPECT_TRUE(sys_.os().loaded_module("hider").has_value());
  // VMI symbolization of an address inside the hidden module → UNKNOWN.
  GVirt inside = sys_.os().loaded_module("hider")->base + 4;
  EXPECT_EQ(sys_.hv().vmi().symbolize(inside), "UNKNOWN");
}

TEST_F(OsFixture, DeleteModuleUnlinksIt) {
  os::Blueprint bp;
  bp.add("gone_fn", "test", [](os::EmitCtx& c) { c.pad(10); });
  u32 id = sys_.os().register_module({"gone", std::move(bp), "", true,
                                      nullptr});
  run_script({sys(abi::kSysInitModule, id),
              sys(abi::kSysDeleteModule, id)},
             "insmod");
  for (const auto& mod : sys_.hv().vmi().module_list())
    EXPECT_NE(mod.name, "gone");
  EXPECT_FALSE(sys_.os().loaded_module("gone").has_value());
}

// ---------------------------------------------------------------------------
// VMI coherence.
// ---------------------------------------------------------------------------

TEST_F(OsFixture, VmiSeesCurrentTaskAndStates) {
  auto model = std::make_shared<ScriptModel>(
      std::vector<AppAction>{sys(abi::kSysNanosleep, 400)});
  u32 pid = sys_.os().spawn("sleeper", model);
  sys_.run_for(2'000'000);
  // The sleeper is blocked; current should be the idle task (swapper).
  hv::TaskInfo current = sys_.hv().vmi().current_task();
  EXPECT_EQ(current.comm, "swapper");
  // The sleeper's guest task struct mirrors its state.
  bool found = false;
  for (u32 slot = 0; slot < abi::Task::kMaxTasks; ++slot) {
    hv::TaskInfo info = sys_.hv().vmi().task_at(abi::Task::addr(slot));
    if (info.comm == "sleeper") {
      found = true;
      EXPECT_EQ(info.pid, pid);
      EXPECT_EQ(info.state, abi::TaskState::kBlocked);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(OsFixture, IrqCountStaysBalanced) {
  // irq_count must never exceed nesting depth 1 (no nested IRQs) and must
  // return to 0 whenever execution is outside a handler. With a busy user
  // process, most samples land outside interrupt context.
  auto model = std::make_shared<ScriptModel>(std::vector<AppAction>(
      400, AppAction::compute_only(20'000)));
  sys_.os().spawn("busy", model);
  u32 max_count = 0;
  u32 zero_samples = 0;
  for (int i = 0; i < 20; ++i) {
    sys_.run_for(300'000);
    u32 count = sys_.hv().vmi().read_u32(abi::kIrqCountAddr);
    max_count = std::max(max_count, count);
    if (count == 0) ++zero_samples;
  }
  EXPECT_LE(max_count, 1u);
  EXPECT_GT(zero_samples, 0u);
}

}  // namespace
}  // namespace fc
