// Remaining option paths and small surfaces: disassembly of every opcode,
// unlisted-module shadowing toggle, custom file registration, direct stream
// injection, signal posting from the host side.
#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "isa/assembler.hpp"

namespace fc {
namespace {

namespace abi = fc::abi;

TEST(Disasm, EveryEmitterProducesReadableText) {
  using isa::Reg;
  struct Case {
    std::function<void(isa::Assembler&)> emit;
    const char* prefix;
  };
  const Case cases[] = {
      {[](isa::Assembler& a) { a.nop(); }, "nop"},
      {[](isa::Assembler& a) { a.push(Reg::FP); }, "push"},
      {[](isa::Assembler& a) { a.pop(Reg::A); }, "pop"},
      {[](isa::Assembler& a) { a.mov(Reg::A, Reg::B); }, "mov"},
      {[](isa::Assembler& a) { a.mov_imm(Reg::C, 7); }, "mov"},
      {[](isa::Assembler& a) { a.load(Reg::A, Reg::FP, 4); }, "mov"},
      {[](isa::Assembler& a) { a.store(Reg::FP, -8, Reg::B); }, "mov"},
      {[](isa::Assembler& a) { a.load_abs(0x1234); }, "mov"},
      {[](isa::Assembler& a) { a.store_abs(0x1234); }, "mov"},
      {[](isa::Assembler& a) { a.add(Reg::A, Reg::B); }, "add"},
      {[](isa::Assembler& a) { a.sub(Reg::A, Reg::B); }, "sub"},
      {[](isa::Assembler& a) { a.xor_(Reg::A, Reg::B); }, "xor"},
      {[](isa::Assembler& a) { a.or_(Reg::A, Reg::B); }, "or"},
      {[](isa::Assembler& a) { a.cmp(Reg::A, Reg::B); }, "cmp"},
      {[](isa::Assembler& a) { a.cmp_imm_a(1); }, "cmp"},
      {[](isa::Assembler& a) { a.add_imm_a(1); }, "add"},
      {[](isa::Assembler& a) { a.sub_imm_a(1); }, "sub"},
      {[](isa::Assembler& a) { a.ret(); }, "ret"},
      {[](isa::Assembler& a) { a.leave(); }, "leave"},
      {[](isa::Assembler& a) { a.int_(0x80); }, "int"},
      {[](isa::Assembler& a) { a.iret(); }, "iret"},
      {[](isa::Assembler& a) { a.hlt(); }, "hlt"},
      {[](isa::Assembler& a) { a.pusha(); }, "pusha"},
      {[](isa::Assembler& a) { a.popa(); }, "popa"},
      {[](isa::Assembler& a) { a.cli(); }, "cli"},
      {[](isa::Assembler& a) { a.sti(); }, "sti"},
      {[](isa::Assembler& a) { a.ud2(); }, "ud2"},
      {[](isa::Assembler& a) { a.ksvc(9); }, "ksvc"},
      {[](isa::Assembler& a) { a.appstep(); }, "appstep"},
      {[](isa::Assembler& a) { a.rdtsc(); }, "rdtsc"},
      {[](isa::Assembler& a) { a.calltab(0xC0C00800); }, "call"},
  };
  for (const Case& c : cases) {
    isa::Assembler a;
    c.emit(a);
    std::vector<u8> bytes = a.finish(0x1000);
    isa::DecodeResult r = isa::decode(bytes);
    ASSERT_TRUE(r.ok()) << c.prefix;
    std::string text = isa::disasm(r.insn, 0x1000);
    EXPECT_EQ(text.rfind(c.prefix, 0), 0u) << text;
  }
}

TEST(ViewBuilder, UnlistedModuleShadowingCanBeDisabled) {
  harness::GuestSystem sys;
  core::ViewBuilderOptions options;
  options.shadow_unlisted_modules = false;
  core::ViewBuilder builder(sys.hv(), sys.os().kernel(), options);

  core::KernelViewConfig cfg;
  cfg.app_name = "x";
  cfg.base.insert(sys.os().kernel().text_base,
                  sys.os().kernel().text_base + 16);
  auto view = builder.build(builder.plan(cfg), 1);
  // e1000 is loaded and visible but unlisted: with shadowing disabled its
  // pages keep the identity mapping (no PTE overrides at all).
  EXPECT_TRUE(view->module_ptes.empty());
  auto mod = sys.os().loaded_module("e1000");
  EXPECT_FALSE(view->manages_page(mem::GuestLayout::kernel_pa(mod->base)));
}

TEST(OsRuntime, CustomFilesAreUsable) {
  harness::GuestSystem sys;
  u32 path = sys.os().register_file(
      {abi::FileClass::kProc, 8192, "/proc/custom"});
  class Reader : public os::AppModel {
   public:
    explicit Reader(u32 path) : path_(path) {}
    os::AppAction next(u32 last, os::OsRuntime&, u32) override {
      switch (phase_++) {
        case 0: return os::AppAction::syscall(abi::kSysOpen, path_, 0);
        case 1:
          fd_ = last;
          return os::AppAction::syscall(abi::kSysRead, fd_, 512);
        case 2:
          result_ = last;
          [[fallthrough]];
        default:
          return os::AppAction::syscall(abi::kSysExit);
      }
    }
    u32 result_ = 0;
   private:
    u32 path_, fd_ = 0;
    int phase_ = 0;
  };
  auto model = std::make_shared<Reader>(path);
  u32 pid = sys.os().spawn("reader", model);
  sys.run_until_exit(pid, 300'000'000);
  EXPECT_EQ(model->result_, 512u);
}

TEST(OsRuntime, DirectStreamInjectionReachesConnectedSockets) {
  harness::GuestSystem sys;
  class Client : public os::AppModel {
   public:
    os::AppAction next(u32 last, os::OsRuntime& osr, u32) override {
      switch (phase_++) {
        case 0: return os::AppAction::syscall(abi::kSysSocket, 2, 1);
        case 1:
          fd_ = last;
          return os::AppAction::syscall(abi::kSysConnect, fd_, 80);
        case 2:
          // Host-side push onto this socket (index 0: first created).
          osr.schedule_stream_data(osr.hypervisor().vcpu().cycles() + 50'000,
                                   0, 777);
          return os::AppAction::syscall(abi::kSysRecvfrom, fd_, 2048);
        case 3:
          got_ = last;
          [[fallthrough]];
        default:
          return os::AppAction::syscall(abi::kSysExit);
      }
    }
    u32 got_ = 0;
   private:
    u32 fd_ = 0;
    int phase_ = 0;
  };
  auto model = std::make_shared<Client>();
  u32 pid = sys.os().spawn("client", model);
  sys.run_until_exit(pid, 300'000'000);
  EXPECT_EQ(model->got_, 777u);
}

TEST(OsRuntime, HostPostedSignalRunsTheHandler) {
  harness::GuestSystem sys;
  // Handler shellcode: uname; sigreturn.
  os::UserCodeBuilder handler(os::kUserInjectVa);
  handler.syscall(abi::kSysUname);
  handler.syscall(abi::kSysSigreturn);
  class Sleeper : public os::AppModel {
   public:
    os::AppAction next(u32, os::OsRuntime&, u32) override {
      switch (phase_++) {
        case 0:
          return os::AppAction::syscall(abi::kSysSigaction, 10,
                                        os::kUserInjectVa);
        case 1: return os::AppAction::syscall(abi::kSysNanosleep, 500);
        default: return os::AppAction::syscall(abi::kSysExit);
      }
    }
   private:
    int phase_ = 0;
  };
  u32 pid = sys.os().spawn("sleeper", std::make_shared<Sleeper>());
  sys.os().inject_code(pid, handler.finish());
  sys.run_for(5'000'000);
  u64 syscalls_before = sys.os().counters().syscalls;
  sys.os().post_signal(pid, 10);
  sys.run_until_exit(pid, 400'000'000);
  // EINTR path: the handler's uname+sigreturn executed.
  EXPECT_GE(sys.os().counters().syscalls - syscalls_before, 2u);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

TEST(OsRuntime, DebugTasksListsLiveProcesses) {
  harness::GuestSystem sys;
  apps::AppScenario top = apps::make_app("top", 30);
  sys.os().spawn("top", top.model);
  top.install_environment(sys.os());
  sys.run_for(3'000'000);
  std::string dump = sys.os().debug_tasks();
  EXPECT_NE(dump.find("swapper"), std::string::npos);
  EXPECT_NE(dump.find("top"), std::string::npos);
  EXPECT_NE(dump.find("<current>"), std::string::npos);
}

}  // namespace
}  // namespace fc
