// vCPU interpreter tests: execution semantics, stack discipline, interrupt
// microcode (entry frames, stack switching, IRET), breakpoints, VM exits,
// and the deferred-IRQ ("missed edge") mechanism.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "isa/assembler.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::cpu {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr GVirt kCodeVa = kKernelBase + 0x10000;
constexpr GVirt kStackTop = kKernelBase + 0x20000;
constexpr GVirt kIdt = kKernelBase + 0x30000;
constexpr GVirt kEsp0 = kKernelBase + 0x30400;

class VcpuFixture : public ::testing::Test {
 protected:
  VcpuFixture() : machine_(8), vcpu_(machine_) {
    // Direct-map the kernel half over all of guest physical memory.
    mem::GuestPageTableBuilder builder(machine_, 0x1000, 0x100000);
    dir_ = builder.create_directory();
    builder.map(dir_, kKernelBase, 0, machine_.guest_phys_pages());
    vcpu_.set_cr3(dir_);
    vcpu_.set_idt_base(kIdt);
    vcpu_.set_kstack_ptr_addr(kEsp0);
    vcpu_.regs().mode = Mode::kKernel;
    vcpu_.regs()[Reg::SP] = kStackTop;
  }

  /// Install code at kCodeVa and point the PC at it.
  void load(Assembler& a) {
    std::vector<u8> bytes = a.finish(kCodeVa);
    machine_.pwrite_bytes(mem::GuestLayout::kernel_pa(kCodeVa), bytes);
    vcpu_.regs().pc = kCodeVa;
  }

  Exit run(u64 budget = 10'000) { return vcpu_.run(budget); }

  mem::Machine machine_;
  Vcpu vcpu_;
  GPhys dir_ = 0;
};

TEST_F(VcpuFixture, ArithmeticAndFlags) {
  Assembler a;
  a.mov_imm(Reg::A, 7);
  a.mov_imm(Reg::B, 7);
  a.sub(Reg::A, Reg::B);  // A = 0 → ZF
  auto taken = a.make_label();
  a.jz(taken);
  a.mov_imm(Reg::C, 1);  // skipped
  a.bind(taken);
  a.mov_imm(Reg::D, 99);
  a.hlt();
  load(a);
  Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::C], 0u);
  EXPECT_EQ(vcpu_.regs()[Reg::D], 99u);
}

TEST_F(VcpuFixture, PushPopAndCallRet) {
  Assembler a;
  auto fn = a.make_label();
  a.mov_imm(Reg::A, 5);
  a.call(fn);
  a.hlt();
  a.bind(fn);
  a.prologue();
  a.add_imm_a(10);
  a.epilogue();
  load(a);
  EXPECT_EQ(run().reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::A], 15u);
  EXPECT_EQ(vcpu_.regs()[Reg::SP], kStackTop);  // balanced
}

TEST_F(VcpuFixture, PushaPopaPreservesRegistersExceptEsp) {
  Assembler a;
  a.mov_imm(Reg::B, 0x1111);
  a.mov_imm(Reg::SI, 0x2222);
  a.pusha();
  a.mov_imm(Reg::B, 0xDEAD);
  a.mov_imm(Reg::SI, 0xBEEF);
  a.popa();
  a.hlt();
  load(a);
  EXPECT_EQ(run().reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::B], 0x1111u);
  EXPECT_EQ(vcpu_.regs()[Reg::SI], 0x2222u);
  EXPECT_EQ(vcpu_.regs()[Reg::SP], kStackTop);
}

TEST_F(VcpuFixture, CallTabDispatchesThroughTable) {
  constexpr GVirt kTable = kKernelBase + 0x31000;
  Assembler a;
  auto target = a.make_label();
  a.mov_imm(Reg::A, 2);       // slot 2
  a.calltab(kTable);
  a.hlt();
  a.bind(target);
  a.mov_imm(Reg::D, 0x42);
  a.ret();
  load(a);
  // target label offset: recompute via a second assembly pass is overkill;
  // scan for the mov_imm D (B8+3=0xBA) instead.
  GVirt target_va = 0;
  for (GVirt va = kCodeVa; va < kCodeVa + 64; ++va) {
    if (machine_.pread8(mem::GuestLayout::kernel_pa(va)) == 0xBA) {
      target_va = va;
      break;
    }
  }
  ASSERT_NE(target_va, 0u);
  machine_.pwrite32(mem::GuestLayout::kernel_pa(kTable + 2 * 4), target_va);
  EXPECT_EQ(run().reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::D], 0x42u);
}

TEST_F(VcpuFixture, Ud2TrapsAsInvalidOpcodeWithoutAdvancing) {
  Assembler a;
  a.nop();
  a.ud2();
  load(a);
  Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kInvalidOpcode);
  EXPECT_EQ(exit.pc, kCodeVa + 1);
  EXPECT_EQ(vcpu_.regs().pc, kCodeVa + 1);  // resumable at the same pc
}

TEST_F(VcpuFixture, SoftwareInterruptEntryAndIret) {
  // Handler at a known address increments A then irets.
  constexpr GVirt kHandler = kKernelBase + 0x40000;
  Assembler handler;
  handler.add_imm_a(100);
  handler.iret();
  std::vector<u8> hbytes = handler.finish(kHandler);
  machine_.pwrite_bytes(mem::GuestLayout::kernel_pa(kHandler), hbytes);
  machine_.pwrite32(mem::GuestLayout::kernel_pa(kIdt + 0x80 * 4), kHandler);

  Assembler a;
  a.mov_imm(Reg::A, 1);
  a.int_(0x80);
  a.hlt();
  load(a);
  EXPECT_EQ(run().reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::A], 101u);
  EXPECT_EQ(vcpu_.regs()[Reg::SP], kStackTop);  // frame fully popped
  EXPECT_EQ(vcpu_.regs().mode, Mode::kKernel);
}

TEST_F(VcpuFixture, HardwareIrqUsesEsp0WhenInUserMode) {
  // User page so the loop can run unprivileged.
  mem::GuestPageTableBuilder builder(machine_, 0x1000, 0x100000);
  builder.map(dir_, 0x08048000, 0x300000, 1);
  Assembler user;
  auto spin = user.make_label();
  user.bind(spin);
  user.nop();
  user.jmp(spin);
  std::vector<u8> ubytes = user.finish(0x08048000);
  machine_.pwrite_bytes(0x300000, ubytes);

  constexpr GVirt kHandler = kKernelBase + 0x40000;
  Assembler handler;
  handler.mov_imm(Reg::D, 0x77);
  handler.hlt();  // exits so we can inspect
  std::vector<u8> hbytes = handler.finish(kHandler);
  machine_.pwrite_bytes(mem::GuestLayout::kernel_pa(kHandler), hbytes);
  machine_.pwrite32(mem::GuestLayout::kernel_pa(kIdt + (32 + 1) * 4),
                    kHandler);
  machine_.pwrite32(mem::GuestLayout::kernel_pa(kEsp0), kStackTop);

  vcpu_.regs().mode = Mode::kUser;
  vcpu_.regs().interrupts_enabled = true;
  vcpu_.regs().pc = 0x08048000;
  vcpu_.regs()[Reg::SP] = 0x08048800;
  vcpu_.run(50);
  vcpu_.raise_irq(1);
  Exit exit = vcpu_.run(1'000);
  EXPECT_EQ(exit.reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::D], 0x77u);
  EXPECT_EQ(vcpu_.regs().mode, Mode::kKernel);
  // The frame was pushed on the kernel stack (esp0), not the user stack:
  // [ktop-12]=pc, [ktop-8]=user sp, [ktop-4]=flags(user,IF).
  u32 saved_sp = vcpu_.mmu().read32(kStackTop - 8);
  EXPECT_EQ(saved_sp, 0x08048800u);
  u32 flags = vcpu_.mmu().read32(kStackTop - 4);
  EXPECT_EQ(FlagsWord::mode(flags), Mode::kUser);
  EXPECT_TRUE(FlagsWord::interrupts(flags));
}

TEST_F(VcpuFixture, IrqNotDeliveredWhenInterruptsDisabled) {
  Assembler a;
  for (int i = 0; i < 10; ++i) a.nop();
  a.hlt();
  load(a);
  vcpu_.regs().interrupts_enabled = false;
  vcpu_.raise_irq(0);
  Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kHalt);  // IRQ stayed pending
  EXPECT_TRUE(vcpu_.irq_pending());
}

TEST_F(VcpuFixture, BreakpointExitsBeforeExecutionAndSuppressWorks) {
  Assembler a;
  a.nop();
  a.mov_imm(Reg::A, 1);
  a.hlt();
  load(a);
  vcpu_.add_breakpoint(kCodeVa + 1);
  Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kBreakpoint);
  EXPECT_EQ(exit.pc, kCodeVa + 1);
  EXPECT_EQ(vcpu_.regs()[Reg::A], 0u);  // mov not yet executed
  vcpu_.suppress_breakpoint_once();
  exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kHalt);
  EXPECT_EQ(vcpu_.regs()[Reg::A], 1u);
}

// UD2 and the privilege checks are runtime checks in exec's slow case, so
// each one is covered on both tiers: the op traps at its own pc, before any
// state change and without retiring.
struct TrapOp {
  const char* name;
  Mode mode;  // the mode the op runs in
  void (*emit)(Assembler&);
};
constexpr TrapOp kTrapOps[] = {
    {"cli_user", Mode::kUser, [](Assembler& a) { a.cli(); }},
    {"sti_user", Mode::kUser, [](Assembler& a) { a.sti(); }},
    {"ksvc_user", Mode::kUser, [](Assembler& a) { a.ksvc(1); }},
    {"appstep_kernel", Mode::kKernel, [](Assembler& a) { a.appstep(); }},
    {"ud2_kernel", Mode::kKernel, [](Assembler& a) { a.ud2(); }},
};

struct TrapCase {
  TrapOp op;
  bool cached;  // block tier, or the uncached reference tier
};

std::ostream& operator<<(std::ostream& os, const TrapCase& c) {
  return os << (c.cached ? "block_" : "uncached_") << c.op.name;
}

std::vector<TrapCase> trap_cases() {
  std::vector<TrapCase> cases;
  for (const bool cached : {false, true})
    for (const TrapOp& op : kTrapOps) cases.push_back({op, cached});
  return cases;
}

class VcpuTrap : public VcpuFixture,
                 public ::testing::WithParamInterface<TrapCase> {};

TEST_P(VcpuTrap, TrapsAtItsPcWithoutRetiring) {
  const TrapCase& c = GetParam();
  constexpr GVirt kUserVa = 0x08050000;
  constexpr GPhys kUserPa = 0x310000;
  mem::GuestPageTableBuilder builder(machine_, 0x1000, 0x100000);
  builder.map(dir_, kUserVa, kUserPa, 1);
  const bool user = c.op.mode == Mode::kUser;
  const GVirt pc = user ? kUserVa : kCodeVa;
  Assembler a;
  c.op.emit(a);
  a.hlt();
  machine_.pwrite_bytes(user ? kUserPa : mem::GuestLayout::kernel_pa(kCodeVa),
                        a.finish(pc));
  vcpu_.set_block_cache_enabled(c.cached);
  vcpu_.regs().mode = c.op.mode;
  vcpu_.regs().pc = pc;
  const u64 retired = vcpu_.instructions_retired();
  const Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kInvalidOpcode);
  EXPECT_EQ(exit.pc, pc);
  EXPECT_EQ(vcpu_.regs().pc, pc);
  EXPECT_EQ(vcpu_.instructions_retired(), retired);
  // The tier that ran it: only the block tier builds a block.
  EXPECT_EQ(vcpu_.block_cache().stats().blocks_built, c.cached ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(BothTiers, VcpuTrap, ::testing::ValuesIn(trap_cases()),
                         [](const ::testing::TestParamInfo<TrapCase>& p) {
                           std::ostringstream name;
                           name << p.param;
                           return name.str();
                         });

TEST_F(VcpuFixture, RdtscReturnsCycleCounter) {
  Assembler a;
  for (int i = 0; i < 5; ++i) a.nop();
  a.rdtsc();
  a.hlt();
  load(a);
  EXPECT_EQ(run().reason, ExitReason::kHalt);
  EXPECT_GT(vcpu_.regs()[Reg::A], 0u);
  EXPECT_EQ(vcpu_.regs()[Reg::A], static_cast<u32>(vcpu_.cycles()) -
                                      vcpu_.perf_model().cost_hlt -
                                      vcpu_.perf_model().cost_default);
}

TEST_F(VcpuFixture, DeferredIrqsReleaseAfterDeadline) {
  constexpr GVirt kHandler = kKernelBase + 0x40000;
  Assembler handler;
  handler.mov_imm(Reg::D, 1);
  handler.iret();
  std::vector<u8> hbytes = handler.finish(kHandler);
  machine_.pwrite_bytes(mem::GuestLayout::kernel_pa(kHandler), hbytes);
  machine_.pwrite32(mem::GuestLayout::kernel_pa(kIdt + 32 * 4), kHandler);

  Assembler a;
  auto loop = a.make_label();
  a.bind(loop);
  a.nop();
  a.jmp(loop);
  load(a);
  vcpu_.regs().interrupts_enabled = true;

  vcpu_.raise_irq(0);
  vcpu_.defer_pending_irqs(vcpu_.cycles() + 500);  // "missed" edge
  EXPECT_FALSE(vcpu_.irq_pending());
  vcpu_.run(100);  // ~200 cycles: still parked
  EXPECT_EQ(vcpu_.regs()[Reg::D], 0u);
  vcpu_.run(400);  // past the release point: delivered
  EXPECT_EQ(vcpu_.regs()[Reg::D], 1u);
}

TEST_F(VcpuFixture, FetchFaultOnUnmappedCode) {
  vcpu_.regs().pc = 0x30000000;  // unmapped
  Exit exit = run();
  EXPECT_EQ(exit.reason, ExitReason::kFetchFault);
}

TEST_F(VcpuFixture, InstructionLimitExit) {
  Assembler a;
  auto loop = a.make_label();
  a.bind(loop);
  a.nop();
  a.jmp(loop);
  load(a);
  Exit exit = vcpu_.run(100);
  EXPECT_EQ(exit.reason, ExitReason::kInstructionLimit);
  EXPECT_GE(vcpu_.instructions_retired(), 100u);
}

TEST_F(VcpuFixture, TlbMissesAreChargedAsCycles) {
  Assembler a;
  a.load_abs(kKernelBase + 0x50000);  // touches a fresh data page
  a.hlt();
  load(a);
  Cycles before = vcpu_.cycles();
  run();
  // At minimum: fetch-page walk + data-page walk charged at cost_tlb_walk.
  EXPECT_GE(vcpu_.cycles() - before,
            2u * vcpu_.perf_model().cost_tlb_walk);
}

}  // namespace
}  // namespace fc::cpu
