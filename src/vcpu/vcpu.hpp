// The virtual CPU: fetch/decode/execute interpreter with the small amount of
// "microcode" a kernel needs — interrupt entry/exit with user↔kernel stack
// switching, software interrupts (syscalls), HLT, and two simulator-specific
// instructions: KSVC (kernel leaf semantics) and APPSTEP (user workload
// model). Everything else, including the scheduler and all syscall handler
// logic, runs as real guest code.
//
// VM exits: invalid opcodes (UD2 or genuinely bad bytes — the view-switching
// mechanism depends on this), execution breakpoints (FACE-CHANGE traps the
// context-switch and resume-userspace addresses), HLT (lets the hypervisor
// advance simulated time to the next device event), and fetch faults.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "isa/isa.hpp"
#include "mem/machine.hpp"
#include "vcpu/block_cache.hpp"
#include "vcpu/op_table.hpp"
#include "vcpu/perf_model.hpp"

namespace fc::cpu {

enum class Mode : u8 { kUser, kKernel };

/// Packed flags word saved in interrupt frames.
struct FlagsWord {
  static u32 pack(Mode mode, bool zf, bool interrupts_enabled) {
    return (mode == Mode::kUser ? 1u : 0u) | (zf ? 2u : 0u) |
           (interrupts_enabled ? 4u : 0u);
  }
  static Mode mode(u32 w) { return (w & 1) ? Mode::kUser : Mode::kKernel; }
  static bool zf(u32 w) { return w & 2; }
  static bool interrupts(u32 w) { return w & 4; }
};

struct Regs {
  std::array<u32, isa::kNumRegs> gpr{};
  GVirt pc = 0;
  bool zf = false;
  bool interrupts_enabled = false;
  Mode mode = Mode::kKernel;

  u32& operator[](isa::Reg r) { return gpr[static_cast<u8>(r)]; }
  u32 operator[](isa::Reg r) const { return gpr[static_cast<u8>(r)]; }
};

enum class ExitReason : u8 {
  kNone,
  kInvalidOpcode,   // decode failed at regs.pc (including UD2)
  kBreakpoint,      // regs.pc hit an installed exec breakpoint (pre-exec)
  kHalt,            // HLT executed; waiting for an interrupt
  kFetchFault,      // code fetch from unmapped memory
  kInstructionLimit,  // run() budget exhausted (not a guest event)
  kShutdown,        // environment requested an orderly stop
};

struct Exit {
  ExitReason reason = ExitReason::kNone;
  GVirt pc = 0;  // faulting / breakpoint / post-HLT pc
};

class Vcpu;

/// Simulator environment: supplies semantics for KSVC and APPSTEP and
/// observes interrupt delivery. Implemented by the guest OS runtime.
class CpuEnv {
 public:
  virtual ~CpuEnv() = default;
  /// Kernel service instruction executed (kernel mode only).
  virtual void on_ksvc(u16 service, Vcpu& vcpu) = 0;
  /// User application step instruction executed (user mode only).
  virtual void on_app_step(Vcpu& vcpu) = 0;
  /// Called when the CPU would halt or needs time to advance: return true if
  /// an interrupt may now be pending (simulated time advanced).
  virtual bool on_idle(Vcpu& vcpu) = 0;
};

/// Basic-block execution observer (the profiler's hook; mirrors QEMU's
/// translation-block instrumentation).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// A dynamic basic block [start, end) finished executing.
  virtual void on_block(GVirt start, GVirt end) = 0;
  /// An interrupt/exception was delivered (vector as seen by the IDT).
  virtual void on_interrupt(u8 vector, bool hardware) = 0;
};

/// Execution tier a sample was taken in (numerically matched to
/// obs::kSampleTier*; the vCPU layer cannot depend on obs).
inline constexpr u8 kTierInterp = 0;
inline constexpr u8 kTierBlock = 1;

/// Cycle-driven sampling observer (the telemetry plane's hook). It never
/// perturbs architectural state or simulated time: a sample is a pure read
/// of (cycles, pc, tier), fired after the instruction whose retirement
/// reaches each multiple of the sample period. Because the trigger is the
/// simulated cycle counter, the sample sequence is byte-identical across
/// runs, hosts and fleet jobs counts.
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  /// One sample standing for `periods` whole sample periods (>= 1; time can
  /// jump several periods across one retired instruction — HLT idle
  /// advance, KSVC charges — and attribution must stay cycle-proportional).
  virtual void on_sample(Cycles now, GVirt pc, u8 tier, u64 periods) = 0;
};

/// Stand-in for the removed trace tier: the frozen host-time benchmark
/// (hostbench/) still reads these counters, which are always zero. Nothing in
/// the simulator reads them.
struct TraceCache {
  struct Stats {
    u64 trace_insns = 0, built = 0, dispatched = 0, side_exits = 0;
  };
  Stats stats() const { return {}; }
};

class Vcpu {
 public:
  /// `memo`: the decode memo the block cache builds through (not owned;
  /// nullptr gives the vCPU a private one).
  explicit Vcpu(mem::Machine& machine, DecodeMemo* memo = nullptr)
      : machine_(&machine), block_cache_(memo) {
    // Register the block cache on the code write barrier so any byte change
    // in a frame it cached decodes from invalidates them.
    machine_->host().add_code_write_sink(&block_cache_);
  }
  ~Vcpu() { machine_->host().remove_code_write_sink(&block_cache_); }
  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  Regs& regs() { return regs_; }
  const Regs& regs() const { return regs_; }
  mem::Machine& machine() { return *machine_; }
  mem::Mmu& mmu() { return machine_->mmu(); }

  void set_env(CpuEnv* env) { env_ = env; }
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  void set_perf_model(const PerfModel& pm) { perf_ = pm; }
  const PerfModel& perf_model() const { return perf_; }

  /// Attach (or detach with nullptr / period 0) the sampling profiler. The
  /// first sample fires at the next period boundary after the current cycle
  /// count. Disabled cost is one always-false u64 compare per retired
  /// instruction (sample_at_ parks at ~0).
  void set_sample_sink(SampleSink* sink, Cycles period) {
    if (sink == nullptr || period == 0) {
      sampler_ = nullptr;
      sample_period_ = 0;
      sample_at_ = kNeverSample;
      return;
    }
    sampler_ = sink;
    sample_period_ = period;
    sample_at_ = (cycles_ / period + 1) * period;
  }
  SampleSink* sample_sink() const { return sampler_; }
  Cycles sample_period() const { return sample_period_; }

  /// The decoded basic-block cache (on by default). Disabling drops every
  /// cached block and makes step() decode each instruction afresh — the
  /// `--no-block-cache` baseline.
  void set_block_cache_enabled(bool on) {
    if (!on) block_cache_.clear();
    block_cache_enabled_ = on;
  }
  bool block_cache_enabled() const { return block_cache_enabled_; }
  BlockCache& block_cache() { return block_cache_; }
  const BlockCache& block_cache() const { return block_cache_; }

  /// Always-zero trace-tier counters (see TraceCache).
  TraceCache trace_cache() const { return {}; }

  /// Simulated time.
  Cycles cycles() const { return cycles_; }
  void charge(Cycles extra) { cycles_ += extra; }
  /// Stable address of the cycle counter; the hypervisor installs it as the
  /// flight recorder's clock so trace events carry simulated time.
  const Cycles* cycles_addr() const { return &cycles_; }

  u64 instructions_retired() const { return instructions_; }

  /// CR3 lives architecturally on the CPU; setting it flushes stage-1 TLB.
  void set_cr3(GPhys cr3) { mmu().set_cr3(cr3); }
  GPhys cr3() const { return machine_->mmu().cr3(); }

  /// Where the interrupt descriptor table lives in guest virtual memory
  /// (set once by the OS at boot; entries are 4-byte handler addresses).
  void set_idt_base(GVirt base) { idt_base_ = base; }
  /// Location holding the current task's kernel stack top (the "TSS.esp0"
  /// equivalent); read on user→kernel transitions.
  void set_kstack_ptr_addr(GVirt addr) { kstack_ptr_addr_ = addr; }

  // --- interrupt lines (edge-triggered) --------------------------------
  void raise_irq(u8 line) { pending_irqs_ |= (1u << line); }
  bool irq_pending() const { return pending_irqs_ != 0; }
  /// Model a "missed" interrupt edge: pending lines are parked and only
  /// re-detected at `release_at` (the paper's immediate-switch hazard —
  /// remapping kernel code during the context switch loses edges until the
  /// next coalescing opportunity).
  void defer_pending_irqs(Cycles release_at) {
    deferred_irqs_ |= pending_irqs_;
    pending_irqs_ = 0;
    if (deferred_irqs_ != 0)
      irq_release_at_ = std::max(irq_release_at_, release_at);
  }

  // --- execution breakpoints (hypervisor-installed) ---------------------
  void add_breakpoint(GVirt pc);
  void remove_breakpoint(GVirt pc);
  bool has_breakpoint(GVirt pc) const;
  /// Must be called by the hypervisor before resuming from a kBreakpoint
  /// exit so the same instruction doesn't immediately re-trap.
  void suppress_breakpoint_once() { suppress_bp_at_ = regs_.pc; }

  /// Run until a VM exit or until `max_instructions` more instructions
  /// retire.
  Exit run(u64 max_instructions);

  /// Deliver an interrupt/exception through the IDT right now (microcode).
  /// Used internally for IRQs and INT n; exposed for tests. Returns false
  /// (without state change) if the IDT has no handler for the vector — a
  /// guest fault for software INT, impossible for hardware lines the OS
  /// wired at boot.
  bool deliver_interrupt(u8 vector, bool hardware);

 private:
  /// Exactly one instruction (or pending-IRQ delivery), charging the TLB
  /// walks its fetch and execution take.
  Exit step();
  /// Execute one already-fetched instruction: trace-block bookkeeping, the
  /// lowered op through the shared semantic helpers, and retire() against
  /// `misses_before`. UD2 / privilege traps return without retiring.
  /// Dispatches to the exec_op instance for insn.op.
  Exit exec_insn(const isa::Instruction& insn, u64 misses_before);
  /// exec_insn for one opcode: with the op a compile-time constant, the
  /// kOpTable lowering and the micro-op switch fold away.
  template <isa::Op kOp>
  Exit exec_op(const isa::Instruction& insn, u64 misses_before);
  /// Straight-line continuation inside the current cached block: retire
  /// instructions directly from the cursor while nothing that could change
  /// behaviour (IRQs, breakpoints, TLB fills, frame writes, page-end fetch
  /// probes) is in play, bailing back to step() the moment anything is. A
  /// simple op at the cursor starts a batch (run_block_batch); any other op
  /// runs through exec_insn.
  Exit run_cached_tail(u64 budget_end);
  /// The run of simple ops at the head of `run` (the cursor's rest of the
  /// block, whose first op is simple and already guarded) as one batch: one
  /// retire for all of them, then the sample the last op's retirement
  /// reached, as per-op execution would have. It stops at the budget, right
  /// after the op whose retirement reaches the next sample or deferred-IRQ
  /// release, before any op in the page-tail region, at a breakpoint or the
  /// armed suppress-once, and at the first non-simple op. Simple ops cannot
  /// move any other guard input (see UOp), so nothing else needs a per-op
  /// check.
  void run_block_batch(std::span<const isa::Instruction> run, u64 budget_end);

  // --- instruction semantics: one definition for both tiers ---------------
  // (Forced inline: they sit on every per-instruction path.)
  /// nop, the moves and the ALU (add, sub, xor, or, cmp; register or
  /// immediate source), including the ZF rule.
  [[gnu::always_inline]] inline void exec_simple(UOp kind, u8 r1, u8 r2,
                                                u32 imm);
  [[gnu::always_inline]] inline void rdtsc();
  /// Data-memory ops (push, pop, load, store, load_abs, store_abs, leave)
  /// and the stack halves of call and ret. Each returns false on a guest
  /// data fault, leaving the partial effects of the MMU calls made so far.
  [[gnu::always_inline]] inline bool exec_mem(const MicroOp& u);
  [[gnu::always_inline]] inline bool push(u32 value);
  [[gnu::always_inline]] inline bool pop(u32& out);
  [[gnu::always_inline]] inline bool load(u32& out, u32 addr);
  /// Abandon the instruction at `pc` on a guest data fault.
  Exit data_fault(GVirt pc);
  /// Retire `count` instructions at `cost` each, plus cost_tlb_walk per TLB
  /// miss since `miss_baseline`. Returns the miss count now charged up to:
  /// the next instruction's baseline.
  [[gnu::always_inline]] inline u64 retire(u32 cost, u64 miss_baseline,
                                           u64 count = 1);

  /// The block-tail loop's bail predicate, checked before an instruction at
  /// `pc`: an IRQ due or deliverable, a breakpoint or armed suppress-once,
  /// or translation drift since the last cached_fetch. Code writes are the
  /// cursor's own generation compare.
  [[gnu::always_inline]] inline bool guard(GVirt pc);
  /// Resolve the instruction at regs_.pc through the block cache. Returns
  /// nullptr in `insn` when the slow fetch+decode path must run; sets
  /// `fetch_fault` when the pc's page is unmapped (a definitive exit).
  struct CachedFetch {
    const isa::Instruction* insn = nullptr;
    bool fetch_fault = false;
  };
  CachedFetch cached_fetch();
  void end_block(GVirt end);
  /// Fire the pending sample(s): weight = whole periods crossed since
  /// sample_at_, advance sample_at_ past `cycles_`, notify the sink. Called
  /// only when cycles_ >= sample_at_ (so sampler_ is non-null).
  void take_sample(GVirt pc, u8 tier);

  static constexpr Cycles kNeverSample = ~static_cast<Cycles>(0);

  mem::Machine* machine_;
  Regs regs_;
  CpuEnv* env_ = nullptr;
  TraceSink* trace_ = nullptr;
  SampleSink* sampler_ = nullptr;
  Cycles sample_period_ = 0;
  Cycles sample_at_ = kNeverSample;  // next sample boundary; ~0 = disabled
  u8 exec_tier_ = kTierInterp;       // tier attribution for exec_insn samples
  PerfModel perf_;

  Cycles cycles_ = 0;
  u64 instructions_ = 0;
  u32 pending_irqs_ = 0;
  u32 deferred_irqs_ = 0;
  Cycles irq_release_at_ = 0;
  GVirt idt_base_ = 0;
  GVirt kstack_ptr_addr_ = 0;

  std::vector<GVirt> breakpoints_;
  GVirt suppress_bp_at_ = 0xFFFFFFFFu;

  BlockCache block_cache_;
  bool block_cache_enabled_ = true;
  // Translation-state snapshot from the last cached_fetch(): while the
  // MMU's fill version and the EPT generation are unchanged, the code
  // page's translation is guaranteed to still hit (see Mmu::fill_version),
  // so the block-tail loop may skip re-translating it.
  u64 fetch_tlb_version_ = 0;
  u64 fetch_ept_gen_ = 0;

  // Basic-block tracking for the trace sink.
  GVirt block_start_ = 0;
  bool in_block_ = false;
};

}  // namespace fc::cpu
