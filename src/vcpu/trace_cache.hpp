// Superblock/trace tier above the decoded-block cache: hot blocks are
// stitched into a single dispatch unit that inlines the predicted
// taken-branch successor chain, fuses flags-dead ALU+Jcc pairs, and hoists
// the per-block MMU translation and frame-generation checks to trace entry.
//
// Tiering contract (DESIGN.md "The execution tiers" has the full proofs):
//
//   * Promotion: BlockCache counts a table-probe hit per taken branch into a
//     block (`DecodedBlock::heat`); once a block's heat crosses the vCPU's
//     hot threshold its successor chain is stitched from blocks the cache
//     has *already decoded* (BlockCache::peek) — building a trace never
//     decodes bytes, so the PerfModel's decode charging is untouched.
//
//   * Keying is post-EPT, exactly like blocks: (host frame, page offset) of
//     the entry. A view switch repoints guest pages to different frames, so
//     the switched-in view looks up different traces; nothing is flushed,
//     and switching back revives the old entries (FACE-CHANGE's no-flush
//     property extends unchanged to this tier).
//
//   * Invalidation currency is the same (frame, generation) pair as the
//     block cache: the TraceCache is a second CodeWriteSink on HostMemory's
//     write barrier with its *own* per-frame generations, a trace records
//     the generation of every constituent frame at build, and one compare
//     per constituent at dispatch retires stale traces lazily. A write
//     mid-dispatch bumps `write_epoch_`, which the dispatcher's per-op guard
//     turns into an immediate side exit — the trace-tier equivalent of the
//     block cursor's generation compare.
//
//   * Execution parity: every op is lowered through the same op table and
//     executed by the same semantic helpers as Vcpu::exec_insn, retired by
//     the same accounting, and guarded per-op by the same predicate as the
//     block-tail loop, so architectural state, cycle charging and TLB-miss
//     counts are identical to uncached execution at every side exit. The
//     only skipped work is translations that provably *hit* (charge-free by
//     construction).
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "isa/isa.hpp"
#include "mem/host_memory.hpp"
#include "mem/mmu.hpp"
#include "obs/trace.hpp"
#include "support/types.hpp"
#include "vcpu/block_cache.hpp"

namespace fc::cpu {

/// Micro-op: the executable lowering of one instruction, produced once at
/// build. Everything the dispatcher needs per op sits in one flat 32-byte
/// record: register indices and immediates are pre-extracted, branch targets
/// are pre-resolved to *micro-op indices* when they stay inside the trace
/// (`kNoTarget` means the target leaves it), and `fall_va` always holds the
/// architectural next-pc so the dispatcher can keep regs_.pc lazy — it only
/// materialises the pc at side exits, trace ends, stores and kSlow ops,
/// instead of storing and re-comparing it after every instruction.
///
/// The kinds are ordered by class, and the class boundaries are contract:
///   simple (kNop..kCmpImm) — straight-line, register-only, retire one
///       instruction for cost_default and never read cycles, so a run of
///       them executes as one batch with every per-op check and all
///       retirement accounting hoisted out (MicroOp::seg here, the cursor's
///       rest of the block in the block tier: Vcpu::run_simple_batch);
///   ALU (kAddRR..kCmpImm) — the simple kinds that set ZF; these fuse with
///       an adjacent Jcc;
///   pure (everything before kPush) — cannot fault, touch the MMU or the
///       environment, or change IRQ state, so the dispatcher's fast mode
///       survives them;
///   data-memory (kPush..kLeave) — the same MMU calls in the same order as
///       exec_insn, including partial effects on the fault path. They cannot
///       raise an IRQ or move a breakpoint, so fast mode survives them too,
///       but the dispatcher re-compares the translation/code versions right
///       after each one (a data access can fill the TLB, a store can hit a
///       watched code frame).
enum class UOp : u8 {
  kNop,     // no architectural effect beyond retiring (also an in-trace JMP
            // whose target is simply the next micro-op)
  kMovRR,   // gpr[r1] = gpr[r2]
  kMovImm,  // gpr[r1] = imm
  kAddRR,   // gpr[r1] += gpr[r2], ZF
  kSubRR,   // gpr[r1] -= gpr[r2], ZF
  kXorRR,   // gpr[r1] ^= gpr[r2], ZF
  kOrRR,    // gpr[r1] |= gpr[r2], ZF
  kCmpRR,   // ZF = (gpr[r1] - gpr[r2] == 0)
  kAddImm,  // gpr[r1] += imm, ZF
  kSubImm,  // gpr[r1] -= imm, ZF
  kOrImm,   // gpr[r1] |= imm, ZF (exec_insn's memory-form OR, with the
            // word it read; never lowered into a trace)
  kCmpImm,  // ZF = (gpr[r1] - imm == 0)
  kRdtsc,   // gpr[A]:gpr[D] = cycles (read before this op's own charge;
            // reading cycles is what keeps it out of the simple batch)
  kJmp,     // unconditional: taken_idx / taken_va
  kJcc,     // conditional on ZF == (aux & kWantZf): taken_* / fall_*
  kFused,   // ALU+Jcc pair: aux = the ALU half's kind | the Jcc's kWantZf
  kPush,    // sp -= 4; [sp] = gpr[r1] (value read before sp moves)
  kPop,     // gpr[r1] = [sp]; sp += 4 (assigned after the bump)
  kLoad,    // gpr[r1] = [gpr[r2] + imm]
  kStore,   // [gpr[r1] + imm] = gpr[r2]
  kLoadAbs,   // gpr[r1] = [imm]
  kStoreAbs,  // [imm] = gpr[r2]
  kLeave,   // sp = fp; fp = [sp]; sp += 4
  kCall,    // sp -= 4; [sp] = fall_va; pc = taken (direct, pre-resolved)
  kRet,     // pc = [sp]; sp += 4 (dynamic landing, resolved like kSlow)
  kSlow,    // materialise pc, exec_insn(slow[slow_index]), full guard
};

constexpr bool is_simple(UOp k) { return k <= UOp::kCmpImm; }
constexpr bool is_alu(UOp k) { return k >= UOp::kAddRR && k <= UOp::kCmpImm; }

constexpr u16 kNoTarget = 0xFFFF;  // branch target leaves the trace
constexpr u8 kWantZf = 0x80;       // aux: a Jcc (or fused pair) that is
                                   // taken when ZF is set

struct MicroOp {
  UOp kind = UOp::kSlow;
  u8 r1 = 0;            // destination gpr index
  u8 r2 = 0;            // source gpr index
  u8 aux = 0;           // kJcc: kWantZf; kFused: ALU kind | kWantZf
  u32 imm = 0;          // immediate operand (the displacement for kLoad /
                        // kStore, the address for kLoadAbs / kStoreAbs)
  GVirt va = 0;         // architectural address (guard + lazy-pc exits)
  GVirt jcc_va = 0;     // kFused: address of the branch half
  GVirt taken_va = 0;   // branch / call target (kJmp/kJcc/kFused/kCall)
  GVirt fall_va = 0;    // architectural next-pc (branch fallthrough; for
                        // straight-line ops the successor, for completion)
  u16 taken_idx = kNoTarget;  // in-trace micro-op index of taken_va
  u16 fall_idx = kNoTarget;   // in-trace micro-op index of fall_va
  u16 slow_index = 0;         // kSlow: index into Trace::slow
  u16 seg = 0;                // length of the simple straight-line run
                              // starting here (0 for non-simple ops)
};
static_assert(sizeof(MicroOp) == 32, "dispatch stride");

/// Per-op lowering facts, indexed by isa::Op: the one table every tier
/// reads. Ops without an entry lower to kSlow and run through
/// Vcpu::exec_insn's own switch (environment calls, interrupt flow,
/// masking, indirect calls, UD2).
struct OpInfo {
  UOp uop = UOp::kSlow;
  u8 implicit_a = 0;  // kAIsR1 / kAIsR2: that operand is register A
  u8 aux = 0;         // kJcc: kWantZf for the jz forms
};
constexpr u8 kAIsR1 = 1;
constexpr u8 kAIsR2 = 2;

inline constexpr auto kOpTable = [] {
  using isa::Op;
  std::array<OpInfo, static_cast<std::size_t>(Op::kRdtsc) + 1> t{};
  auto set = [&t](Op op, UOp uop, u8 implicit_a = 0, u8 aux = 0) {
    t[static_cast<std::size_t>(op)] = {uop, implicit_a, aux};
  };
  set(Op::kNop, UOp::kNop);
  set(Op::kMovRR, UOp::kMovRR);
  set(Op::kMovImm, UOp::kMovImm);
  set(Op::kAdd, UOp::kAddRR);
  set(Op::kSub, UOp::kSubRR);
  set(Op::kXor, UOp::kXorRR);
  set(Op::kOr, UOp::kOrRR);  // register form; see lower_insn
  set(Op::kCmp, UOp::kCmpRR);
  set(Op::kAddImmA, UOp::kAddImm, kAIsR1);
  set(Op::kSubImmA, UOp::kSubImm, kAIsR1);
  set(Op::kCmpImmA, UOp::kCmpImm, kAIsR1);
  set(Op::kRdtsc, UOp::kRdtsc);
  set(Op::kJmp, UOp::kJmp);
  set(Op::kJmpShort, UOp::kJmp);
  set(Op::kJz, UOp::kJcc, 0, kWantZf);
  set(Op::kJzNear, UOp::kJcc, 0, kWantZf);
  set(Op::kJnz, UOp::kJcc);
  set(Op::kJnzNear, UOp::kJcc);
  set(Op::kPush, UOp::kPush);
  set(Op::kPop, UOp::kPop);
  set(Op::kLoad, UOp::kLoad);
  set(Op::kStore, UOp::kStore);
  set(Op::kLoadAbs, UOp::kLoadAbs, kAIsR1);
  set(Op::kStoreAbs, UOp::kStoreAbs, kAIsR2);
  set(Op::kLeave, UOp::kLeave);
  set(Op::kCall, UOp::kCall);
  set(Op::kRet, UOp::kRet);
  return t;
}();

/// Lower one instruction at `va` through kOpTable, with no trace context
/// (branch indices stay kNoTarget). `op` is insn.op, passed separately so a
/// caller that knows it at compile time (Vcpu::exec_insn's per-op
/// instances) folds the whole lowering to constants; the trace builder adds
/// fusion and in-trace branch resolution on top.
inline MicroOp lower_insn(isa::Op op, const isa::Instruction& insn,
                          GVirt va) {
  const OpInfo& info = kOpTable[static_cast<std::size_t>(op)];
  MicroOp u;
  // The memory form of OR (the misinterpreted 0B 0F pair) reads through the
  // MMU with no fault path: exec_insn's own case.
  u.kind = op == isa::Op::kOr && insn.disp != 0 ? UOp::kSlow : info.uop;
  u.r1 = static_cast<u8>(info.implicit_a == kAIsR1 ? isa::Reg::A : insn.r1);
  u.r2 = static_cast<u8>(info.implicit_a == kAIsR2 ? isa::Reg::A : insn.r2);
  u.aux = info.aux;
  u.imm = info.uop == UOp::kLoad || info.uop == UOp::kStore
              ? static_cast<u32>(insn.disp)
              : insn.imm;
  u.va = va;
  u.taken_va = insn.rel_target(va);
  u.fall_va = va + insn.length;
  return u;
}

struct Trace {
  HostFrame frame = 0;  // entry frame (lookup key, post-EPT)
  u16 offset = 0;       // entry offset within the frame
  GVirt entry_va = 0;
  bool live = true;     // false once lazily retired (slot reusable in place)
  u32 blocks = 0;       // decoded blocks chained in
  std::vector<MicroOp> uops;
  std::vector<isa::Instruction> slow;  // kSlow ops' instructions
  // (frame, generation) per constituent frame: one compare each at dispatch.
  std::vector<std::pair<HostFrame, u32>> constituents;
  // Non-entry code pages the trace executes through, as (vpage, expected
  // frame): probed read-only when the hoisted translation check must be
  // re-established.
  std::vector<std::pair<GVirt, HostFrame>> boundaries;
  // Translation snapshot the hoisted entry check validates against.
  // tlb_version 0 forces establish mode on the first dispatch.
  u64 tlb_version = 0;
  u64 ept_gen = 0;
};

class TraceCache final : public mem::CodeWriteSink {
 public:
  /// Caps on trace size: instructions inlined and blocks chained. The block
  /// cap bounds the per-dispatch constituent/boundary validation cost.
  static constexpr u32 kMaxTraceOps = 256;
  static constexpr u32 kMaxTraceBlocks = 16;
  /// Arena entries before a full clear; well above any working set the 12
  /// apps produce, so capacity clears mark pathological workloads only.
  static constexpr u32 kMaxTraces = 1u << 12;
  static constexpr u32 kTableSize = 1u << 13;  // power of two, > 2x traces
  /// Default promotion threshold: taken-branch entries into a block before
  /// its chain is stitched. Low enough to catch benchmark loops quickly,
  /// high enough that straight-through code never pays a build.
  static constexpr u32 kDefaultHotThreshold = 16;

  /// Side-exit attribution (kTraceSideExit event flags).
  enum SideExit : u8 {
    kExitBudget = 1,       // run() instruction budget exhausted
    kExitIrq = 2,          // deferred release due / deliverable IRQ pending
    kExitBreakpoint = 3,   // breakpoint or suppress-once at the next op
    kExitTranslation = 4,  // TLB fill version or EPT generation moved
    kExitCodeWrite = 5,    // write barrier fired mid-dispatch
    kExitPrediction = 6,   // branch went off the predicted chain
    kExitTrap = 7,         // op itself exited (UD2, fault, HLT, ...)
  };

  struct Stats {
    u64 built = 0;
    u64 build_failures = 0;  // hot entry whose chain yielded no ops
    u64 dispatched = 0;      // trace executions entered
    u64 completions = 0;     // dispatches that ran off the trace end
    u64 side_exits = 0;      // dispatches that exited early (see SideExit)
    u64 retired = 0;         // traces discarded on a stale constituent
    u64 trace_insns = 0;     // instructions retired inside dispatches
    u64 fused_built = 0;     // ALU+Jcc pairs fused at build time
    u64 fused_exec = 0;      // fused pairs executed whole
    // Constituent-frame generation bumps by cause (frames, not writes —
    // mirrors BlockCache::Stats).
    u64 inval_guest_write = 0;
    u64 inval_code_load = 0;
    u64 inval_recycle = 0;
    u64 inval_view_switch = 0;  // engine notifications (no flush needed)
    u64 inval_capacity = 0;     // full clears at kMaxTraces
  };

  /// The live trace keyed (frame, offset), or nullptr. A hit with a stale
  /// constituent generation retires the trace (this is the lazy half of
  /// invalidation) and reports a miss; unrelated entries are untouched.
  Trace* find(HostFrame frame, u32 offset);

  /// Validate (and if needed re-establish) the hoisted translation check:
  /// fast mode is two compares; establish mode probes each boundary page
  /// read-only via Mmu::tlb_resident, charging nothing. Returns false when
  /// a boundary is not resident — the caller declines the dispatch and the
  /// block tier refills the TLB with correctly-charged misses.
  bool validate_translations(Trace& tr, mem::Mmu& mmu);

  /// Stitch a trace starting from the decoded block at (frame, offset).
  /// Chains through direct branches (backward-taken / forward-not-taken
  /// prediction), stops at indirect control flow, UD2, the page-tail fetch
  /// region, a chain link the block cache has not decoded, or the caps.
  /// Returns nullptr (and counts a build failure) if no ops result.
  const Trace* build(mem::HostMemory& host, const mem::Mmu& mmu,
                     const BlockCache& blocks, HostFrame frame, u32 offset,
                     GVirt va);

  // --- dispatcher bookkeeping (called by Vcpu::run_traced) ---------------
  void note_dispatch([[maybe_unused]] const Trace& tr) {
    ++stats_.dispatched;
    FC_TRACE_EVENT(kTraceDispatch, 0, 0, tr.entry_va, 0, tr.frame, 0);
  }
  void note_side_exit([[maybe_unused]] u8 reason, [[maybe_unused]] GVirt pc,
                      u32 executed) {
    ++stats_.side_exits;
    stats_.trace_insns += executed;
    FC_TRACE_EVENT(kTraceSideExit, reason, 0, pc, executed, 0, 0);
  }
  void note_completion(u32 executed) {
    ++stats_.completions;
    stats_.trace_insns += executed;
  }
  void note_fused_exec() { ++stats_.fused_exec; }

  /// Bumped by every watched-frame write; the dispatcher snapshots it at
  /// entry and side-exits the moment it moves (code changed under us).
  u64 write_epoch() const { return write_epoch_; }

  /// Engine notification at a view switch. Post-EPT keying makes repoints
  /// inherently safe; this only attributes the event.
  void note_view_switch() { ++stats_.inval_view_switch; }

  // --- mem::CodeWriteSink ------------------------------------------------
  void on_code_frame_write(HostFrame frame,
                           mem::FrameWriteCause cause) override;

  /// Drop every trace (disable mid-run, capacity overflow). Generations and
  /// the write epoch survive, so re-enabling is safe.
  void clear();

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }
  /// Live traces resident (retired entries are excluded).
  std::size_t size() const { return live_count_; }

  /// Test hook: the trace tier's own write generation of a frame.
  u32 frame_generation(HostFrame frame) const { return gen(frame); }

 private:
  static constexpr u32 kEmptySlot = 0xFFFFFFFFu;

  static u32 probe_start(u64 key) {
    return static_cast<u32>((key * 0x9E3779B97F4A7C15ull) >> 40) &
           (kTableSize - 1);
  }

  u32 gen(HostFrame frame) const {
    return frame < frame_gens_.size() ? frame_gens_[frame] : 0;
  }
  u8 cause_flag(HostFrame frame) const {
    return frame < frame_cause_.size() ? frame_cause_[frame] : 0;
  }

  // Same open-addressing shape as the block cache: slots index arena_,
  // retired entries are superseded in place on rebuild.
  std::vector<u32> slots_ = std::vector<u32>(kTableSize, kEmptySlot);
  std::vector<u64> keys_ = std::vector<u64>(kTableSize, 0);
  std::vector<Trace> arena_;
  std::size_t live_count_ = 0;

  std::vector<u32> frame_gens_;   // trace-tier write generation per frame
  std::vector<u8> frame_live_;    // 1 = frame has live traces at current gen
  std::vector<u8> frame_cause_;   // last bump's FrameWriteCause (event attr)
  u64 write_epoch_ = 1;

  Stats stats_;
};

}  // namespace fc::cpu
