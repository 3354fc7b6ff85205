// One definition of instruction semantics: every decoded instruction is
// lowered once, through kOpTable, to a MicroOp. The decode memo stores the
// lowered program of each block, the uncached tier lowers the instruction it
// just decoded, and both tiers run the result through Vcpu::exec (or, for a
// run of simple ops, the block tier's batch) on the same helpers.
#pragma once

#include <array>

#include "isa/isa.hpp"
#include "support/types.hpp"

namespace fc::cpu {

/// Micro-op: the executable lowering of one instruction. Register indices
/// and immediates are pre-extracted. It is position-independent: a direct
/// branch keeps its displacement and its target is resolved at execution
/// (MicroOp::target), so one lowered run serves every address and every VM
/// that maps the same bytes.
///
/// The kinds are ordered by class, and the class boundaries are contract:
///   simple (kNop..kCmpImm) — straight-line, register-only, retire one
///       instruction for cost_default and never read cycles, so a run of
///       them executes as one batch with every per-op check and all
///       retirement accounting hoisted out (Vcpu::run_block_batch);
///   data-memory (kPush..kLeave) — the same MMU calls in the same order in
///       every tier, including partial effects on the fault path
///       (Vcpu::exec_mem).
enum class UOp : u8 {
  kNop,     // no architectural effect beyond retiring
  kMovRR,   // gpr[r1] = gpr[r2]
  kMovImm,  // gpr[r1] = imm
  kAddRR,   // gpr[r1] += gpr[r2], ZF
  kSubRR,   // gpr[r1] -= gpr[r2], ZF
  kXorRR,   // gpr[r1] ^= gpr[r2], ZF
  kOrRR,    // gpr[r1] |= gpr[r2], ZF
  kCmpRR,   // ZF = (gpr[r1] - gpr[r2] == 0)
  kAddImm,  // gpr[r1] += imm, ZF
  kSubImm,  // gpr[r1] -= imm, ZF
  kOrImm,   // gpr[r1] |= imm, ZF (exec's memory-form OR, with the word
            // it read; lower_insn never produces it)
  kCmpImm,  // ZF = (gpr[r1] - imm == 0)
  kRdtsc,   // gpr[A]:gpr[D] = cycles (read before this op's own charge;
            // reading cycles is what keeps it out of the simple batch)
  kJmp,     // unconditional: target
  kJcc,     // conditional on ZF == (aux & kWantZf): target or fallthrough
  kPush,    // sp -= 4; [sp] = gpr[r1] (value read before sp moves)
  kPop,     // gpr[r1] = [sp]; sp += 4 (assigned after the bump)
  kLoad,    // gpr[r1] = [gpr[r2] + imm]
  kStore,   // [gpr[r1] + imm] = gpr[r2]
  kLoadAbs,   // gpr[r1] = [imm]
  kStoreAbs,  // [imm] = gpr[r2]
  kLeave,   // sp = fp; fp = [sp]; sp += 4
  kCall,    // sp -= 4; [sp] = next pc; pc = target
  kRet,     // pc = [sp]; sp += 4
  kSlow,    // runs through exec's own switch on the isa::Op
};

constexpr bool is_simple(UOp k) { return k <= UOp::kCmpImm; }

constexpr u8 kWantZf = 0x80;  // aux: a Jcc that is taken when ZF is set

struct MicroOp {
  UOp kind = UOp::kSlow;
  isa::Op op = isa::Op::kNop;  // the instruction lowered (kSlow's switch)
  u8 r1 = 0;      // destination gpr index
  u8 r2 = 0;      // source gpr index
  u8 aux = 0;     // kJcc: kWantZf
  u8 length = 1;  // encoded length in bytes
  u32 imm = 0;    // immediate operand (the displacement for kLoad / kStore,
                  // the address for kLoadAbs / kStoreAbs)
  i32 rel = 0;    // branch / call displacement (kJmp/kJcc/kCall)

  /// The direct branch / call target of this op at `pc`.
  GVirt target(GVirt pc) const {
    return pc + length + static_cast<u32>(rel);
  }
};
static_assert(sizeof(MicroOp) == sizeof(isa::Instruction));

/// Per-op lowering facts, indexed by isa::Op: the one lowering table. Ops
/// without an entry lower to kSlow and run through Vcpu::exec's own switch
/// (environment calls, interrupt flow, masking, indirect calls, UD2).
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

/// Lower one decoded instruction through kOpTable. Called once per decode:
/// by the decode memo for each instruction of a block, and by the uncached
/// tier for the instruction it just fetched.
inline MicroOp lower_insn(const isa::Instruction& insn) {
  const OpInfo& info = kOpTable[static_cast<std::size_t>(insn.op)];
  MicroOp u;
  // The memory form of OR (the misinterpreted 0B 0F pair) reads through the
  // MMU with no fault path: exec's own case.
  u.kind = insn.op == isa::Op::kOr && insn.disp != 0 ? UOp::kSlow : info.uop;
  u.op = insn.op;
  u.r1 = static_cast<u8>(info.implicit_a == kAIsR1 ? isa::Reg::A : insn.r1);
  u.r2 = static_cast<u8>(info.implicit_a == kAIsR2 ? isa::Reg::A : insn.r2);
  u.aux = info.aux;
  u.length = insn.length;
  u.imm = info.uop == UOp::kLoad || info.uop == UOp::kStore
              ? static_cast<u32>(insn.disp)
              : insn.imm;
  u.rel = insn.disp;
  return u;
}

}  // namespace fc::cpu
