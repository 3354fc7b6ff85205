#include "vcpu/vcpu.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace fc::cpu {

using isa::Op;
using isa::Reg;

void Vcpu::add_breakpoint(GVirt pc) {
  if (!has_breakpoint(pc)) breakpoints_.push_back(pc);
}

void Vcpu::remove_breakpoint(GVirt pc) {
  breakpoints_.erase(std::remove(breakpoints_.begin(), breakpoints_.end(), pc),
                     breakpoints_.end());
}

bool Vcpu::has_breakpoint(GVirt pc) const {
  return std::find(breakpoints_.begin(), breakpoints_.end(), pc) !=
         breakpoints_.end();
}

void Vcpu::take_sample(GVirt pc, u8 tier) {
  // Weight = whole periods crossed since the boundary: one retired
  // instruction can jump simulated time by many periods (HLT idle advance,
  // KSVC charges), and attribution must stay proportional to cycles. The
  // sink only observes — it must not touch vCPU state — so the guest's
  // execution, cycle count and lockstep parity are unaffected.
  const u64 periods = (cycles_ - sample_at_) / sample_period_ + 1;
  sample_at_ += periods * sample_period_;
  sampler_->on_sample(cycles_, pc, tier, periods);
}

void Vcpu::end_block(GVirt end) {
  if (in_block_ && trace_ != nullptr && end > block_start_) {
    trace_->on_block(block_start_, end);
  }
  in_block_ = false;
}

bool Vcpu::deliver_interrupt(u8 vector, bool hardware) {
  mem::Mmu& mmu = machine_->mmu();
  GVirt handler = mmu.read32(idt_base_ + vector * 4u);
  if (handler == 0) {
    // An unpopulated vector: hardware lines are wired at boot, so this can
    // only be a stray software INT — the caller turns it into a guest
    // fault.
    FC_CHECK(!hardware, << "no IDT handler for hardware vector "
                        << static_cast<int>(vector));
    return false;
  }
  end_block(regs_.pc);
  FC_TRACE_EVENT(kInterrupt, hardware ? 1 : 0, 0, vector, regs_.pc, 0, 0);

  u32 flags = FlagsWord::pack(regs_.mode, regs_.zf, regs_.interrupts_enabled);
  u32 old_sp = regs_[Reg::SP];
  u32 frame_sp = old_sp;
  if (regs_.mode == Mode::kUser) {
    FC_CHECK(kstack_ptr_addr_ != 0, << "kstack pointer not configured");
    frame_sp = mmu.read32(kstack_ptr_addr_);
  }
  // Push flags, old sp, old pc (so [sp] = old pc at handler entry).
  frame_sp -= 4;
  mmu.write32(frame_sp, flags);
  frame_sp -= 4;
  mmu.write32(frame_sp, old_sp);
  frame_sp -= 4;
  mmu.write32(frame_sp, regs_.pc);
  regs_[Reg::SP] = frame_sp;
  regs_.mode = Mode::kKernel;
  regs_.interrupts_enabled = false;
  regs_.pc = handler;
  cycles_ += perf_.cost_int;
  return true;
}

// ---------------------------------------------------------------------------
// Instruction semantics. exec (the uncached and block tiers) and the block
// tier's simple-op batches execute these same helpers on the same kOpTable
// lowering; they differ only in dispatch and in how retire() is called (per
// op, or once per batch).
// ---------------------------------------------------------------------------

void Vcpu::exec_simple(UOp kind, u8 r1, u8 r2, u32 imm) {
  u32& dst = regs_.gpr[r1];
  u32 result = 0;
  switch (kind) {
    case UOp::kNop:
      return;
    case UOp::kMovRR:
      dst = regs_.gpr[r2];
      return;
    case UOp::kMovImm:
      dst = imm;
      return;
    case UOp::kAddRR:
      result = (dst += regs_.gpr[r2]);
      break;
    case UOp::kSubRR:
      result = (dst -= regs_.gpr[r2]);
      break;
    case UOp::kXorRR:
      result = (dst ^= regs_.gpr[r2]);
      break;
    case UOp::kOrRR:
      result = (dst |= regs_.gpr[r2]);
      break;
    case UOp::kCmpRR:
      result = dst - regs_.gpr[r2];
      break;
    case UOp::kAddImm:
      result = (dst += imm);
      break;
    case UOp::kSubImm:
      result = (dst -= imm);
      break;
    case UOp::kOrImm:
      result = (dst |= imm);
      break;
    case UOp::kCmpImm:
      result = dst - imm;
      break;
    default:
      FC_UNREACHABLE(<< "not a simple micro-op");
  }
  regs_.zf = (result == 0);
}

void Vcpu::rdtsc() {
  // Reads cycles_ before this instruction's own cost is charged.
  regs_[Reg::A] = static_cast<u32>(cycles_);
  regs_[Reg::D] = static_cast<u32>(cycles_ >> 32);
}

// Guest-controlled addresses: a miss is a guest fault (the instruction is
// abandoned mid-way; faulting guests are killed, so partial effects such as
// a push's moved SP are left as they fall), never a simulator abort.
bool Vcpu::push(u32 value) {
  regs_[Reg::SP] -= 4;
  return machine_->mmu().try_write32(regs_[Reg::SP], value);
}

bool Vcpu::pop(u32& out) {
  auto value = machine_->mmu().try_read32(regs_[Reg::SP]);
  if (!value) return false;
  regs_[Reg::SP] += 4;
  out = *value;  // after the bump: `pop sp` keeps the popped value
  return true;
}

bool Vcpu::load(u32& out, u32 addr) {
  auto value = machine_->mmu().try_read32(addr);
  if (!value) return false;
  out = *value;
  return true;
}

bool Vcpu::exec_mem(const MicroOp& u) {
  switch (u.kind) {
    case UOp::kPush:
      return push(regs_.gpr[u.r1]);
    case UOp::kPop:
      return pop(regs_.gpr[u.r1]);
    case UOp::kLoad:
      return load(regs_.gpr[u.r1], regs_.gpr[u.r2] + u.imm);
    case UOp::kLoadAbs:
      return load(regs_.gpr[u.r1], u.imm);
    case UOp::kStore:
    case UOp::kStoreAbs:
      // regs_.pc still names the storing instruction, which data-frame
      // write sinks attribute the store to.
      return machine_->mmu().try_write32(
          (u.kind == UOp::kStore ? regs_.gpr[u.r1] : 0) + u.imm,
          regs_.gpr[u.r2]);
    case UOp::kLeave:
      regs_[Reg::SP] = regs_[Reg::FP];  // before the read
      return pop(regs_[Reg::FP]);
    default:
      FC_UNREACHABLE(<< "not a data-memory micro-op");
  }
}

Exit Vcpu::data_fault(GVirt pc) {
  end_block(pc);
  regs_.pc = pc;
  return {ExitReason::kFetchFault, pc};
}

u64 Vcpu::retire(u32 cost, u64 miss_baseline, u64 count) {
  const u64 misses = machine_->mmu().stats().tlb_misses;
  instructions_ += count;
  cycles_ += count * cost + (misses - miss_baseline) * perf_.cost_tlb_walk;
  return misses;
}

Exit Vcpu::exec(const MicroOp& u, u64 misses_before, u8 tier) {
  if (!in_block_) {
    in_block_ = true;
    block_start_ = regs_.pc;
  }

  const GVirt pc = regs_.pc;
  const GVirt next = pc + u.length;
  u32 cost = perf_.cost_default;
  Exit pending_exit{ExitReason::kNone, 0};

  switch (u.kind) {
    case UOp::kRdtsc:
      rdtsc();
      regs_.pc = next;
      break;
    case UOp::kJmp:
      end_block(next);
      regs_.pc = u.target(pc);
      break;
    case UOp::kJcc:
      end_block(next);
      regs_.pc = regs_.zf == ((u.aux & kWantZf) != 0) ? u.target(pc) : next;
      break;
    case UOp::kCall:
      if (!push(next)) return data_fault(pc);
      end_block(next);
      regs_.pc = u.target(pc);
      cost = perf_.cost_call;
      break;
    case UOp::kRet: {
      end_block(next);
      u32 target = 0;
      if (!pop(target)) return data_fault(pc);
      regs_.pc = target;
      cost = perf_.cost_ret;
      break;
    }
    case UOp::kPush:
    case UOp::kPop:
    case UOp::kLoad:
    case UOp::kStore:
    case UOp::kLoadAbs:
    case UOp::kStoreAbs:
    case UOp::kLeave:
      if (!exec_mem(u)) return data_fault(pc);
      regs_.pc = next;
      break;
    case UOp::kSlow:
      // UD2 and the privilege checks for simulator instructions trap
      // without retiring, before any state change.
      if (u.op == Op::kUd2 ||
          ((u.op == Op::kKsvc || u.op == Op::kCli || u.op == Op::kSti) &&
           regs_.mode != Mode::kKernel) ||
          (u.op == Op::kAppStep && regs_.mode != Mode::kUser)) {
        end_block(pc);
        return {ExitReason::kInvalidOpcode, pc};
      }
      switch (u.op) {
        case Op::kOr: {
          // Memory form (the misinterpreted 0B 0F pair lands here): read
          // through the MMU if mapped, else "read" garbage — either way the
          // guest keeps running wrongly instead of trapping, which is the
          // exact hazard instant recovery exists to prevent.
          u32 addr = regs_.gpr[u.r2];
          auto frame = machine_->mmu().translate_page(page_base(addr));
          u32 value = frame.has_value() && page_offset(addr) + 4 <= kPageSize
                          ? machine_->host().read32(*frame, page_offset(addr))
                          : 0xFFFFFFFFu;
          exec_simple(UOp::kOrImm, u.r1, u.r2, value);
          regs_.pc = next;
          break;
        }
        case Op::kCallTab: {
          u32 target = 0;
          if (!load(target, u.imm + regs_[Reg::A] * 4) || !push(next))
            return data_fault(pc);
          end_block(next);
          regs_.pc = target;
          cost = perf_.cost_call;
          break;
        }
        case Op::kInt:
          regs_.pc = next;  // return address is the next instruction
          if (!deliver_interrupt(static_cast<u8>(u.imm),
                                 /*hardware=*/false)) {
            // No handler: fault the guest at the INT itself.
            regs_.pc = pc;
            end_block(pc);
            pending_exit = {ExitReason::kInvalidOpcode, pc};
          }
          cost = 0;  // deliver_interrupt charged cost_int
          break;
        case Op::kIret: {
          end_block(next);
          u32 ret_pc = 0, saved_sp = 0, flags = 0;
          if (!pop(ret_pc) || !pop(saved_sp) || !pop(flags))
            return data_fault(pc);
          regs_.pc = ret_pc;
          regs_[Reg::SP] = saved_sp;
          regs_.zf = FlagsWord::zf(flags);
          regs_.interrupts_enabled = FlagsWord::interrupts(flags);
          regs_.mode = FlagsWord::mode(flags);
          cost = perf_.cost_iret;
          break;
        }
        case Op::kPusha: {
          // x86 order: eax, ecx, edx, ebx, original esp, ebp, esi, edi.
          const u32 original_sp = regs_[Reg::SP];
          for (int r = 0; r < isa::kNumRegs; ++r)
            if (!push(r == 4 ? original_sp : regs_.gpr[r]))
              return data_fault(pc);
          regs_.pc = next;
          break;
        }
        case Op::kPopa:
          for (int r = isa::kNumRegs - 1; r >= 0; --r) {
            u32 value = 0;
            if (!pop(value)) return data_fault(pc);
            if (r != 4) regs_.gpr[r] = value;  // saved ESP is discarded
          }
          regs_.pc = next;
          break;
        case Op::kCli:
          regs_.interrupts_enabled = false;
          regs_.pc = next;
          break;
        case Op::kSti:
          regs_.interrupts_enabled = true;
          regs_.pc = next;
          break;
        case Op::kHlt: {
          end_block(next);
          regs_.pc = next;
          cost = perf_.cost_hlt;
          bool progressed = (env_ != nullptr) && env_->on_idle(*this);
          if (!progressed) pending_exit = {ExitReason::kHalt, next};
          break;
        }
        case Op::kKsvc:
          regs_.pc = next;
          cost = perf_.cost_ksvc;
          FC_CHECK(env_ != nullptr, << "KSVC with no environment");
          env_->on_ksvc(static_cast<u16>(u.imm), *this);
          break;
        case Op::kAppStep:
          regs_.pc = next;
          FC_CHECK(env_ != nullptr, << "APPSTEP with no environment");
          env_->on_app_step(*this);
          break;
        default:
          FC_UNREACHABLE(<< "op has a micro-op lowering");
      }
      break;
    default:
      exec_simple(u.kind, u.r1, u.r2, u.imm);
      regs_.pc = next;
      break;
  }

  retire(cost, misses_before);
  // Follow straight-line execution within the cached block (no-op when the
  // instruction came from the slow path). Early-exit returns above leave the
  // cursor parked on the un-retired instruction, which is exactly right: a
  // resume re-serves it.
  block_cache_.advance(regs_.pc);
  // Sampling profiler boundary: one always-false compare when detached
  // (sample_at_ parks at ~0), attributed to the retired instruction and the
  // tier that fetched it.
  if (cycles_ >= sample_at_) take_sample(pc, tier);
  return pending_exit;
}

void Vcpu::run_block_batch(std::span<const MicroOp> run, u64 budget_end) {
  const GVirt head = regs_.pc;
  // run() checked the head. Later ops stop short of the page-tail region
  // (run() probes the next page there) and of any breakpoint or armed
  // suppress-once. Ops ascend within the block, so one bound covers them
  // all; a breakpoint between op starts only ends the batch early.
  GVirt stop = page_base(head) + kPageSize - (isa::kMaxInstructionLength - 1);
  for (const GVirt bp : breakpoints_)
    if (bp > head && bp < stop) stop = bp;
  if (suppress_bp_at_ > head && suppress_bp_at_ < stop) stop = suppress_bp_at_;
  // Every simple op retires for cost_default, so the op whose retirement
  // reaches `until` (the next sample, or a parked IRQ's release) is the
  // ceil((until - cycles_) / cost_default)-th; an overdue `until` (a sample
  // left pending by an interrupt delivery) stops after the first. A zero
  // cost never reaches it: dividing by 1 instead only ends the batch early,
  // and the next one carries on.
  const Cycles until = deferred_irqs_ != 0
                           ? std::min(irq_release_at_, sample_at_)
                           : sample_at_;
  const u32 cd = perf_.cost_default != 0 ? perf_.cost_default : 1;
  u64 limit = std::min<u64>(budget_end - instructions_, run.size());
  const u64 by_cycles = cycles_ < until ? (until - cycles_ - 1) / cd + 1 : 1;
  if (by_cycles < limit) limit = by_cycles;
  if (!in_block_) {
    in_block_ = true;
    block_start_ = head;
  }
  const u64 misses = machine_->mmu().stats().tlb_misses;
  GVirt va = head;
  GVirt last = head;
  std::size_t n = 0;
  do {
    const MicroOp& u = run[n];
    if (!is_simple(u.kind)) break;
    exec_simple(u.kind, u.r1, u.r2, u.imm);
    last = va;
    va += u.length;
  } while (++n < limit && va < stop);
  retire(perf_.cost_default, misses, n);
  regs_.pc = va;
  block_cache_.advance_run(static_cast<u32>(n), va);
  if (cycles_ >= sample_at_) take_sample(last, kTierBlock);
}

Exit Vcpu::run(u64 max_instructions) {
  mem::Mmu& mmu = machine_->mmu();
  const u64 budget_end = instructions_ + max_instructions;
  auto stop = [this](ExitReason reason, GVirt at) -> Exit {
    end_block(at);
    return {reason, at};
  };
  while (instructions_ < budget_end) {
    // The baseline this instruction's walks are charged against: its fetch
    // translation and every data access after it.
    const u64 misses_before = mmu.stats().tlb_misses;

    // Re-detect deferred ("missed") interrupt edges once their release time
    // passes, then deliver one pending IRQ if the guest will take it.
    if (deferred_irqs_ != 0 && cycles_ >= irq_release_at_) {
      pending_irqs_ |= deferred_irqs_;
      deferred_irqs_ = 0;
    }
    if (pending_irqs_ != 0 && regs_.interrupts_enabled) {
      u8 line = 0;
      while (!(pending_irqs_ & (1u << line))) ++line;
      pending_irqs_ &= ~(1u << line);
      deliver_interrupt(static_cast<u8>(32 + line), /*hardware=*/true);
      continue;
    }

    // Execution breakpoints (FACE-CHANGE's context-switch / resume traps).
    const GVirt pc = regs_.pc;
    if (pc == suppress_bp_at_) {
      suppress_bp_at_ = 0xFFFFFFFFu;
    } else if (!breakpoints_.empty() && has_breakpoint(pc)) {
      return stop(ExitReason::kBreakpoint, pc);
    }

    // Block tier: the rest of the decoded block at pc. The cursor serves
    // straight-line execution without a lookup while the translation state
    // is what the last block fetch ran under (the code-page translation
    // would provably hit) and pc is outside the page tail. Otherwise
    // translate exactly as Mmu::fetch(pc, ..., kMaxInstructionLength) would
    // — including its probe of the next page from the page tail, whose
    // misses are charged — so simulated time, which feeds guest state
    // (rdtsc, IRQ release), matches the uncached interpreter.
    std::span<const MicroOp> block;
    if (block_cache_enabled_) {
      if (!in_page_tail(pc) && mmu.fill_version() == fetch_tlb_version_ &&
          mmu.ept().generation() == fetch_ept_gen_)
        block = block_cache_.cursor_run(pc);
      if (block.empty()) {
        const auto frame = mmu.translate_page(page_base(pc));
        if (!frame) return stop(ExitReason::kFetchFault, pc);
        if (in_page_tail(pc))
          (void)mmu.translate_page(page_base(pc) + kPageSize);
        block =
            block_cache_.fetch(machine_->host(), *frame, page_offset(pc), pc);
        fetch_tlb_version_ = mmu.fill_version();
        fetch_ept_gen_ = mmu.ept().generation();
      }
    }

    Exit exit;
    if (!block.empty()) {
      // A simple op starts a batch unless its own fetch walked the page
      // tables: a batch charges cost_default per op and nothing else, so
      // that walk would shift where a sample or IRQ release falls.
      if (is_simple(block[0].kind) &&
          mmu.stats().tlb_misses == misses_before) {
        run_block_batch(block, budget_end);
        continue;
      }
      block_cache_.note_hit();
      exit = exec(block[0], misses_before, kTierBlock);
    } else {
      // Uncached: fetch, decode and lower afresh (also where nothing is
      // cacheable). Bytes that do not decode trap here; UD2 decodes, and
      // exec traps it.
      u8 window[isa::kMaxInstructionLength];
      const u32 got = mmu.fetch(pc, window, isa::kMaxInstructionLength);
      if (got == 0) return stop(ExitReason::kFetchFault, pc);
      const isa::DecodeResult dec = isa::decode({window, got});
      if (!dec.ok()) return stop(ExitReason::kInvalidOpcode, pc);
      exit = exec(lower_insn(dec.insn), misses_before, kTierInterp);
    }
    if (exit.reason != ExitReason::kNone) return exit;
  }
  return stop(ExitReason::kInstructionLimit, regs_.pc);
}

}  // namespace fc::cpu
