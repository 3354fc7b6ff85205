#include "vcpu/trace_cache.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace fc::cpu {

using isa::Op;

namespace {

constexpr u64 trace_key(HostFrame frame, u32 offset) {
  return (static_cast<u64>(frame) << kPageShift) | offset;
}

/// Resolve a branch target to an in-trace micro-op index: the next op on
/// the predicted chain or the trace entry (the hot-loop back edge), exactly
/// the two stay-in-dispatch cases the dispatcher recognises.
u16 target_index(GVirt target, const Trace& tr, std::size_t j) {
  if (j + 1 < tr.uops.size() && target == tr.uops[j + 1].va)
    return static_cast<u16>(j + 1);
  if (target == tr.entry_va) return 0;
  return kNoTarget;
}

/// Fold a Jcc into the previous micro-op when that is the adjacent
/// register-only ALU op producing the flags the branch tests. Exact by the
/// flags-dead proof in DESIGN.md: no op between the pair can observe an
/// intermediate flags state because there is none.
bool try_fuse(MicroOp& prev, const MicroOp& jcc) {
  if (!is_alu(prev.kind) || prev.fall_va != jcc.va) return false;
  prev.aux = static_cast<u8>(static_cast<u8>(prev.kind) | jcc.aux);
  prev.kind = UOp::kFused;
  prev.jcc_va = jcc.va;
  prev.taken_va = jcc.taken_va;
  prev.fall_va = jcc.fall_va;
  return true;
}

/// Finish the stitched micro-op array: resolve branch targets to in-trace
/// indices, so staying on the predicted chain is an index assignment, and
/// compute the simple-run lengths the batch dispatcher uses.
void link(Trace& tr) {
  const std::size_t n = tr.uops.size();
  for (std::size_t j = 0; j < n; ++j) {
    MicroOp& u = tr.uops[j];
    if (u.kind != UOp::kJmp && u.kind != UOp::kJcc && u.kind != UOp::kFused &&
        u.kind != UOp::kCall)
      continue;
    u.taken_idx = target_index(u.taken_va, tr, j);
    if (u.kind == UOp::kJcc || u.kind == UOp::kFused)
      u.fall_idx = target_index(u.fall_va, tr, j);
    if (u.kind == UOp::kJmp && u.taken_idx == static_cast<u16>(j + 1)) {
      // The chain follows this jump anyway: retire-only micro-op, with the
      // architectural next-pc being the jump target.
      u.kind = UOp::kNop;
      u.fall_va = u.taken_va;
    }
  }
  // seg = number of consecutive simple micro-ops starting here, computed
  // backwards so each op sees its suffix run.
  u16 run = 0;
  for (std::size_t j = n; j-- > 0;) {
    MicroOp& u = tr.uops[j];
    run = is_simple(u.kind) ? static_cast<u16>(run + 1) : 0;
    u.seg = run;
  }
}

void add_constituent(Trace& tr, HostFrame frame, u32 generation) {
  for (const auto& [f, g] : tr.constituents)
    if (f == frame) return;
  tr.constituents.emplace_back(frame, generation);
}

void add_boundary(Trace& tr, GVirt vpage, HostFrame frame) {
  for (const auto& [v, f] : tr.boundaries)
    if (v == vpage) return;
  tr.boundaries.emplace_back(vpage, frame);
}

}  // namespace

Trace* TraceCache::find(HostFrame frame, u32 offset) {
  const u64 key = trace_key(frame, offset);
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) return nullptr;
    if (keys_[i] != key) continue;
    Trace& tr = arena_[slots_[i]];
    if (!tr.live) return nullptr;
    for (const auto& [f, g] : tr.constituents) {
      if (gen(f) == g) continue;
      // A constituent frame's bytes changed since the build: retire this
      // trace (and only this trace — unrelated entries never rescan).
      tr.live = false;
      --live_count_;
      ++stats_.retired;
      FC_TRACE_EVENT(kTraceRetire, cause_flag(f), 0, f, tr.entry_va, 0, 0);
      return nullptr;
    }
    return &tr;
  }
}

bool TraceCache::validate_translations(Trace& tr, mem::Mmu& mmu) {
  const u64 fill = mmu.fill_version();
  const u64 ept_gen = mmu.ept().generation();
  // Fast mode: nothing in the TLB changed since the last establish, so every
  // boundary that was resident then still is (fill_version's contract), and
  // unchanged EPT generation keeps the cached tags valid.
  if (tr.tlb_version == fill && tr.ept_gen == ept_gen) return true;
  // Establish mode: prove each boundary page would hit right now, without
  // filling or counting anything. The entry page needs no probe — the
  // caller just translated it.
  for (const auto& [vpage, frame] : tr.boundaries)
    if (!mmu.tlb_resident(vpage, frame)) return false;
  tr.tlb_version = fill;
  tr.ept_gen = ept_gen;
  return true;
}

const Trace* TraceCache::build(mem::HostMemory& host, const mem::Mmu& mmu,
                               const BlockCache& blocks, HostFrame frame,
                               u32 offset, GVirt va) {
  if (arena_.size() >= kMaxTraces) {
    FC_TRACE_EVENT(kTraceRetire, 0, 0, 0, 0, 0, 0);
    clear();
    ++stats_.inval_capacity;
  }

  Trace tr;
  tr.frame = frame;
  tr.offset = static_cast<u16>(offset);
  tr.entry_va = va;

  GVirt at_va = va;
  HostFrame at_frame = frame;
  u32 at_off = offset;
  bool stop_chain = false;
  while (!stop_chain && tr.blocks < kMaxTraceBlocks &&
         tr.uops.size() < kMaxTraceOps) {
    const DecodedBlock* block = blocks.peek(at_frame, at_off);
    if (block == nullptr) break;  // chain link never decoded: trace ends
    ++tr.blocks;
    add_constituent(tr, at_frame, gen(at_frame));
    if (page_base(at_va) != page_base(va))
      add_boundary(tr, page_base(at_va), at_frame);

    GVirt cur = at_va;
    bool have_successor = false;
    GVirt successor = 0;
    for (const isa::Instruction& insn : block->insns) {
      if (tr.uops.size() >= kMaxTraceOps) {
        stop_chain = true;
        break;
      }
      if (in_page_tail(cur) || insn.op == Op::kUd2) {
        // The interpreter probes (and charges) the next page before
        // executing from the page-tail region; leave those instructions to
        // the block tier, which performs that probe. Never inline the UD2
        // trap either; the slow path raises it with exact fault-pc
        // semantics.
        stop_chain = true;
        break;
      }
      MicroOp u = lower_insn(insn.op, insn, cur);
      cur = u.fall_va;
      successor = u.fall_va;
      have_successor = true;
      if (u.kind == UOp::kJcc) {
        // Backward-taken / forward-not-taken: loop back edges are
        // predicted taken, forward exits predicted fallthrough.
        if (insn.disp < 0) successor = u.taken_va;
        if (!tr.uops.empty() && try_fuse(tr.uops.back(), u)) {
          ++stats_.fused_built;
          continue;
        }
      } else if (u.kind == UOp::kJmp || u.kind == UOp::kCall) {
        successor = u.taken_va;
      } else if (isa::is_control_flow(insn.op)) {
        // Indirect or environment-driven control flow (ret, calltab, int,
        // iret, hlt): include the op (a dispatch ending in RET still runs
        // its body at trace speed) and end the trace where prediction ends.
        stop_chain = true;
      }
      if (u.kind == UOp::kSlow) {
        u.slow_index = static_cast<u16>(tr.slow.size());
        tr.slow.push_back(insn);
      }
      tr.uops.push_back(u);
      if (stop_chain) break;
    }
    if (stop_chain || !have_successor) break;
    if (successor == tr.entry_va) break;  // runtime self-loop closes here
    auto next_frame = mmu.probe_page(page_base(successor));
    if (!next_frame) break;
    at_va = successor;
    at_frame = *next_frame;
    at_off = page_offset(successor);
  }

  if (tr.uops.empty()) {
    ++stats_.build_failures;
    return nullptr;
  }

  for (const auto& [f, g] : tr.constituents) {
    if (f >= frame_gens_.size()) {
      frame_gens_.resize(f + 1, 0);
      frame_live_.resize(f + 1, 0);
      frame_cause_.resize(f + 1, 0);
    }
    frame_live_[f] = 1;
    host.watch_code_frame(f);
  }

  link(tr);

  [[maybe_unused]] const u32 ops = static_cast<u32>(tr.uops.size());
  [[maybe_unused]] const u32 chained = tr.blocks;
  const u64 key = trace_key(frame, offset);
  arena_.push_back(std::move(tr));
  const u32 index = static_cast<u32>(arena_.size() - 1);
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) {
      slots_[i] = index;
      keys_[i] = key;
      break;
    }
    if (keys_[i] == key) {
      slots_[i] = index;  // supersede a retired entry in place
      break;
    }
  }
  ++live_count_;
  ++stats_.built;
  FC_TRACE_EVENT(kTraceBuild, 0, 0, va, ops, frame, chained);
  return &arena_[index];
}

void TraceCache::on_code_frame_write(HostFrame frame,
                                     mem::FrameWriteCause cause) {
  // Any watched-frame write stops in-flight dispatches at their next op
  // guard, even when no live trace spans this frame (over-approximate but
  // cheap; the block cache shares the watch set).
  ++write_epoch_;
  if (frame >= frame_live_.size() || frame_live_[frame] == 0) return;
  frame_live_[frame] = 0;
  ++frame_gens_[frame];
  switch (cause) {
    case mem::FrameWriteCause::kGuestStore:
      ++stats_.inval_guest_write;
      frame_cause_[frame] = 1;
      break;
    case mem::FrameWriteCause::kCodeLoad:
      ++stats_.inval_code_load;
      frame_cause_[frame] = 2;
      break;
    case mem::FrameWriteCause::kRecycle:
      ++stats_.inval_recycle;
      frame_cause_[frame] = 3;
      break;
  }
}

void TraceCache::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  arena_.clear();
  live_count_ = 0;
  std::fill(frame_live_.begin(), frame_live_.end(), 0);
}

}  // namespace fc::cpu
