// Decoded basic-block cache (the interpreter's answer to QEMU's translation
// blocks): the uncached interpreter pays an Mmu::fetch plus a fresh
// isa::decode and lowering for every instruction; this cache builds each
// basic block once and replays its lowered micro-ops until the underlying
// code bytes change.
//
// Keying and invalidation are what make this safe under FACE-CHANGE:
//
//   * Blocks are keyed by (host frame, page offset) — the *post-EPT* address
//     of the bytes. A view switch repoints guest-physical code pages to
//     different host frames, so the switched-in view simply looks up (and
//     populates) different cache entries; the UD2 shadow copies and the
//     pristine kernel never collide. No flush is needed for EPT repoints.
//
//   * Code bytes themselves change in exactly three ways: recovery copying
//     pristine function bytes into a view's shadow frames, guest stores into
//     code pages (self-modifying code), and the machine recycling a freed
//     code page. All three funnel through HostMemory's write barrier
//     (CodeWriteSink), which bumps a per-frame *generation*. A cached block
//     records the generation it was built under and is revalidated by a
//     single compare on every use — correctness never depends on scanning
//     the cache.
//
// Building a block asks a DecodeMemo (vcpu/decode_memo.hpp) for the decode:
// a content-keyed, byte-verified memo that hands every block cache meeting
// the same bytes — another view's shadow copy, a recovered function, another
// VM of the same SharedImage — one shared, immutable micro-op run. The memo
// is host-side only: a build counts as a build in the stats whether or not
// the memo had the run, and generations and the cursor stay per cache.
//
// Storage is an open-addressing hash table (flat key/slot arrays, linear
// probing, no deletion except full clears) over an arena of blocks: branch
// targets — the hot lookup, once per taken branch — cost one hash probe
// instead of an unordered_map find. The straight-line cursor keeps copies
// (micro-op pointer, frame, generation) rather than a block pointer, so
// arena growth never invalidates it; each arena entry co-owns its run, so
// the micro-ops outlive any in-place rebuild of its table slot (and any
// memo eviction) until the next full clear, and the generation compare
// retires stale cursors before they can be served.
//
// Blocks end at control flow, at the page boundary, at an undecodable byte
// sequence, or at a fixed instruction cap (DecodeMemo::kMaxBlockInsns).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "isa/isa.hpp"
#include "mem/host_memory.hpp"
#include "support/types.hpp"
#include "vcpu/decode_memo.hpp"

namespace fc::cpu {

/// The page-tail region, where fewer than kMaxInstructionLength bytes
/// remain: a fetch from here probes (and may charge a miss on) the next
/// page, so Vcpu::run translates for every instruction here and batches
/// stop short of it.
inline bool in_page_tail(GVirt va) {
  return kPageSize - page_offset(va) < isa::kMaxInstructionLength;
}

struct DecodedBlock {
  HostFrame frame = 0;
  u32 frame_gen = 0;  // frame write-generation the decode is valid for
  std::shared_ptr<const DecodeRun> run;  // owns what `insns` views
  std::span<const MicroOp> insns;        // the run's micro-ops
};

class BlockCache final : public mem::CodeWriteSink {
 public:
  /// Arena entries before a full clear (generations make the clear safe at
  /// any time; the cap only bounds memory). Must stay below half the table
  /// size so linear probing never degenerates.
  static constexpr u32 kMaxBlocks = 1u << 16;
  static constexpr u32 kTableSize = 1u << 17;  // power of two, > 2x blocks

  struct Stats {
    // Instructions served from a decoded block (note_hit, advance_run).
    u64 insn_hits = 0;
    u64 block_misses = 0;   // lookups that had to (re)build
    u64 blocks_built = 0;
    // Instructions in the blocks built, counted whether or not the memo
    // already held the run — not the host's decode work.
    u64 insns_decoded = 0;
    u64 uncacheable = 0;    // misses where not even one insn decoded
    // Invalidations by cause. Each counts *frames* whose cached decodes
    // became stale, not individual writes (a frame's generation bumps once
    // and further writes are free until code is cached there again).
    u64 inval_guest_write = 0;  // guest stores into cached code (SMC)
    u64 inval_code_load = 0;    // recovery / view-builder byte rewrites
    u64 inval_recycle = 0;      // freed page recycled with new contents
    u64 inval_view_switch = 0;  // engine EPT-switch notifications
    u64 inval_capacity = 0;     // full clears at kMaxBlocks
    // Host dispatch shape, not simulated state: of insn_hits, those the
    // vCPU retired in simple-op batches (advance_run), and the batches.
    u64 batch_insns = 0;
    u64 batches = 0;
  };

  /// Build through `memo` (not owned; must outlive the cache), or through a
  /// private memo when none is given.
  explicit BlockCache(DecodeMemo* memo = nullptr)
      : own_memo_(memo == nullptr ? std::make_unique<DecodeMemo>() : nullptr),
        memo_(memo == nullptr ? own_memo_.get() : memo) {}

  /// Return the micro-ops from (frame, offset) — which the caller has
  /// already resolved via the MMU for `va` — to the end of their block, as
  /// cursor_run returns them, building the block if needed, and park the
  /// cursor there; empty → take the uncached path. When the cursor already
  /// sits on (va, frame) it is served without a table probe: a mid-block
  /// lookup would build a new block starting at `va`. Never consults guest
  /// translations itself. Counts no hits: the caller reports what it serves
  /// with note_hit or advance_run.
  std::span<const MicroOp> fetch(mem::HostMemory& host, HostFrame frame,
                                 u32 offset, GVirt va);

  /// The caller executed the cursor's instruction and the next pc is
  /// `next_va`: advance the cursor if execution fell through, drop it
  /// otherwise (branch, interrupt, fault).
  void advance(GVirt next_va) {
    if (cur_insns_ == nullptr) return;
    if (next_va == cur_va_ + cur_insns_[cur_idx_].length &&
        cur_idx_ + 1 < cur_count_) {
      ++cur_idx_;
      cur_va_ = next_va;
    } else {
      cur_insns_ = nullptr;  // branch taken, trap, or end of block
    }
  }

  /// Straight-line fast path for the vCPU's dispatch loop: if the cursor
  /// sits exactly on `pc` and the frame's bytes are unchanged since the
  /// decode, the block's micro-ops from the cursor to its end, with no
  /// table lookup; otherwise an empty span. The caller must already have
  /// established that the code-page translation is unchanged
  /// (Mmu::fill_version) — this never consults the MMU. Counts nothing: the
  /// caller reports what it serves with note_hit or advance_run.
  std::span<const MicroOp> cursor_run(GVirt pc) const {
    if (cur_insns_ == nullptr || cur_va_ != pc ||
        cur_gen_ != gen(cur_frame_))
      return {};
    return {cur_insns_ + cur_idx_, cur_count_ - cur_idx_};
  }
  /// The caller serves the run's first instruction (from fetch or
  /// cursor_run) on its own; advance follows its execution.
  void note_hit() { ++stats_.insn_hits; }
  /// The caller retired the run's first `n` instructions as one batch
  /// and fell through to `next_va`: the same hits and cursor move as `n`
  /// note_hit/advance pairs.
  void advance_run(u32 n, GVirt next_va) {
    stats_.insn_hits += n;
    stats_.batch_insns += n;
    ++stats_.batches;
    if (cur_idx_ + n < cur_count_) {
      cur_idx_ += n;
      cur_va_ = next_va;
    } else {
      cur_insns_ = nullptr;  // end of block
    }
  }

  /// Engine notification at a view switch. Host-frame keying makes EPT
  /// repoints inherently safe (see file comment); this hook only drops the
  /// straight-line cursor — defense in depth against a switch landing
  /// mid-block — and attributes the event in the stats.
  void note_view_switch() {
    cur_insns_ = nullptr;
    ++stats_.inval_view_switch;
  }

  // --- mem::CodeWriteSink ------------------------------------------------
  void on_code_frame_write(HostFrame frame,
                           mem::FrameWriteCause cause) override;

  /// Drop every cached block (used when the cache is disabled mid-run and
  /// on capacity overflow) and with it this cache's references to their
  /// runs; the memo keeps its own. Generations survive, so re-enabling is
  /// safe.
  void clear();

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }
  std::size_t size() const { return resident_; }

  /// The memo this cache builds through (shared or private).
  const DecodeMemo& memo() const { return *memo_; }

  /// Test hook: the current write generation of a frame.
  u32 frame_generation(HostFrame frame) const { return gen(frame); }

 private:
  static constexpr u32 kEmptySlot = 0xFFFFFFFFu;

  static u32 probe_start(u64 key) {
    // Fibonacci hashing; table size is a power of two.
    return static_cast<u32>((key * 0x9E3779B97F4A7C15ull) >> 40) &
           (kTableSize - 1);
  }

  const DecodedBlock* build(mem::HostMemory& host, HostFrame frame,
                            u32 offset);
  u32 gen(HostFrame frame) const {
    return frame < frame_gens_.size() ? frame_gens_[frame] : 0;
  }
  void set_cursor(const DecodedBlock& block, GVirt va) {
    cur_insns_ = block.insns.data();
    cur_count_ = static_cast<u32>(block.insns.size());
    cur_idx_ = 0;
    cur_va_ = va;
    cur_frame_ = block.frame;
    cur_gen_ = block.frame_gen;
  }

  std::unique_ptr<DecodeMemo> own_memo_;  // set when no memo was supplied
  DecodeMemo* memo_;

  // Open-addressing table: slots_[i] indexes arena_, keys_[i] is the block
  // key. In-place rebuilds repoint the slot at a fresh arena entry; the old
  // entry (and its run) stays alive until the next clear, which is what
  // makes cursor copies safe.
  std::vector<u32> slots_ = std::vector<u32>(kTableSize, kEmptySlot);
  std::vector<u64> keys_ = std::vector<u64>(kTableSize, 0);
  std::vector<DecodedBlock> arena_;
  u32 resident_ = 0;  // occupied slots (arena may hold superseded entries)

  std::vector<u32> frame_gens_;  // write generation per host frame
  std::vector<u8> frame_live_;   // 1 = frame has decodes at its current gen

  // Straight-line execution cursor (copies, not a block pointer — see file
  // comment).
  const MicroOp* cur_insns_ = nullptr;
  u32 cur_count_ = 0;
  u32 cur_idx_ = 0;
  GVirt cur_va_ = 0;
  HostFrame cur_frame_ = 0;
  u32 cur_gen_ = 0;

  Stats stats_;
};

}  // namespace fc::cpu
