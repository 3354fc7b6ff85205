#include "vcpu/block_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace fc::cpu {

namespace {
constexpr u64 block_key(HostFrame frame, u32 offset) {
  return (static_cast<u64>(frame) << kPageShift) | offset;
}
}  // namespace

BlockCache::Fetched BlockCache::fetch(mem::HostMemory& host,
                                      HostFrame frame, u32 offset,
                                      GVirt va) {
  // Straight-line cursor: the previous instruction fell through to exactly
  // this (va, frame) and the frame's bytes are unchanged since the decode.
  if (cur_insns_ != nullptr && cur_va_ == va && cur_frame_ == frame &&
      cur_gen_ == gen(frame)) {
    ++stats_.insn_hits;
    return {&cur_insns_[cur_idx_], 0};
  }
  cur_insns_ = nullptr;

  const u64 key = block_key(frame, offset);
  const DecodedBlock* block = nullptr;
  u32 decoded = 0;
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) break;
    if (keys_[i] == key) {
      const DecodedBlock& candidate = arena_[slots_[i]];
      if (candidate.frame_gen == gen(frame)) block = &candidate;
      break;
    }
  }
  if (block == nullptr) {
    ++stats_.block_misses;
    block = build(host, frame, offset);
    if (block == nullptr) {
      ++stats_.uncacheable;
      return {nullptr, 0};
    }
    decoded = static_cast<u32>(block->insns.size());
    if (decoded > 0) FC_TRACE_EVENT(kBlockBuild, 0, 0, va, decoded, frame, 0);
  }
  set_cursor(*block, va);
  ++stats_.insn_hits;
  return {&cur_insns_[0], decoded};
}

const DecodedBlock* BlockCache::build(mem::HostMemory& host,
                                      HostFrame frame, u32 offset) {
  if (arena_.size() >= kMaxBlocks) {
    FC_TRACE_EVENT(kBlockInvalidate, 0, 0, 0, resident_, 0, 0);
    clear();
    ++stats_.inval_capacity;
  }

  std::shared_ptr<const DecodeRun> run = memo_->decode(host, frame, offset);
  if (run->insns.empty()) return nullptr;
  stats_.insns_decoded += run->insns.size();

  DecodedBlock block;
  block.frame = frame;
  block.frame_gen = gen(frame);
  block.insns = run->insns;
  block.run = std::move(run);

  ++stats_.blocks_built;
  if (frame >= frame_gens_.size()) {
    frame_gens_.resize(frame + 1, 0);
    frame_live_.resize(frame + 1, 0);
  }
  frame_live_[frame] = 1;
  host.watch_code_frame(frame);

  const u64 key = block_key(frame, offset);
  arena_.push_back(std::move(block));
  const u32 index = static_cast<u32>(arena_.size() - 1);
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) {
      slots_[i] = index;  // new entry
      keys_[i] = key;
      ++resident_;
      break;
    }
    if (keys_[i] == key) {
      slots_[i] = index;  // in-place rebuild: supersede the stale entry
      break;
    }
  }
  return &arena_[index];
}

void BlockCache::on_code_frame_write(HostFrame frame,
                                     mem::FrameWriteCause cause) {
  // Only the first write since the last decode on this frame matters: bump
  // the generation (invalidating every block built from it) and go quiet
  // until code is cached here again.
  if (frame >= frame_live_.size() || frame_live_[frame] == 0) return;
  frame_live_[frame] = 0;
  ++frame_gens_[frame];
  [[maybe_unused]] u8 cause_flag = 0;  // consumed by FC_TRACE_EVENT only
  switch (cause) {
    case mem::FrameWriteCause::kGuestStore:
      ++stats_.inval_guest_write;
      cause_flag = 1;
      break;
    case mem::FrameWriteCause::kCodeLoad:
      ++stats_.inval_code_load;
      cause_flag = 2;
      break;
    case mem::FrameWriteCause::kRecycle:
      ++stats_.inval_recycle;
      cause_flag = 3;
      break;
  }
  FC_TRACE_EVENT(kBlockInvalidate, cause_flag, 0, frame, 0, 0, 0);
}

void BlockCache::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  arena_.clear();
  resident_ = 0;
  cur_insns_ = nullptr;
  std::fill(frame_live_.begin(), frame_live_.end(), 0);
}

}  // namespace fc::cpu
