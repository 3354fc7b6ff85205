#include "vcpu/decode_memo.hpp"

#include <algorithm>
#include <cstring>

namespace fc::cpu {

namespace {

static_assert((DecodeMemo::kShards & (DecodeMemo::kShards - 1)) == 0);
constexpr u32 kShardRunCap =
    DecodeMemo::kMaxResidentRuns / DecodeMemo::kShards;
constexpr u32 kShardInsnCap =
    DecodeMemo::kMaxResidentInsns / DecodeMemo::kShards;

/// UD2 ends a block like control flow does: it always traps, and under
/// FACE-CHANGE the bytes after it are usually more filler.
bool ends_block(isa::Op op) {
  return isa::is_control_flow(op) || op == isa::Op::kUd2;
}

/// The lookup key: the page offset and the block's leading bytes — whole
/// instructions up to 16 bytes, never past one that ends the block, or the
/// failure window when the first does not decode. Every run's verified range
/// covers those bytes, so two pages a run is valid for (say, the same RET
/// followed by code in one view and UD2 fill in another) share its key. Only
/// a lookup key: every candidate is byte-verified before it is served.
u64 content_key(std::span<const u8> page, u32 offset) {
  constexpr u32 kPrefix = 16;
  u32 at = offset;
  while (at < kPageSize && at - offset < kPrefix) {
    const isa::DecodeResult dec = isa::decode(page.subspan(at));
    if (!dec.ok()) {
      if (at == offset)
        at = std::min(offset + isa::kMaxInstructionLength, kPageSize);
      break;
    }
    at += dec.insn.length;
    if (ends_block(dec.insn.op)) break;
  }
  u8 head[kPrefix + isa::kMaxInstructionLength + 1] = {};
  std::memcpy(head, page.data() + offset, at - offset);
  u64 w[3] = {};
  static_assert(sizeof head == sizeof w);
  std::memcpy(w, head, sizeof w);
  u64 h = ((static_cast<u64>(offset) << 8) | (at - offset)) *
          0x9E3779B97F4A7C15ull;
  for (u64 word : w) {
    h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}

/// Decode and lower the block at `offset` and record the byte range the
/// decode read.
DecodeRun decode_run(std::span<const u8> page, u32 offset) {
  MicroOp insns[DecodeMemo::kMaxBlockInsns];
  u32 n = 0;
  u32 at = offset;
  u32 end = 0;
  for (;;) {
    if (at >= kPageSize || n == DecodeMemo::kMaxBlockInsns) {
      end = at;
      break;
    }
    // Decode strictly from in-page bytes: an instruction straddling the page
    // boundary is left to the slow path, which alone can fetch across the
    // (possibly differently-mapped) next page.
    const isa::DecodeResult dec = isa::decode(page.subspan(at));
    if (!dec.ok()) {
      // The failure may depend on any byte a longest encoding could cover.
      end = std::min(at + isa::kMaxInstructionLength, kPageSize);
      break;
    }
    insns[n++] = lower_insn(dec.insn);
    at += dec.insn.length;
    if (ends_block(dec.insn.op)) {
      end = at;
      break;
    }
  }
  DecodeRun run;
  run.offset = static_cast<u16>(offset);
  run.end = static_cast<u16>(end);
  run.insns.assign(insns, insns + n);
  return run;
}

}  // namespace

std::shared_ptr<const DecodeRun> DecodeMemo::decode(
    const mem::HostMemory& host, HostFrame frame, u32 offset) {
  const std::span<const u8> page = host.frame(frame);
  const u8* at = page.data() + offset;
  const u64 key = content_key(page, offset);
  Shard& shard = shards_[(key >> 32) & (kShards - 1)];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.lookups;
    auto [it, last] = shard.runs.equal_range(key);
    for (; it != last; ++it) {
      const DecodeRun& run = *it->second;
      if (run.offset == offset &&
          std::memcmp(run.bytes, at, run.end - run.offset) == 0) {
        ++shard.hits;
        return it->second;
      }
    }
  }

  auto run = std::make_shared<DecodeRun>(decode_run(page, offset));
  const u32 len = run->end - run->offset;
  const bool in_store =
      store_ != nullptr && host.store() == store_ && host.is_shared(frame);
  if (in_store) {
    run->bytes = at;
  } else {
    run->copy = std::make_unique_for_overwrite<u8[]>(len);
    std::memcpy(run->copy.get(), at, len);
    run->bytes = run->copy.get();
  }

  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.runs.size() >= kShardRunCap ||
      shard.insns + run->insns.size() > kShardInsnCap) {
    shard.runs.clear();
    shard.insns = 0;
    shard.copied_bytes = 0;
  }
  shard.insns += run->insns.size();
  if (!in_store) shard.copied_bytes += len;
  shard.runs.emplace(key, run);
  return run;
}

DecodeMemo::Stats DecodeMemo::stats() const {
  Stats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.lookups += shard.lookups;
    s.hits += shard.hits;
    s.resident_runs += shard.runs.size();
    s.resident_insns += shard.insns;
    s.copied_bytes += shard.copied_bytes;
  }
  return s;
}

}  // namespace fc::cpu
