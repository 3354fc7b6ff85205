// Content-keyed decode memo: the one place basic blocks are decoded.
//
// Under FACE-CHANGE every view is a UD2-filled shadow copy of the same
// pristine kernel code, so the block cache of each view, each recovery
// rewrite and each VM keeps meeting byte-identical blocks under different
// host frames. The memo decodes and lowers each distinct block once and
// hands the same immutable micro-op run to every block cache that meets
// those bytes again. Micro-ops are position-independent (branch targets are
// resolved from the pc at execution), so a run is valid at any address.
//
//   * Key: (page offset, hash of the block's leading bytes): whole
//     instructions up to 16 bytes, never past the first one that ends the
//     block (a short RET-ended block must find its run whatever follows it),
//     or the failure window when the first instruction does not decode.
//     Content, not the host frame or the store page: single-VM views render
//     private shadow frames, so most builds are on frames no store backs.
//
//   * Verification: a run records the exact byte range its decode read,
//     [offset, end). A block that stopped on control flow, UD2, the
//     instruction cap or the page end read up to the byte after its last
//     instruction (the bytes after a RET belong to the next function, or
//     UD2 fill, and may differ between views). A block that stopped on a
//     decode failure at `at` read up to min(at + kMaxInstructionLength,
//     kPageSize). A hit requires one memcmp over that range, and isa::decode
//     and lower_insn are pure functions of those bytes (at a fixed offset),
//     so a hit is exactly what a fresh decode would return.
//
//   * Storage: a run decoded from a frame backed by the memo's own frozen
//     SharedFrameStore points into that immutable store page; any other
//     source is copied. Runs are immutable, exactly sized and shared-owned,
//     so a shard dropping them at its cap never dangles a block cache's
//     arena entry or cursor.
//
//   * Threading: a SharedImage's memo is consulted by every VM booted from
//     it, on any fleet worker. Shards each guard their table and counters
//     with a mutex; a run is immutable once published under that mutex.
//
// Lookups and hits depend on what ran earlier in the process (and, in a
// fleet, on worker interleaving), so they are host-side observations only:
// simulated accounting (block-cache stats) never depends on whether a build
// hit.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/host_memory.hpp"
#include "support/types.hpp"
#include "vcpu/op_table.hpp"

namespace fc::cpu {

/// One decoded and lowered basic block and the bytes its decode depended
/// on.
struct DecodeRun {
  u16 offset = 0;  // page offset of the first instruction
  u16 end = 0;     // one past the last byte the decode read
  /// The bytes [offset, end) as decoded: a frozen store page, or `copy`.
  const u8* bytes = nullptr;
  std::unique_ptr<u8[]> copy;
  std::vector<MicroOp> insns;  // exactly sized; may be empty
};

class DecodeMemo {
 public:
  /// Longest block in instructions (a page of 1-byte instructions would
  /// otherwise decode 4096 entries nobody ever reaches past a trap).
  static constexpr u32 kMaxBlockInsns = 128;
  /// Resident runs and instructions across all shards (~4 MiB of decodes).
  /// A shard that would pass its share of either drops every run it holds;
  /// block caches keep their own references.
  static constexpr u32 kMaxResidentRuns = 1u << 15;
  static constexpr u32 kMaxResidentInsns = 1u << 18;
  static constexpr u32 kShards = 16;

  /// `store`: the frozen store whose pages may back runs without a copy
  /// (nullptr: copy every source). It must outlive the memo.
  explicit DecodeMemo(const mem::SharedFrameStore* store = nullptr)
      : store_(store) {}
  DecodeMemo(const DecodeMemo&) = delete;
  DecodeMemo& operator=(const DecodeMemo&) = delete;

  /// The basic block at (frame, offset), memoized or freshly decoded. An
  /// empty run means the first instruction does not decode in-page.
  std::shared_ptr<const DecodeRun> decode(const mem::HostMemory& host,
                                          HostFrame frame, u32 offset);

  struct Stats {
    u64 lookups = 0;
    u64 hits = 0;
    u64 resident_runs = 0;
    u64 resident_insns = 0;
    u64 copied_bytes = 0;  // bytes of resident runs held as private copies
  };
  Stats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_multimap<u64, std::shared_ptr<const DecodeRun>> runs;
    u64 lookups = 0;
    u64 hits = 0;
    u64 insns = 0;
    u64 copied_bytes = 0;
  };

  const mem::SharedFrameStore* store_;
  std::array<Shard, kShards> shards_;
};

}  // namespace fc::cpu
