// Decoded-block cache tests: hit behaviour, cycle parity against the
// uncached interpreter, self-modifying-code invalidation through the
// HostMemory write barrier (a guest store over a cached block must be
// observed on the very next step), code-load invalidation (the recovery
// path rewriting UD2 filler), EPT view repoints mid-run (no flush, and the
// original blocks revive on switch-back), and a harness-level store over a
// recovered function body under a live view. The DecodeMemo tests pin the content
// memo's soundness: which byte range a hit is verified over (RET-, UD2-,
// cap-, page-end- and failure-ended blocks), that a hit is accounted exactly
// like a fresh decode, eviction at the cap, SMC and recovery rewrites over
// memoized runs, store-backed runs, and concurrent builds from four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>

#include "harness/harness.hpp"
#include "isa/assembler.hpp"
#include "vcpu/decode_memo.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::cpu {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr GVirt kCodeVa = kKernelBase + 0x10000;
constexpr GVirt kStackTop = kKernelBase + 0x20000;
constexpr GVirt kIdt = kKernelBase + 0x30000;
constexpr GVirt kEsp0 = kKernelBase + 0x30400;

/// Bare machine + vCPU with the kernel half direct-mapped (the vcpu_test
/// setup). A plain struct so tests can spin up a second, independent guest
/// for cached-vs-uncached comparisons.
struct MiniGuest {
  explicit MiniGuest(DecodeMemo* memo = nullptr)
      : machine(8), vcpu(machine, memo) {
    mem::GuestPageTableBuilder builder(machine, 0x1000, 0x100000);
    dir = builder.create_directory();
    builder.map(dir, kKernelBase, 0, machine.guest_phys_pages());
    vcpu.set_cr3(dir);
    vcpu.set_idt_base(kIdt);
    vcpu.set_kstack_ptr_addr(kEsp0);
    vcpu.regs().mode = Mode::kKernel;
    vcpu.regs()[Reg::SP] = kStackTop;
  }

  void load(Assembler& a) {
    std::vector<u8> bytes = a.finish(kCodeVa);
    machine.pwrite_bytes(mem::GuestLayout::kernel_pa(kCodeVa), bytes);
    vcpu.regs().pc = kCodeVa;
  }

  Exit run(u64 budget = 100'000) { return vcpu.run(budget); }

  mem::Machine machine;
  Vcpu vcpu;
  GPhys dir = 0;
};

class BlockCacheFixture : public ::testing::Test {
 protected:
  MiniGuest g_;
};

TEST_F(BlockCacheFixture, HotLoopIsServedFromDecodedBlocks) {
  Assembler a;
  a.mov_imm(Reg::A, 200);
  auto loop = a.make_label();
  a.bind(loop);
  a.sub_imm_a(1);
  a.jnz(loop);
  a.hlt();
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  const BlockCache::Stats& stats = g_.vcpu.block_cache().stats();
  // ~400 loop instructions served from a handful of decodes.
  EXPECT_GT(stats.insn_hits, 300u);
  EXPECT_GT(stats.blocks_built, 0u);
  EXPECT_LT(stats.insns_decoded, 20u);
}

TEST_F(BlockCacheFixture, CacheOnAndOffComputeIdenticalResults) {
  auto program = [] {
    Assembler a;
    a.mov_imm(Reg::A, 50);
    a.mov_imm(Reg::B, 3);
    auto loop = a.make_label();
    a.bind(loop);
    a.add(Reg::C, Reg::B);
    a.sub_imm_a(1);
    a.jnz(loop);
    a.hlt();
    return a;
  };
  Assembler cached = program();
  g_.load(cached);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);

  MiniGuest fresh;
  fresh.vcpu.set_block_cache_enabled(false);
  Assembler uncached = program();
  fresh.load(uncached);
  EXPECT_EQ(fresh.run().reason, ExitReason::kHalt);
  EXPECT_EQ(fresh.vcpu.regs().gpr, g_.vcpu.regs().gpr);
  EXPECT_EQ(fresh.vcpu.regs().pc, g_.vcpu.regs().pc);
  // Cycle parity, not just architectural parity: simulated time feeds back
  // into guest-visible state (rdtsc, IRQ release points).
  EXPECT_EQ(fresh.vcpu.cycles(), g_.vcpu.cycles());
  EXPECT_EQ(fresh.vcpu.block_cache().stats().insn_hits, 0u);
  EXPECT_GT(g_.vcpu.block_cache().stats().insn_hits, 0u);
}

// A guest store that overwrites an already-cached-and-executed instruction:
// the rewritten bytes must take effect on the very next execution.
TEST_F(BlockCacheFixture, GuestStoreOverCachedBlockIsObservedNextStep) {
  Assembler a;
  // Pass 1 executes `mov D, 0x1111` (caching its block), then patches that
  // very instruction's immediate to 0x2222 and loops back to re-execute it.
  auto loop = a.make_label();
  a.bind(loop);                 // kCodeVa + 0
  a.mov_imm(Reg::D, 0x1111);    // 5 bytes; the immediate lives at kCodeVa + 1
  a.mov(Reg::A, Reg::C);
  a.cmp_imm_a(0);
  auto first_pass = a.make_label();
  a.jz(first_pass);
  a.hlt();                      // pass 2 ends here
  a.bind(first_pass);
  a.mov_imm(Reg::A, 0x2222);
  a.store_abs(kCodeVa + 1);     // self-modifying store over cached code
  a.mov_imm(Reg::C, 1);
  a.jmp(loop);
  g_.load(a);

  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  // The second pass saw the patched immediate, not the stale decode.
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 0x2222u);
  EXPECT_GE(g_.vcpu.block_cache().stats().inval_guest_write, 1u);
  EXPECT_GT(g_.vcpu.block_cache().stats().insn_hits, 0u);
}

// The recovery path: code that traps as UD2 gets rewritten (through the
// write barrier, attributed as a code load) and must execute its new bytes
// immediately on resume — a stale cached UD2 decode would re-trap forever.
TEST_F(BlockCacheFixture, CodeLoadRewriteInvalidatesCachedUd2Decode) {
  Assembler a;
  a.mov_imm(Reg::A, 7);
  a.ud2();  // stands in for view filler
  g_.load(a);
  Exit exit = g_.run();
  ASSERT_EQ(exit.reason, ExitReason::kInvalidOpcode);
  const GVirt trap_pc = exit.pc;
  // Trap once more so the UD2's decode is definitely cache-resident.
  ASSERT_EQ(g_.run().reason, ExitReason::kInvalidOpcode);

  // "Recover" the function: overwrite the UD2 with `add_imm_a 1; hlt`, the
  // way RecoveryEngine copies pristine bytes into a shadow frame.
  {
    mem::HostMemory::WriteCauseScope cause(g_.machine.host(),
                                           mem::FrameWriteCause::kCodeLoad);
    Assembler patch;
    patch.add_imm_a(1);
    patch.hlt();
    g_.machine.pwrite_bytes(mem::GuestLayout::kernel_pa(trap_pc),
                            patch.finish(trap_pc));
  }
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);  // runs the new code
  EXPECT_EQ(g_.vcpu.regs()[Reg::A], 8u);
  EXPECT_GE(g_.vcpu.block_cache().stats().inval_code_load, 1u);
}

TEST_F(BlockCacheFixture, DisablingDropsResidentBlocks) {
  Assembler a;
  a.mov_imm(Reg::A, 3);
  auto loop = a.make_label();
  a.bind(loop);
  a.sub_imm_a(1);
  a.jnz(loop);
  a.hlt();
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_GT(g_.vcpu.block_cache().size(), 0u);
  g_.vcpu.set_block_cache_enabled(false);
  EXPECT_EQ(g_.vcpu.block_cache().size(), 0u);
}

/// A countdown loop: A starts at `iters`, the body adds `step` to D each
/// pass. Identical layout for any `step`, so another frame holding it with a
/// different step swaps semantics without moving a single branch target.
Assembler countdown_loop(u32 iters, u32 step) {
  Assembler a;
  a.mov_imm(Reg::A, iters);
  a.mov_imm(Reg::B, 1);
  a.mov_imm(Reg::D, 0);
  auto head = a.make_label();
  a.bind(head);
  for (u32 i = 0; i < step; ++i) a.add(Reg::D, Reg::B);
  a.sub(Reg::A, Reg::B);
  a.jnz(head);
  a.hlt();
  return a;
}

// FACE-CHANGE's no-flush property: repointing the EPT to another view's
// frame mid-run swings the very next fetch to that frame's blocks (post-EPT
// keying: nothing to invalidate, nothing to flush), and switching back
// serves the original blocks without a rebuild.
TEST_F(BlockCacheFixture, ViewRepointMidRunSwitchesBlocksWithoutFlush) {
  // The alternate view's frame holds the same loop with a doubled step.
  // Filled before any repoint, while the EPT still maps it identity.
  constexpr GPhys kAltPa = 0x40000;
  const auto alt_frame = *g_.machine.ept().translate(kAltPa);
  {
    Assembler alt = countdown_loop(60, 2);
    g_.machine.pwrite_bytes(kAltPa, alt.finish(kCodeVa));
  }
  Assembler base = countdown_loop(60, 1);
  g_.load(base);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);  // decode every block once
  g_.vcpu.regs().pc = kCodeVa;

  // 3 prologue instructions + 20 iterations x 3 = budget 63 stops exactly
  // at the loop head, mid-run, with D == 20.
  EXPECT_EQ(g_.run(63).reason, ExitReason::kInstructionLimit);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 20u);
  const BlockCache::Stats& stats = g_.vcpu.block_cache().stats();
  const u64 built_before = stats.blocks_built;
  auto invalidations = [&stats] {
    return stats.inval_guest_write + stats.inval_code_load +
           stats.inval_recycle + stats.inval_capacity;
  };
  const u64 invalidated_before = invalidations();

  // Repoint the code page to the alternate view's frame (what the engine's
  // view switch does) and resume mid-loop.
  g_.machine.ept().map(mem::GuestLayout::kernel_pa(kCodeVa), alt_frame);
  g_.machine.ept().invalidate();
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  // 40 remaining iterations ran the alternate bytes: D = 20 + 40 * 2.
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 100u);
  EXPECT_GT(stats.blocks_built, built_before);  // the new frame's blocks
  EXPECT_EQ(invalidations(), invalidated_before);
  const u64 built_after_switch = stats.blocks_built;

  // Switch back: the original frame's blocks are served as they are.
  g_.machine.ept().map(mem::GuestLayout::kernel_pa(kCodeVa),
                       mem::GuestLayout::kernel_pa(kCodeVa) / kPageSize);
  g_.machine.ept().invalidate();
  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 60u);  // original single-step semantics
  EXPECT_EQ(stats.blocks_built, built_after_switch);
  EXPECT_EQ(invalidations(), invalidated_before);
}

// ---------------------------------------------------------------------------
// DecodeMemo: content-keyed, byte-verified decode sharing.
// ---------------------------------------------------------------------------

/// A fresh zero-backed frame (0x00 never decodes) with `bytes` at `offset`.
HostFrame frame_with(mem::HostMemory& host, u32 offset,
                     std::vector<u8> bytes) {
  const HostFrame f = host.alloc_frame();
  host.write_bytes(f, offset, bytes);
  return f;
}

/// Build (or find) the block at (frame, offset) and return its micro-ops
/// (the arena entry co-owns their run until the next clear).
std::span<const MicroOp> block_at(BlockCache& cache, mem::HostMemory& host,
                                  HostFrame frame, u32 offset) {
  const std::span<const MicroOp> block =
      cache.fetch(host, frame, offset, kCodeVa + offset);
  EXPECT_FALSE(block.empty());
  return block;
}

TEST(DecodeMemo, IdenticalFramesShareOneRunAndCountAsBuilds) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  const std::vector<u8> code = {0xB8, 1, 0, 0, 0, 0x01, 0xD8, 0xC3};
  const HostFrame a = frame_with(host, 64, code);
  const HostFrame b = frame_with(host, 64, code);

  const std::span<const MicroOp> fa = cache.fetch(host, a, 64, kCodeVa);
  EXPECT_EQ(cache.stats().insns_decoded, 3u);
  const std::span<const MicroOp> fb = cache.fetch(host, b, 64, kCodeVa);
  EXPECT_EQ(cache.stats().insns_decoded, 6u);  // a hit still counts as a build
  EXPECT_EQ(cache.stats().blocks_built, 2u);
  EXPECT_EQ(fa.data(), fb.data());  // both blocks share one run
  const DecodeMemo::Stats ms = memo.stats();
  EXPECT_EQ(ms.lookups, 2u);
  EXPECT_EQ(ms.hits, 1u);
  EXPECT_EQ(ms.resident_runs, 1u);
  EXPECT_EQ(ms.resident_insns, 3u);
  EXPECT_EQ(ms.copied_bytes, code.size());  // private frames: copied once
}

TEST(DecodeMemo, SharedMemoVmMatchesAFreshlyDecodingVm) {
  auto program = [] {
    Assembler a;
    a.mov_imm(Reg::A, 40);
    a.mov_imm(Reg::B, 5);
    auto loop = a.make_label();
    a.bind(loop);
    a.add(Reg::C, Reg::B);
    a.xor_(Reg::D, Reg::C);
    a.sub_imm_a(1);
    a.jnz(loop);
    a.hlt();
    return a;
  };
  DecodeMemo memo;
  MiniGuest warm(&memo);
  MiniGuest shared(&memo);
  MiniGuest fresh;
  for (MiniGuest* g : {&warm, &shared, &fresh}) {
    Assembler a = program();
    g->load(a);
  }
  ASSERT_EQ(warm.run().reason, ExitReason::kHalt);
  const DecodeMemo::Stats before = memo.stats();
  ASSERT_EQ(shared.run().reason, ExitReason::kHalt);
  ASSERT_EQ(fresh.run().reason, ExitReason::kHalt);
  const DecodeMemo::Stats after = memo.stats();
  // Every build of the second VM came from the memo...
  EXPECT_GT(after.lookups, before.lookups);
  EXPECT_EQ(after.hits - before.hits, after.lookups - before.lookups);
  // ...and is indistinguishable from decoding afresh.
  const BlockCache::Stats& s = shared.vcpu.block_cache().stats();
  const BlockCache::Stats& f = fresh.vcpu.block_cache().stats();
  EXPECT_EQ(s.blocks_built, f.blocks_built);
  EXPECT_EQ(s.insns_decoded, f.insns_decoded);
  EXPECT_EQ(s.block_misses, f.block_misses);
  EXPECT_EQ(s.insn_hits, f.insn_hits);
  EXPECT_EQ(shared.vcpu.cycles(), fresh.vcpu.cycles());
  EXPECT_EQ(shared.vcpu.regs().gpr, fresh.vcpu.regs().gpr);
}

// A block that stopped on a decode failure depends on the bytes at and
// after the failing position: once they decode, the short block must not be
// served, even though every byte of its instructions is unchanged.
TEST(DecodeMemo, FailureEndedBlockIsVerifiedPastTheFailure) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  // Sixteen NOPs fill the key prefix, so both frames share a key; then
  // FF 14 00 (invalid) vs FF 14 85 imm32 (CALLTAB).
  auto code = [](u8 third) {
    const u8 tail[] = {0xFF, 0x14, third, 0, 0, 1, 0};
    std::vector<u8> bytes(16 + sizeof(tail), 0x90);
    std::copy(std::begin(tail), std::end(tail), bytes.begin() + 16);
    return bytes;
  };
  const HostFrame bad = frame_with(host, 0, code(0x00));
  const HostFrame good = frame_with(host, 0, code(0x85));
  EXPECT_EQ(block_at(cache, host, bad, 0).size(), 16u);
  const std::span<const MicroOp> b = block_at(cache, host, good, 0);
  ASSERT_EQ(b.size(), 17u);
  EXPECT_EQ(b[16].op, isa::Op::kCallTab);
  EXPECT_EQ(memo.stats().hits, 0u);

  // The same rewrite in place: the frame's generation retires the short
  // block, and the memo must not hand it back either.
  mem::HostMemory host2;
  BlockCache cache2(&memo);
  host2.add_code_write_sink(&cache2);
  const HostFrame f = frame_with(host2, 0, code(0x00));
  EXPECT_EQ(block_at(cache2, host2, f, 0).size(), 16u);  // memo hit
  EXPECT_EQ(memo.stats().hits, 1u);
  host2.write8(f, 18, 0x85);
  EXPECT_EQ(block_at(cache2, host2, f, 0).size(), 17u);
  host2.remove_code_write_sink(&cache2);
}

// The bytes after a RET (or UD2) are the next function, or UD2 fill, and
// differ between views: they are not part of the block and must not defeat
// a hit.
TEST(DecodeMemo, BytesAfterTheBlockEndDoNotDefeatAHit) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  const HostFrame filled =
      frame_with(host, 8, {0x90, 0xC3, 0x0F, 0x0B, 0x0F, 0x0B, 0x0F, 0x0B});
  const HostFrame code =
      frame_with(host, 8, {0x90, 0xC3, 0xB8, 1, 0, 0, 0, 0xC3});
  EXPECT_EQ(block_at(cache, host, filled, 8).size(), 2u);
  EXPECT_EQ(block_at(cache, host, code, 8).size(), 2u);
  EXPECT_EQ(memo.stats().hits, 1u);

  const HostFrame ud2_then_fill = frame_with(host, 8, {0x0F, 0x0B, 0x0F, 0x0B});
  const HostFrame ud2_then_code = frame_with(host, 8, {0x0F, 0x0B, 0x90, 0xC3});
  EXPECT_EQ(block_at(cache, host, ud2_then_fill, 8).size(), 1u);
  EXPECT_EQ(block_at(cache, host, ud2_then_code, 8).size(), 1u);
  EXPECT_EQ(memo.stats().hits, 2u);
}

TEST(DecodeMemo, CapEndedBlockCoversExactlyItsInstructions) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  const u32 cap = DecodeMemo::kMaxBlockInsns;
  std::vector<u8> nops(2 * cap, 0x90);
  const HostFrame a = frame_with(host, 0, nops);
  nops[cap] = 0xC3;  // first byte past the cap
  const HostFrame b = frame_with(host, 0, nops);
  nops[cap - 1] = 0xC3;  // last byte inside the block
  const HostFrame c = frame_with(host, 0, nops);
  EXPECT_EQ(block_at(cache, host, a, 0).size(), cap);
  EXPECT_EQ(block_at(cache, host, b, 0).size(), cap);
  EXPECT_EQ(memo.stats().hits, 1u);
  const std::span<const MicroOp> shorter = block_at(cache, host, c, 0);
  EXPECT_EQ(shorter.size(), cap);
  EXPECT_EQ(shorter.back().op, isa::Op::kRet);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(DecodeMemo, PageEndTruncationIsVerifiedToThePageEnd) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  constexpr u32 kOff = kPageSize - 6;
  // Three NOPs, then MOV r,imm32 with only 3 of its 5 bytes in-page.
  const HostFrame a = frame_with(host, kOff, {0x90, 0x90, 0x90, 0xB8, 1, 2});
  const HostFrame b = frame_with(host, kOff, {0x90, 0x90, 0x90, 0xB8, 1, 2});
  const HostFrame c = frame_with(host, kOff, {0x90, 0x90, 0x90, 0xB8, 1, 3});
  EXPECT_EQ(block_at(cache, host, a, kOff).size(), 3u);
  EXPECT_EQ(block_at(cache, host, b, kOff).size(), 3u);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(block_at(cache, host, c, kOff).size(), 3u);
  EXPECT_EQ(memo.stats().hits, 1u);  // the last page byte differs: a miss

  // Running exactly into the page end.
  const HostFrame d = frame_with(host, kPageSize - 4, {0x90, 0x90, 0x90, 0x90});
  const HostFrame e = frame_with(host, kPageSize - 4, {0x90, 0x90, 0x90, 0x90});
  EXPECT_EQ(block_at(cache, host, d, kPageSize - 4).size(), 4u);
  EXPECT_EQ(block_at(cache, host, e, kPageSize - 4).size(), 4u);
  EXPECT_EQ(memo.stats().hits, 2u);
}

// Past its cap the memo drops runs, but a block cache still replays the run
// it holds: the arena co-owns it.
TEST(DecodeMemo, FillingPastTheCapKeepsHeldRunsAlive) {
  mem::HostMemory host;
  DecodeMemo memo;
  BlockCache cache(&memo);
  const u32 cap = DecodeMemo::kMaxBlockInsns;
  std::vector<u8> bytes(cap + 4, 0x90);
  bytes[0] = 0xB8;  // mov A, 0 (imm at 1..4), then NOPs to the cap
  std::fill(bytes.begin() + 1, bytes.begin() + 5, 0);
  const HostFrame held = frame_with(host, 0, bytes);
  ASSERT_EQ(block_at(cache, host, held, 0)[0].imm, 0u);

  const HostFrame scratch = frame_with(host, 0, bytes);
  const u32 runs = 2 * DecodeMemo::kMaxResidentInsns / cap;
  for (u32 i = 1; i <= runs; ++i) {
    host.write32(scratch, 1, i);
    EXPECT_EQ(memo.decode(host, scratch, 0)->insns[0].imm, i);
    const DecodeMemo::Stats s = memo.stats();
    ASSERT_LE(s.resident_insns, DecodeMemo::kMaxResidentInsns);
    ASSERT_LE(s.resident_runs, DecodeMemo::kMaxResidentRuns);
  }
  EXPECT_LT(memo.stats().resident_runs, runs);
  // Empty (failure-at-entry) runs count against the run cap.
  host.write8(scratch, 0, 0x00);
  for (u32 i = 0; i < 2 * DecodeMemo::kMaxResidentRuns; ++i) {
    host.write32(scratch, 1, i);
    EXPECT_TRUE(memo.decode(host, scratch, 0)->insns.empty());
  }
  EXPECT_LE(memo.stats().resident_runs, DecodeMemo::kMaxResidentRuns);

  // The first block is still served (a table hit, no rebuild) and intact.
  const u64 built = cache.stats().blocks_built;
  const std::span<const MicroOp> again = cache.fetch(host, held, 0, kCodeVa);
  ASSERT_FALSE(again.empty());
  EXPECT_EQ(cache.stats().blocks_built, built);
  EXPECT_EQ(again[0].op, isa::Op::kMovImm);
  EXPECT_EQ(again[0].imm, 0u);
}

// Runs decoded from frames backed by the memo's own store point into the
// immutable store page; only private sources are copied.
TEST(DecodeMemo, StoreBackedRunsAreNotCopied) {
  mem::SharedFrameStore store;
  std::vector<u8> page(kPageSize, 0);
  const std::vector<u8> code = {0x90, 0x90, 0xC3};
  std::copy(code.begin(), code.end(), page.begin() + 32);
  const u32 id = store.add_page(page);
  store.freeze();

  mem::HostMemory host;
  host.attach_store(&store);
  DecodeMemo memo(&store);
  BlockCache cache(&memo);
  const HostFrame shared = host.adopt_shared(id);
  const std::span<const MicroOp> block = block_at(cache, host, shared, 32);
  EXPECT_EQ(memo.decode(host, shared, 32)->bytes, store.page_data(id) + 32);
  EXPECT_EQ(memo.stats().copied_bytes, 0u);
  const HostFrame priv = frame_with(host, 32, code);
  EXPECT_EQ(block_at(cache, host, priv, 32).data(), block.data());
  EXPECT_EQ(memo.stats().copied_bytes, 0u);

  // A memo without the store copies even store-backed sources.
  DecodeMemo other;
  BlockCache other_cache(&other);
  block_at(other_cache, host, shared, 32);
  EXPECT_EQ(other.stats().copied_bytes, code.size());
}

/// Run the self-modifying program of GuestStoreOverCachedBlockIsObserved-
/// NextStep, patching the immediate to `patched`.
void load_smc_program(MiniGuest& g, u32 patched) {
  Assembler a;
  auto loop = a.make_label();
  a.bind(loop);
  a.mov_imm(Reg::D, 0x1111);
  a.mov(Reg::A, Reg::C);
  a.cmp_imm_a(0);
  auto first_pass = a.make_label();
  a.jz(first_pass);
  a.hlt();
  a.bind(first_pass);
  a.mov_imm(Reg::A, patched);
  a.store_abs(kCodeVa + 1);
  a.mov_imm(Reg::C, 1);
  a.jmp(loop);
  g.load(a);
}

TEST(DecodeMemo, SmcOverAMemoizedRunDecodesTheNewBytes) {
  DecodeMemo memo;
  MiniGuest warm(&memo);
  load_smc_program(warm, 0x3333);  // memoizes the pre- and post-store runs
  ASSERT_EQ(warm.run().reason, ExitReason::kHalt);
  ASSERT_EQ(warm.vcpu.regs()[Reg::D], 0x3333u);

  // Same code up to the store, a different patched immediate: the entry
  // block hits the memo before the store and must miss after it.
  MiniGuest shared(&memo);
  MiniGuest fresh;
  load_smc_program(shared, 0x2222);
  load_smc_program(fresh, 0x2222);
  const DecodeMemo::Stats before = memo.stats();
  ASSERT_EQ(shared.run().reason, ExitReason::kHalt);
  ASSERT_EQ(fresh.run().reason, ExitReason::kHalt);
  EXPECT_EQ(shared.vcpu.regs()[Reg::D], 0x2222u);
  EXPECT_GT(memo.stats().hits, before.hits);
  EXPECT_GE(shared.vcpu.block_cache().stats().inval_guest_write, 1u);
  EXPECT_EQ(shared.vcpu.cycles(), fresh.vcpu.cycles());
  EXPECT_EQ(shared.vcpu.block_cache().stats().insns_decoded,
            fresh.vcpu.block_cache().stats().insns_decoded);
}

TEST(DecodeMemo, RecoveryRewriteOverAMemoizedRunDecodesTheNewBytes) {
  DecodeMemo memo;
  for (u32 step : {1u, 1u, 2u}) {  // warm, then identical, then different
    MiniGuest g(&memo);
    Assembler a;
    a.mov_imm(Reg::A, 7);
    a.ud2();
    g.load(a);
    Exit exit = g.run();
    ASSERT_EQ(exit.reason, ExitReason::kInvalidOpcode);
    {
      mem::HostMemory::WriteCauseScope cause(g.machine.host(),
                                             mem::FrameWriteCause::kCodeLoad);
      Assembler patch;
      patch.add_imm_a(step);
      patch.hlt();
      g.machine.pwrite_bytes(mem::GuestLayout::kernel_pa(exit.pc),
                             patch.finish(exit.pc));
    }
    ASSERT_EQ(g.run().reason, ExitReason::kHalt);
    EXPECT_EQ(g.vcpu.regs()[Reg::A], 7u + step);
    EXPECT_GE(g.vcpu.block_cache().stats().inval_code_load, 1u);
  }
}

// Four threads, each with its own host memory and block cache, build
// identical blocks and same-prefix blocks (equal first 16 bytes, so equal
// keys) that differ further in, all through one memo.
TEST(DecodeMemo, ConcurrentBuildsThroughOneMemo) {
  DecodeMemo memo;
  constexpr u32 kThreads = 4;
  constexpr u32 kRounds = 300;
  std::vector<u32> wrong(kThreads, 0);
  auto worker = [&memo, &wrong](u32 tid) {
    mem::HostMemory host;
    BlockCache cache(&memo);
    for (u32 i = 0; i < kRounds; ++i) {
      std::vector<u8> bytes(16, 0x90);
      const u32 common = i % 5;
      const u32 own = (tid + 1) * 1000 + i % 5;
      for (u32 imm : {common, own}) {
        std::vector<u8> code = bytes;
        code.push_back(0xB8);
        for (int k = 0; k < 4; ++k)
          code.push_back(static_cast<u8>(imm >> (8 * k)));
        code.push_back(0xC3);
        const HostFrame f = frame_with(host, 128, code);
        const std::span<const MicroOp> block =
            cache.fetch(host, f, 128, kCodeVa);
        if (block.size() != 18 || block[16].imm != imm) ++wrong[tid];
      }
    }
  };
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  for (u32 t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0u) << "thread " << t;
  const DecodeMemo::Stats s = memo.stats();
  EXPECT_EQ(s.lookups, u64{kThreads} * kRounds * 2);
  EXPECT_GT(s.hits, 0u);
}

}  // namespace
}  // namespace fc::cpu

// ---------------------------------------------------------------------------
// Harness level: a guest store over a *recovered function body* while its
// view is active must invalidate the shadow frame's cached decodes — the
// very next fetch of the overwritten address must decode the new bytes, and
// the run must keep making progress (re-trap → re-recovery), not replay the
// stale pristine decode.
// ---------------------------------------------------------------------------
namespace fc {
namespace {

TEST(BlockCacheRecovery, StoreOverRecoveredFunctionBodyIsObserved) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  core::KernelViewConfig cfg = harness::profile_of("top");
  cfg.app_name = "intruder";
  u32 view = engine.load_view(cfg);
  engine.bind("intruder", view);

  // Run an ext4-heavy workload under top's view until something recovers.
  apps::AppScenario gzip = apps::make_app("gzip", 6);
  u32 pid = sys.os().spawn("intruder", gzip.model);
  Cycles budget = 600'000'000;
  while (engine.recovery_log().size() == 0 && sys.os().task_alive(pid) &&
         budget > 0) {
    sys.run_for(5'000'000);
    budget -= 5'000'000;
  }
  ASSERT_GT(engine.recovery_log().size(), 0u);
  const core::RecoveryEvent& ev = engine.recovery_log().events().front();
  ASSERT_GT(ev.recovered_end, ev.recovered_start);

  // Pin the intruder's view so stage-1 + EPT resolve the recovered body to
  // its *shadow* frame (never the pristine boot frame), then make sure a
  // decode of the recovered bytes is cache-resident.
  engine.force_activate(view);
  cpu::BlockCache& cache = sys.vcpu().block_cache();
  mem::Mmu& mmu = sys.hv().machine().mmu();
  auto frame = mmu.translate_page(page_base(ev.recovered_start));
  ASSERT_TRUE(frame.has_value());
  const std::span<const cpu::MicroOp> before = cache.fetch(
      sys.hv().machine().host(), *frame, page_offset(ev.recovered_start),
      ev.recovered_start);
  ASSERT_FALSE(before.empty());
  EXPECT_NE(before[0].op, isa::Op::kUd2);  // the body was recovered
  const u32 gen_before = cache.frame_generation(*frame);
  const u64 smc_invals_before = cache.stats().inval_guest_write;

  // Overwrite the first bytes of the recovered body with UD2 through the
  // guest store path (what in-guest SMC — or an attacker — would do).
  mmu.write8(ev.recovered_start, 0x0F);
  mmu.write8(ev.recovered_start + 1, 0x0B);
  EXPECT_EQ(cache.frame_generation(*frame), gen_before + 1);
  EXPECT_GE(cache.stats().inval_guest_write, smc_invals_before + 1);

  // Observed on the very next fetch: the stale block is rebuilt and the
  // overwritten address now decodes as UD2.
  const u64 built = cache.stats().blocks_built;
  const std::span<const cpu::MicroOp> after = cache.fetch(
      sys.hv().machine().host(), *frame, page_offset(ev.recovered_start),
      ev.recovered_start);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(cache.stats().blocks_built, built + 1);  // rebuilt, not stale
  EXPECT_EQ(after[0].op, isa::Op::kUd2);

  // The run keeps making progress: executing the clobbered body traps on
  // the new bytes and recovery restores it again.
  hv::RunOutcome outcome = sys.run_until_exit(pid, 600'000'000);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

// Every VM booted from one SharedImage builds through the image's memo; a
// FreshBoot VM owns a private one.
TEST(DecodeMemoScope, VmsOfOneImageShareItsMemo) {
  const core::SharedImage& image = harness::boot_image_for({});
  harness::GuestSystem a;
  harness::GuestSystem b;
  harness::GuestSystem fresh(os::OsConfig{}, harness::GuestSystem::FreshBoot{});
  EXPECT_EQ(&a.vcpu().block_cache().memo(), &image.decode_memo);
  EXPECT_EQ(&b.vcpu().block_cache().memo(), &image.decode_memo);
  EXPECT_NE(&fresh.vcpu().block_cache().memo(), &image.decode_memo);
}

// Memo counts depend on what else decoded through the memo, so the run
// report shows them but the exported metrics never carry them.
TEST(DecodeMemoScope, RunReportShowsTheMemoAndMetricsDoNot) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  sys.run_for(2'000'000);
  EXPECT_NE(engine.render_run_report().find("\ndecode memo: "),
            std::string::npos);
  EXPECT_EQ(engine.metrics_json().find("memo"), std::string::npos);
}

// The block tier's simple-op batches are a host dispatch shape: the run
// report shows them, the exported metrics never carry them.
TEST(BlockBatches, RunReportShowsThemAndMetricsDoNot) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  sys.run_for(2'000'000);
  const cpu::BlockCache::Stats& stats = sys.vcpu().block_cache().stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.batch_insns, stats.batches);
  EXPECT_LE(stats.batch_insns, stats.insn_hits);
  const std::string report = engine.render_run_report();
  const std::string line = "\nblock batches: " +
                           std::to_string(stats.batch_insns) + " insns in " +
                           std::to_string(stats.batches) + " batches (mean ";
  EXPECT_NE(report.find(line), std::string::npos) << report;
  EXPECT_EQ(engine.metrics_json().find("batch"), std::string::npos);
}

}  // namespace
}  // namespace fc
