// Seeded random-program lockstep across the vCPU's two execution tiers.
//
// Each seed generates a guest program of straight-line runs, nested counted
// loops, calls, software interrupts and hardware-IRQ handlers over every op
// kOpTable lowers — including the ones no guest code in src/ emits (rdtsc,
// add_imm_a, sub_imm_a), the leave/store_abs/memory-form-or micro-ops, ALU
// ops of all eight kinds right before a Jcc, loads and stores that fault on
// an unmapped page inside a hot loop, and self-modifying stores into the
// running block's own page. Three identical machines run it: uncached,
// block-cache only, and the block tier stepped one instruction per run()
// (every simple-op batch one op long). They are stepped one instruction at
// a time, and
// again in seeded random budgets (so batches run whole), with IRQ edges,
// deferred IRQ releases and breakpoints injected at the same architectural
// points. After every step registers, flags, mode, cycles, retired
// instructions, TLB-miss counts, sampling streams and the exit must match
// exactly, and the two block-tier guests must count the same insn_hits,
// block misses, blocks built and instructions decoded. One
// case maps the code frames at a second virtual address and, once the first
// mapping's blocks are built, runs the program again through the second
// mapping: blocks are keyed by (frame, offset), so the second mapping
// replays the first one's decodes at other addresses.
//
// The hazard variant adds FACE-CHANGE's two code shapes: functions loaded as
// UD2 fill that trap on first call and are "recovered" (pristine bytes
// copied back through the code-load write barrier, in every guest at the
// same step), and calls whose return lands at an odd offset inside UD2 fill,
// where 0B 0F decodes as a valid `or ecx, [edi]`. Those programs run twice
// through one DecodeMemo: on the rerun every block build is a memo hit, and
// the per-step comparison must still hold.
//
// The block tier retires straight-line simple runs as one batch. Two cases
// pin its bounds: loops whose straight-line body runs into the page-tail
// region of a page whose next page is unmapped or TLB-cold, and a
// short-period sampling profiler on every guest, whose (cycles, pc,
// periods) streams must match.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "mem/machine.hpp"
#include "support/rng.hpp"
#include "vcpu/decode_memo.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::cpu {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr u32 kMachineMib = 8;
constexpr GVirt kCodePage = kKernelBase + 0x200000;
constexpr GVirt kStackTop = kKernelBase + 0x180000;
constexpr GVirt kDataVa = kKernelBase + 0x305000;  // DI points here
// Shares the first code page's slot in the direct-mapped TLB: accesses here
// evict the code translation mid-block.
constexpr GVirt kAliasVa = kCodePage + 512 * kPageSize;
constexpr GVirt kIdt = kKernelBase + 0x310000;
constexpr GVirt kEsp0 = kKernelBase + 0x310400;
constexpr GVirt kCallTable = kKernelBase + 0x320000;
constexpr GVirt kUnmapped = kKernelBase + kMachineMib * 1024 * 1024;
// Second mapping of the code pages (aliased-code case only).
constexpr GVirt kCodeAlias = kKernelBase + 0x1000000;
constexpr GVirt kAliasDelta = kCodeAlias - kCodePage;
// Per-site store-target tables of the self-modifying-code construct, and
// the word their non-code entries point at.
constexpr GVirt kSmcTables = kDataVa + 0x400;
constexpr u32 kSmcTableWords = 32;  // > any loop count, indexed by SI
constexpr u32 kMaxSmcSites = 24;
constexpr GVirt kSmcScratch = kDataVa + 0x200;
constexpr u8 kIrqVector = 32;  // line 0
constexpr u8 kSoftVector = 0x40;

constexpr Reg kFree[] = {Reg::A, Reg::B, Reg::C, Reg::D};
constexpr Reg kAny[] = {Reg::A, Reg::B, Reg::C, Reg::D,
                        Reg::SP, Reg::FP, Reg::SI, Reg::DI};

enum class Alu { kAdd, kSub, kXor, kOr, kCmp, kAddImmA, kSubImmA, kCmpImmA };
constexpr int kAluKinds = 8;

struct Program {
  GVirt base = 0;
  std::vector<u8> bytes;
  GVirt irq_handler = 0;
  std::vector<GVirt> functions;
  std::map<GVirt, u8> fault_pcs;  // pc -> length of a load/store that faults
  std::vector<GVirt> breakpoints;
  std::vector<std::pair<GVirt, u32>> data_init;  // words written at setup
  // Hazard variant: start of each UD2-filled function -> its pristine bytes.
  std::map<GVirt, std::vector<u8>> recover;
};

/// Emits one program. Register discipline keeps every generated program
/// terminating: A-D are scratch, SI is the loop counter (saved around nested
/// loops), DI points at the data page, SP/FP are only moved by balanced
/// stack constructs.
class Generator {
 public:
  /// `hazards` adds the UD2-recovery and odd-return constructs; without it
  /// the generator's output (and random stream) is unchanged.
  Generator(u64 seed, bool hazards) : rng_(seed), hazards_(hazards) {}

  Program generate() {
    Program p;
    p.base = kCodePage + rng_.below(kPageSize - 64);
    base_ = p.base;
    prog_ = &p;
    if (rng_.chance(0.8)) a_.sti();
    a_.mov_imm(Reg::DI, kDataVa);
    const u32 n_funcs = rng_.between(1, 3);
    for (u32 i = 0; i < n_funcs; ++i) funcs_.push_back(a_.make_label());
    if (hazards_) {
      const u32 n_filled = rng_.between(1, 2);
      for (u32 i = 0; i < n_filled; ++i)
        filled_funcs_.push_back(a_.make_label());
    }
    handler_ = a_.make_label();

    // The mandatory coverage loop: every op this test exists to reach, in a
    // hot loop (so the block tier replays it), in seeded order.
    emit_loop(0, /*mandatory=*/true);
    const u32 constructs = rng_.between(6, 14);
    for (u32 i = 0; i < constructs; ++i) {
      const u32 pick = rng_.below(10);
      if (pick < 4) {
        emit_loop(0, false);
      } else if (pick < 5) {
        emit_fault_loop();
      } else {
        emit_chunk(rng_.between(3, 12), Ctx::kMain);
      }
    }
    a_.hlt();

    std::vector<u32> func_offsets;
    for (Label f : funcs_) {
      a_.bind(f);
      func_offsets.push_back(a_.size());
      a_.prologue();
      if (rng_.chance(0.5)) {
        a_.push(Reg::SI);
        emit_loop(1, false, Ctx::kFunc);
        a_.pop(Reg::SI);
      }
      emit_chunk(rng_.between(2, 8), Ctx::kFunc);
      a_.epilogue();
    }
    // Loaded as UD2 fill right behind the last function's RET, so that
    // block is followed by different bytes before and after recovery.
    std::vector<std::pair<u32, u32>> filled;
    for (Label f : filled_funcs_) {
      a_.bind(f);
      const u32 start = a_.size();
      a_.prologue();
      emit_chunk(rng_.between(1, 6), Ctx::kFunc);
      a_.epilogue();
      filled.emplace_back(start, a_.size());
    }
    a_.bind(handler_);
    const u32 handler_off = a_.size();
    a_.pusha();
    emit_chunk(rng_.between(1, 6), Ctx::kHandler);
    a_.popa();
    a_.iret();

    p.bytes = a_.finish(p.base);
    for (u32 at : or_mem_at_)
      p.bytes[at + 1] = static_cast<u8>(p.bytes[at + 1] & 0x3F);  // mod = 0
    for (u32 at : odd_fill_at_) {
      p.bytes[at] = 0x0B;  // UD2 fill (0F 0B ...) entered one byte in
      p.bytes[at + 1] = 0x0F;
    }
    for (const auto& [start, end] : filled) {
      p.recover[p.base + start].assign(p.bytes.begin() + start,
                                       p.bytes.begin() + end);
      for (u32 at = start; at < end; ++at)
        p.bytes[at] = (at - start) % 2 == 0 ? 0x0F : 0x0B;
    }
    p.irq_handler = p.base + handler_off;
    for (u32 off : func_offsets) p.functions.push_back(p.base + off);
    for (u32 off : bp_candidates_)
      if (rng_.chance(0.15)) p.breakpoints.push_back(p.base + off);
    return p;
  }

 private:
  using Label = Assembler::Label;
  enum class Ctx { kMain, kFunc, kHandler };

  Reg free_reg() { return kFree[rng_.below(4)]; }
  Reg any_reg() { return kAny[rng_.below(8)]; }
  u32 imm() {
    switch (rng_.below(4)) {
      case 0: return 0;
      case 1: return rng_.between(1, 3);
      case 2: return 0xFFFFFFFFu;
      default: return rng_.next_u32();
    }
  }
  u32 data_addr() {
    return (rng_.chance(0.2) ? kAliasVa : kDataVa + 0x100) + 4 * rng_.below(64);
  }

  void emit_alu(Alu kind) {
    switch (kind) {
      case Alu::kAdd: a_.add(free_reg(), any_reg()); break;
      case Alu::kSub: a_.sub(free_reg(), any_reg()); break;
      case Alu::kXor: a_.xor_(free_reg(), any_reg()); break;
      case Alu::kOr: a_.or_(free_reg(), any_reg()); break;
      case Alu::kCmp: a_.cmp(any_reg(), any_reg()); break;
      case Alu::kAddImmA: a_.add_imm_a(imm()); break;
      case Alu::kSubImmA: a_.sub_imm_a(imm()); break;
      case Alu::kCmpImmA: a_.cmp_imm_a(imm()); break;
    }
  }

  void emit_jcc(Label target, bool near) {
    const bool jz = rng_.chance(0.5);
    if (near)
      jz ? a_.jz_near(target) : a_.jnz_near(target);
    else
      jz ? a_.jz(target) : a_.jnz(target);
  }

  /// ALU immediately followed by a forward Jcc over a few ops, with a
  /// data-dependent direction.
  void emit_fused_skip(Alu kind, Ctx ctx) {
    auto skip = a_.make_label();
    emit_alu(kind);
    if (rng_.chance(0.2)) bp_candidates_.push_back(a_.size());  // the Jcc
    emit_jcc(skip, rng_.chance(0.3));
    const u32 n = rng_.between(1, 3);
    for (u32 i = 0; i < n; ++i) emit_simple(ctx, /*leaf=*/true);
    a_.bind(skip);
  }

  /// A store whose target is picked by the loop counter through a per-site
  /// table: on one late pass (SI == k) it lands on the immediate of the
  /// mov_imm behind it, otherwise on a scratch word. The sequence is
  /// straight-line, so the block decoded on earlier passes is still the
  /// cursor's when the code write runs inside it. The loaded immediate is
  /// folded into the witness slot [DI+124], so a stale one shows up in
  /// memory for the rest of the run.
  void emit_smc() {
    if (smc_sites_ == kMaxSmcSites) return;
    const GVirt table = kSmcTables + smc_sites_++ * 4 * kSmcTableWords;
    a_.mov(Reg::B, Reg::SI);
    a_.add(Reg::B, Reg::B);
    a_.add(Reg::B, Reg::B);
    a_.mov_imm(Reg::C, table);
    a_.add(Reg::B, Reg::C);
    a_.load(Reg::B, Reg::B, 0);
    a_.rdtsc();
    a_.store(Reg::B, 0, Reg::A);
    const GVirt imm_va = base_ + a_.size() + 1;
    a_.mov_imm(Reg::C, rng_.next_u32());
    a_.load(Reg::B, Reg::DI, 124);
    a_.add(Reg::B, Reg::C);
    a_.store(Reg::DI, 124, Reg::B);
    const u32 k = rng_.between(1, 2);
    for (u32 i = 0; i < kSmcTableWords; ++i)
      prog_->data_init.emplace_back(table + 4 * i,
                                    i == k ? imm_va : kSmcScratch);
  }

  void emit_or_mem() {
    or_mem_at_.push_back(a_.size());
    Reg rm = any_reg();
    while (rm == Reg::SP || rm == Reg::FP) rm = any_reg();  // mod=0 forms
    a_.or_(free_reg(), rm);
  }

  void emit_leave_frame(Ctx ctx) {
    a_.push(Reg::FP);
    a_.mov(Reg::FP, Reg::SP);
    const u32 n = rng_.below(3);
    for (u32 i = 0; i < n; ++i) a_.push(any_reg());
    if (rng_.chance(0.5)) emit_simple(ctx, /*leaf=*/true);
    a_.leave();
  }

  /// One straight-line construct (balanced stack, no loop). Leaf constructs
  /// nest nothing, which bounds the bytes a short forward Jcc skips.
  void emit_simple(Ctx ctx, bool leaf = false) {
    if (rng_.chance(0.1)) bp_candidates_.push_back(a_.size());
    u32 pick = rng_.below(ctx == Ctx::kHandler ? 17 : hazards_ ? 24 : 22);
    if (leaf && (pick == 12 || pick == 13 || pick == 14)) pick = 3;
    switch (pick) {
      case 0: a_.nop(); break;
      case 1: a_.mov(free_reg(), any_reg()); break;
      case 2: a_.mov_imm(free_reg(), imm()); break;
      case 3:
      case 4: emit_alu(static_cast<Alu>(rng_.below(kAluKinds))); break;
      case 5: a_.rdtsc(); break;
      case 6: a_.load(free_reg(), Reg::DI, static_cast<i8>(4 * rng_.below(32)));
        break;
      case 7: a_.store(Reg::DI, static_cast<i8>(4 * rng_.below(30)), any_reg());
        break;  // [DI+120] and [DI+124] are reserved slots
      case 8: a_.load_abs(data_addr()); break;
      case 9: a_.store_abs(data_addr()); break;
      case 10: emit_or_mem(); break;
      case 11:
        a_.push(any_reg());
        if (rng_.chance(0.5)) a_.mov_imm(free_reg(), imm());
        a_.pop(free_reg());
        break;
      case 12: emit_leave_frame(ctx); break;
      case 13:
      case 14: emit_fused_skip(static_cast<Alu>(rng_.below(kAluKinds)), ctx);
        break;
      case 15: {
        auto over = a_.make_label();
        a_.jmp(over);
        a_.ud2();  // never executed
        a_.bind(over);
        break;
      }
      case 16: emit_smc(); break;
      // Not inside the IRQ handler (no nested delivery, no re-entry).
      case 17: a_.cli(); a_.sti(); break;
      case 18: a_.int_(kSoftVector); break;
      case 19:
        if (ctx == Ctx::kMain) {
          a_.call(funcs_[rng_.below(static_cast<u32>(funcs_.size()))]);
        } else {
          a_.nop();
        }
        break;
      case 20:
        if (ctx == Ctx::kMain) {
          a_.mov_imm(Reg::A, rng_.below(static_cast<u32>(funcs_.size())));
          a_.calltab(kCallTable);
        } else {
          a_.rdtsc();
        }
        break;
      // Hazard variant only, and only from the main body.
      case 22:
        if (ctx == Ctx::kMain) {
          // The return address lands at an odd offset inside UD2 fill: the
          // pairs decode (and run) as `or ecx, [edi]` instead of trapping.
          a_.call(funcs_[rng_.below(static_cast<u32>(funcs_.size()))]);
          const u32 pairs = rng_.between(1, 3);
          for (u32 i = 0; i < pairs; ++i) {
            odd_fill_at_.push_back(a_.size());
            a_.or_(Reg::C, Reg::C);  // placeholder, patched to 0B 0F
          }
        } else {
          a_.nop();
        }
        break;
      case 23:
        if (ctx == Ctx::kMain) {
          a_.call(filled_funcs_[rng_.below(
              static_cast<u32>(filled_funcs_.size()))]);
        } else {
          a_.nop();
        }
        break;
      default: a_.sti(); break;
    }
  }

  void emit_chunk(u32 n, Ctx ctx) {
    for (u32 i = 0; i < n; ++i) emit_simple(ctx);
  }

  /// SI-counted loop, closed by one of several decrement shapes (the ALU op
  /// right before the back edge, or not).
  void emit_loop(int depth, bool mandatory, Ctx ctx = Ctx::kMain) {
    a_.mov_imm(Reg::SI, rng_.between(2, depth == 0 ? 24 : 8));
    auto head = a_.make_label();
    a_.bind(head);
    const u32 head_off = a_.size();
    bp_candidates_.push_back(head_off);
    if (mandatory) {
      std::vector<int> items;
      for (int k = 0; k < kAluKinds + 6; ++k) items.push_back(k);
      for (std::size_t k = items.size(); k > 1; --k)
        std::swap(items[k - 1], items[rng_.below(static_cast<u32>(k))]);
      for (int k : items) {
        if (k < kAluKinds) {
          emit_fused_skip(static_cast<Alu>(k), ctx);
          continue;
        }
        switch (k - kAluKinds) {
          case 0: a_.rdtsc(); break;
          case 1: a_.add_imm_a(imm()); break;
          case 2: a_.sub_imm_a(imm()); break;
          case 3: emit_leave_frame(ctx); break;
          case 4: a_.store_abs(data_addr()); emit_smc(); break;
          case 5: emit_or_mem(); break;
        }
      }
    } else {
      emit_chunk(rng_.between(1, 8), ctx);
      if (depth == 0 && rng_.chance(0.4)) {
        a_.push(Reg::SI);
        emit_loop(depth + 1, false, ctx);
        a_.pop(Reg::SI);
      }
      emit_chunk(rng_.below(4), ctx);
    }
    emit_decrement();
    const bool near = a_.size() - head_off + 2 > 120 || rng_.chance(0.2);
    if (near)
      a_.jnz_near(head);
    else
      a_.jnz(head);
  }

  /// SI -= 1 leaving ZF = (SI == 0), in shapes whose last op sets ZF right
  /// before the back edge (sub, add, or, xor, cmp, cmp_imm_a) or not
  /// (sub_imm_a behind a mov).
  void emit_decrement() {
    switch (rng_.below(6)) {
      case 0:
        a_.mov_imm(Reg::B, 1);
        a_.sub(Reg::SI, Reg::B);
        break;
      case 1:
        a_.mov_imm(Reg::B, 0xFFFFFFFFu);
        a_.add(Reg::SI, Reg::B);
        break;
      case 2:
        a_.mov(Reg::A, Reg::SI);
        a_.sub_imm_a(1);
        a_.mov(Reg::SI, Reg::A);
        break;
      case 3:
        a_.mov(Reg::A, Reg::SI);
        a_.add_imm_a(0xFFFFFFFFu);
        a_.mov(Reg::SI, Reg::A);
        a_.cmp_imm_a(0);
        break;
      case 4:
        a_.mov_imm(Reg::B, 1);
        a_.sub(Reg::SI, Reg::B);
        a_.mov(Reg::C, Reg::SI);
        a_.or_(Reg::C, Reg::C);
        break;
      default:
        a_.mov_imm(Reg::B, 1);
        a_.sub(Reg::SI, Reg::B);
        a_.mov_imm(Reg::C, 0);
        a_.xor_(Reg::C, Reg::SI);
        break;
    }
  }

  /// A hot loop whose load/store walks off the end of the direct map: the
  /// first iterations hit, every later one faults (the driver skips the
  /// faulting instruction, as a guest fault handler would). The walking
  /// pointer lives at [DI+120], out of reach of the random stores.
  void emit_fault_loop() {
    a_.mov_imm(Reg::SI, rng_.between(4, 10));
    a_.mov_imm(Reg::B, kUnmapped - 4 * rng_.between(1, 3));
    a_.store(Reg::DI, 120, Reg::B);
    auto head = a_.make_label();
    a_.bind(head);
    emit_chunk(rng_.below(3), Ctx::kMain);
    a_.load(Reg::B, Reg::DI, 120);
    const u32 at = a_.size();
    u8 len = 3;
    switch (rng_.below(3)) {
      case 0: a_.load(Reg::C, Reg::B, 0); break;
      case 1: a_.store(Reg::B, 0, Reg::D); break;
      default:
        a_.load_abs(kUnmapped + 4 * rng_.below(8));
        len = 5;
        break;
    }
    prog_->fault_pcs[base_ + at] = len;
    a_.mov_imm(Reg::D, 4);
    a_.add(Reg::B, Reg::D);
    a_.store(Reg::DI, 120, Reg::B);
    emit_chunk(rng_.below(3), Ctx::kMain);
    a_.mov_imm(Reg::D, 1);
    a_.sub(Reg::SI, Reg::D);
    a_.jnz_near(head);
  }

  Rng rng_;
  bool hazards_;
  Assembler a_;
  GVirt base_ = 0;
  Program* prog_ = nullptr;
  std::vector<Label> funcs_;
  std::vector<Label> filled_funcs_;  // loaded as UD2 fill (hazards only)
  Label handler_{};
  std::vector<u32> or_mem_at_;
  std::vector<u32> odd_fill_at_;
  std::vector<u32> bp_candidates_;
  u32 smc_sites_ = 0;
};

enum class Tier { kUncached, kBlockOnly, kBlockStepped };
constexpr const char* kTierName[] = {"uncached", "block-only",
                                     "block-only stepped"};

/// The sampling profiler's stream as a guest saw it. The tier each sample
/// names is left out: every tier reports its own.
struct SampleLog final : SampleSink {
  struct Sample {
    Cycles now = 0;
    GVirt pc = 0;
    u64 periods = 0;
    bool operator==(const Sample&) const = default;
  };
  std::vector<Sample> samples;
  void on_sample(Cycles now, GVirt pc, u8 /*tier*/, u64 periods) override {
    samples.push_back({now, pc, periods});
  }
};

struct Guest {
  Guest(Tier t, const Program& p, bool alias_code, DecodeMemo* memo,
        Cycles sample_period)
      : tier(t), machine(kMachineMib), vcpu(machine, memo) {
    mem::GuestPageTableBuilder builder(machine, 0x1000, 0x100000);
    dir = builder.create_directory();
    builder.map(dir, kKernelBase, 0, machine.guest_phys_pages());
    if (alias_code) {
      const u32 code_pages = static_cast<u32>(
          (p.base - kCodePage + p.bytes.size() + kPageMask) / kPageSize);
      builder.map(dir, kCodeAlias, mem::GuestLayout::kernel_pa(kCodePage),
                  code_pages);
    }
    vcpu.set_cr3(dir);
    vcpu.set_idt_base(kIdt);
    vcpu.set_kstack_ptr_addr(kEsp0);
    vcpu.set_block_cache_enabled(tier != Tier::kUncached);
    vcpu.set_sample_sink(&log, sample_period);  // period 0: detached
    mem::Mmu& mmu = machine.mmu();
    mmu.write32(kIdt + kIrqVector * 4u, p.irq_handler);
    mmu.write32(kIdt + kSoftVector * 4u, p.irq_handler);
    for (std::size_t i = 0; i < p.functions.size(); ++i)
      mmu.write32(kCallTable + 4 * static_cast<u32>(i), p.functions[i]);
    machine.pwrite_bytes(mem::GuestLayout::kernel_pa(p.base), p.bytes);
    for (const auto& [va, value] : p.data_init)
      machine.pwrite32(mem::GuestLayout::kernel_pa(va), value);
    for (GVirt bp : p.breakpoints) vcpu.add_breakpoint(bp);
    vcpu.regs().mode = Mode::kKernel;
    vcpu.regs()[Reg::SP] = kStackTop;
    vcpu.regs().pc = p.base;
    // Setup traffic is not part of the comparison.
    mmu.reset_stats();
  }

  /// Vcpu::run(budget). The stepped tier retires the budget one run(1) at a
  /// time, so each of its batches is one op long: the block tier's
  /// per-instruction reference for the batch bounds.
  Exit run(u64 budget) {
    if (tier != Tier::kBlockStepped) return vcpu.run(budget);
    Exit last;
    for (u64 i = 0; i < budget; ++i) {
      last = vcpu.run(1);
      if (last.reason != ExitReason::kInstructionLimit) break;
    }
    return last;
  }
  bool block_tier_only() const {
    return tier == Tier::kBlockOnly || tier == Tier::kBlockStepped;
  }

  Tier tier;
  mem::Machine machine;
  Vcpu vcpu;
  SampleLog log;
  GPhys dir = 0;
  Exit exit;
};

/// FNV-1a over every data word a program can store to (read host-side, so
/// the comparison itself touches no TLB).
u64 data_digest(const Guest& x) {
  u64 h = 0xCBF29CE484222325ull;
  auto mix = [&](GVirt from, u32 words) {
    for (u32 i = 0; i < words; ++i) {
      h ^= x.machine.pread32(mem::GuestLayout::kernel_pa(from + 4 * i));
      h *= 0x100000001B3ull;
    }
  };
  mix(kDataVa, 0x204 / 4);
  mix(kAliasVa, 0x100 / 4);
  return h;
}

/// Every mismatch between two guests, one "field: a vs b" per line.
std::string state_diff(Guest& x, Guest& y) {
  std::ostringstream out;
  out << std::hex;
  auto field = [&](const char* name, u64 a, u64 b) {
    if (a != b) out << "  " << name << ": 0x" << a << " vs 0x" << b << "\n";
  };
  const Regs& rx = x.vcpu.regs();
  const Regs& ry = y.vcpu.regs();
  for (int r = 0; r < isa::kNumRegs; ++r)
    field(isa::reg_name(static_cast<Reg>(r)), rx.gpr[r], ry.gpr[r]);
  field("pc", rx.pc, ry.pc);
  field("zf", rx.zf, ry.zf);
  field("if", rx.interrupts_enabled, ry.interrupts_enabled);
  field("mode", static_cast<u64>(rx.mode), static_cast<u64>(ry.mode));
  field("cycles", x.vcpu.cycles(), y.vcpu.cycles());
  field("retired", x.vcpu.instructions_retired(),
        y.vcpu.instructions_retired());
  field("tlb_misses", x.machine.mmu().stats().tlb_misses,
        y.machine.mmu().stats().tlb_misses);
  field("exit", static_cast<u64>(x.exit.reason),
        static_cast<u64>(y.exit.reason));
  field("exit_pc", x.exit.pc, y.exit.pc);
  field("data_digest", data_digest(x), data_digest(y));
  // Every tier attributes a sample to the instruction whose retirement
  // reached it.
  const std::vector<SampleLog::Sample>& a = x.log.samples;
  const std::vector<SampleLog::Sample>& b = y.log.samples;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  if (i < a.size() && i < b.size()) {
    out << "  sample #" << std::dec << i << std::hex << ": (cycles 0x"
        << a[i].now << ", pc 0x" << a[i].pc << ", periods 0x" << a[i].periods
        << ") vs (cycles 0x" << b[i].now << ", pc 0x" << b[i].pc
        << ", periods 0x" << b[i].periods << ")\n";
  } else {
    field("samples", a.size(), b.size());
  }
  // The block tier serves each instruction once, batched or not, and builds
  // the same blocks however the budget splits the run.
  if (x.block_tier_only() && y.block_tier_only()) {
    const BlockCache::Stats& bx = x.vcpu.block_cache().stats();
    const BlockCache::Stats& by = y.vcpu.block_cache().stats();
    field("insn_hits", bx.insn_hits, by.insn_hits);
    field("block_misses", bx.block_misses, by.block_misses);
    field("blocks_built", bx.blocks_built, by.blocks_built);
    field("insns_decoded", bx.insns_decoded, by.insns_decoded);
  }
  return out.str();
}

/// What the runs reached. The block counters are the block-only guest's.
struct Coverage {
  u64 faults = 0;
  u64 breakpoints = 0;
  u64 recoveries = 0;
  u64 insn_hits = 0;    // instructions served from decoded blocks
  u64 batch_insns = 0;  // of those, retired in simple-op batches
  u64 code_writes = 0;  // frames invalidated by a guest store (SMC)
  u64 code_loads = 0;   // frames invalidated by a recovery rewrite
  u64 samples = 0;      // uncached guest: samples taken
};

/// How run_program drives a program.
struct Drive {
  /// Run to the halt a second time, entered through the code's second
  /// mapping.
  bool alias_code = false;
  /// Every guest decodes through this memo when one is given.
  DecodeMemo* memo = nullptr;
  /// Every guest carries a sampling profiler with this period (0: none).
  Cycles sample_period = 0;
};

/// Run one program on three guests, in chunks of `max_chunk` (1 = per
/// instruction) with seeded random chunk sizes above that, comparing the
/// full state of each guest with the first after every chunk, and the
/// block-tier guests with each other. Returns false on divergence.
bool run_program(const Program& p, u64 seed, u32 max_chunk, Coverage* cov,
                 const Drive& drive) {
  // The uncached guest is the reference.
  Guest g[3] = {
      Guest(Tier::kUncached, p, drive.alias_code, drive.memo,
            drive.sample_period),
      Guest(Tier::kBlockOnly, p, drive.alias_code, drive.memo,
            drive.sample_period),
      Guest(Tier::kBlockStepped, p, drive.alias_code, drive.memo,
            drive.sample_period)};
  Rng events(seed * 0x9E3779B97F4A7C15ull + max_chunk);
  constexpr u64 kMaxSteps = 400'000;
  u32 passes = drive.alias_code ? 2 : 1;
  for (u64 step = 0;; ++step) {
    if (step >= kMaxSteps) {
      ADD_FAILURE() << "seed " << seed << ": program did not halt";
      return false;
    }
    // Interrupt edges at identical architectural points: raised now, or
    // parked until a release cycle a batch must stop exactly at.
    if (events.chance(max_chunk == 1 ? 0.004 : 0.05)) {
      const bool defer = events.chance(0.5);
      const Cycles release = g[0].vcpu.cycles() + events.between(1, 400);
      for (Guest& x : g) {
        x.vcpu.raise_irq(0);
        if (defer) x.vcpu.defer_pending_irqs(release);
      }
    }
    const u64 budget = max_chunk == 1 ? 1 : events.between(1, max_chunk);
    for (Guest& x : g) x.exit = x.run(budget);
    // Each guest against the reference, and the two block-tier guests
    // against each other (they also share the block counters).
    constexpr std::pair<int, int> kPairs[] = {{0, 1}, {0, 2}, {1, 2}};
    for (const auto& [t, u] : kPairs) {
      std::string diff = state_diff(g[t], g[u]);
      if (diff.empty()) continue;
      ADD_FAILURE() << "divergence: seed " << seed << " chunk<=" << max_chunk
                    << " step " << step << " pc=0x" << std::hex
                    << g[0].vcpu.regs().pc << std::dec << " tier "
                    << kTierName[static_cast<int>(g[u].tier)] << " vs "
                    << kTierName[static_cast<int>(g[t].tier)] << ":\n"
                    << diff;
      return false;
    }
    const Exit exit = g[0].exit;
    if (exit.reason == ExitReason::kHalt) {
      if (--passes == 0) break;
      // Second pass: same code frames, entered through the alias.
      for (Guest& x : g) x.vcpu.regs().pc = p.base + kAliasDelta;
    } else if (exit.reason == ExitReason::kBreakpoint) {
      ++cov->breakpoints;
      for (Guest& x : g) x.vcpu.suppress_breakpoint_once();
    } else if (exit.reason == ExitReason::kFetchFault) {
      auto it = p.fault_pcs.find(exit.pc >= kCodeAlias ? exit.pc - kAliasDelta
                                                       : exit.pc);
      if (it == p.fault_pcs.end()) {
        ADD_FAILURE() << "seed " << seed << ": unexpected fault at 0x"
                      << std::hex << exit.pc;
        return false;
      }
      ++cov->faults;
      for (Guest& x : g) x.vcpu.regs().pc = exit.pc + it->second;
    } else if (exit.reason == ExitReason::kInvalidOpcode &&
               p.recover.contains(exit.pc)) {
      // Recovery: copy the function's pristine bytes over its UD2 fill, as
      // RecoveryEngine does, and resume at the trapping pc.
      ++cov->recoveries;
      for (Guest& x : g) {
        mem::HostMemory::WriteCauseScope cause(
            x.machine.host(), mem::FrameWriteCause::kCodeLoad);
        x.machine.pwrite_bytes(mem::GuestLayout::kernel_pa(exit.pc),
                               p.recover.at(exit.pc));
      }
    } else if (exit.reason != ExitReason::kNone &&
               exit.reason != ExitReason::kInstructionLimit) {
      ADD_FAILURE() << "seed " << seed << ": unexpected exit "
                    << static_cast<int>(exit.reason) << " at 0x" << std::hex
                    << exit.pc;
      return false;
    }
  }
  const BlockCache::Stats& bs = g[1].vcpu.block_cache().stats();
  cov->insn_hits += bs.insn_hits;
  cov->batch_insns += bs.batch_insns;
  cov->code_writes += bs.inval_guest_write;
  cov->code_loads += bs.inval_code_load;
  cov->samples += g[0].log.samples.size();
  return true;
}

/// run_program on seed's generated program, on the uncached, block-only and
/// stepped block-only guests. `hazards` adds the UD2-recovery and
/// odd-return constructs.
bool run_lockstep(u64 seed, u32 max_chunk, Coverage* cov,
                  bool alias_code = false, bool hazards = false,
                  DecodeMemo* memo = nullptr) {
  Drive drive;
  drive.alias_code = alias_code;
  drive.memo = memo;
  return run_program(Generator(seed, hazards).generate(), seed, max_chunk,
                     cov, drive);
}

/// A counted loop whose body is one straight-line block of random simple
/// ops ending in the last bytes of `page`: `sub si, b` sits at page offset
/// 0xFFA, inside the page-tail region where every fetch probes the next
/// page, followed by `jnz loop` and the exit's `jz done`. Either the next
/// page is unmapped (every probe misses), or `evict_next` makes a load at
/// the loop head evict the next page's TLB entry (the first probe of each
/// pass misses).
Program page_tail_program(u64 seed, GVirt page, bool evict_next) {
  Rng rng(seed);
  Assembler a;
  Program p;
  auto loop = a.make_label();
  auto done = a.make_label();
  if (rng.chance(0.8)) a.sti();
  a.mov_imm(Reg::SI, rng.between(4, 40));
  a.mov_imm(Reg::B, 1);
  a.jmp(loop);
  const u32 handler_off = a.size();
  a.iret();
  a.bind(done);
  a.hlt();
  a.bind(loop);
  const u32 loop_off = a.size();
  // Same direct-mapped TLB slot as the next page (see kAliasVa).
  if (evict_next) a.load_abs(page + kPageSize + 512 * kPageSize);
  std::vector<u32> op_offsets;
  const u32 body_bytes = rng.between(8, 100);
  while (a.size() - loop_off < body_bytes) {
    op_offsets.push_back(a.size());
    const Reg dst = kFree[rng.below(4)];
    const Reg src = kAny[rng.below(8)];
    switch (rng.below(8)) {
      case 0: a.nop(); break;
      case 1: a.mov(dst == Reg::B ? Reg::C : dst, src); break;
      case 2: a.mov_imm(dst == Reg::B ? Reg::D : dst, rng.next_u32()); break;
      case 3: a.add(dst == Reg::B ? Reg::A : dst, src); break;
      case 4: a.xor_(dst == Reg::B ? Reg::C : dst, src); break;
      case 5: a.cmp(dst, src); break;
      case 6: a.add_imm_a(rng.next_u32()); break;
      default: a.sub_imm_a(rng.below(3)); break;
    }
  }
  op_offsets.push_back(a.size());
  a.sub(Reg::SI, Reg::B);
  a.jnz(loop);
  a.jz(done);
  p.base = page + kPageSize - a.size();
  p.bytes = a.finish(p.base);
  p.irq_handler = p.base + handler_off;
  for (u32 off : op_offsets)
    if (rng.chance(0.05)) p.breakpoints.push_back(p.base + off);
  return p;
}

constexpr u64 kSeeds = 64;

TEST(RandomLockstep, PerInstructionStepping) {
  Coverage cov;
  for (u64 seed = 1; seed <= kSeeds; ++seed)
    if (!run_lockstep(seed, 1, &cov)) return;
  EXPECT_GT(cov.insn_hits, 1000u);
  EXPECT_GT(cov.code_writes, 0u);
  EXPECT_GT(cov.faults, 0u);
  EXPECT_GT(cov.breakpoints, 0u);
}

TEST(RandomLockstep, RandomBudgets) {
  Coverage cov;
  for (u64 seed = 1; seed <= kSeeds; ++seed)
    if (!run_lockstep(seed, 97, &cov)) return;
  EXPECT_GT(cov.batch_insns, 10000u);
  EXPECT_GT(cov.code_writes, 0u);
  EXPECT_GT(cov.faults, 0u);
  EXPECT_GT(cov.breakpoints, 0u);
}

TEST(RandomLockstep, AliasedCodeMapping) {
  Coverage cov;
  for (u64 seed = 1; seed <= 16; ++seed) {
    if (!run_lockstep(seed, 1, &cov, /*alias_code=*/true)) return;
    if (!run_lockstep(seed, 97, &cov, /*alias_code=*/true)) return;
  }
  EXPECT_GT(cov.insn_hits, 1000u);
  EXPECT_GT(cov.batch_insns, 1000u);
}

TEST(RandomLockstep, HazardsRerunThroughASharedDecodeMemo) {
  Coverage cov;
  u64 rerun_builds = 0;
  for (u64 seed = 1; seed <= 24; ++seed) {
    for (u32 max_chunk : {1u, 97u}) {
      DecodeMemo memo;
      if (!run_lockstep(seed, max_chunk, &cov, false, true, &memo)) return;
      const DecodeMemo::Stats first = memo.stats();
      // Same program, fresh guests, same memo: every block build is a hit.
      if (!run_lockstep(seed, max_chunk, &cov, false, true, &memo)) return;
      const DecodeMemo::Stats second = memo.stats();
      EXPECT_EQ(second.hits - first.hits, second.lookups - first.lookups)
          << "seed " << seed << " chunk<=" << max_chunk;
      EXPECT_EQ(second.resident_runs, first.resident_runs);
      rerun_builds += second.lookups - first.lookups;
    }
  }
  EXPECT_GT(rerun_builds, 0u);
  EXPECT_GT(cov.recoveries, 0u);
  EXPECT_GT(cov.code_loads, 0u);
  EXPECT_GT(cov.batch_insns, 1000u);
  EXPECT_GT(cov.code_writes, 0u);
}

// Straight-line simple runs that reach the page-tail region: a batch must
// stop short of it, and each tail instruction's fetch must probe (and charge
// a miss on) the next page exactly as uncached fetches do. Each program also
// runs sampled.
TEST(RandomLockstep, SimpleRunsIntoThePageTail) {
  Coverage cov;
  Drive sampled;
  sampled.sample_period = 11;
  for (u64 seed = 1; seed <= 32; ++seed) {
    for (const bool evict : {false, true}) {
      const GVirt page =
          evict ? kCodePage + (seed % 4) * kPageSize : kUnmapped - kPageSize;
      const Program p = page_tail_program(seed, page, evict);
      if (!run_program(p, seed, 97, &cov, Drive{})) return;
      if (!run_program(p, seed, 97, &cov, sampled)) return;
    }
  }
  EXPECT_GT(cov.batch_insns, 1000u);
  EXPECT_GT(cov.breakpoints, 0u);
}

// A short-period sampling profiler on every guest: a batch must end on the
// instruction whose retirement reaches a sample and attribute the sample to
// it, so the (cycles, pc, periods) streams match, and both block guests must
// count the same insn_hits.
TEST(RandomLockstep, SampledBlockTierMatchesUncachedAndStepping) {
  Coverage cov;
  Drive drive;
  for (u64 seed = 1; seed <= 32; ++seed) {
    drive.sample_period = 5 + seed % 37;
    const Program p = Generator(seed, false).generate();
    if (!run_program(p, seed, 97, &cov, drive)) return;
  }
  EXPECT_GT(cov.batch_insns, 10000u);
  EXPECT_GT(cov.samples, 1000u);
  EXPECT_GT(cov.breakpoints, 0u);
}

}  // namespace
}  // namespace fc::cpu
