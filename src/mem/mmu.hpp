// Two-stage MMU: guest virtual → (guest page tables) → guest physical →
// (EPT) → host frame, with a small software TLB.
//
// Guest page tables are real i386-style two-level tables living in guest
// physical memory (page directory at CR3; entries have a present bit and a
// 4 KiB-aligned base). This matters for fidelity: FACE-CHANGE never touches
// guest tables — it redirects kernel code *only* via the EPT, and the TLB
// here is what makes EPT switches cost something (every switch invalidates).
#pragma once

#include <array>
#include <optional>
#include <span>

#include "mem/ept.hpp"
#include "mem/host_memory.hpp"
#include "obs/trace.hpp"
#include "support/types.hpp"

namespace fc::mem {

inline constexpr u32 kPtePresent = 0x1;

/// Number of guest page-directory / page-table entries (i386: 1024 x 4 bytes).
inline constexpr u32 kGuestEntries = 1024;

class Mmu {
 public:
  struct Stats {
    u64 tlb_hits = 0;
    u64 tlb_misses = 0;  // each miss implies a two-level guest walk + EPT
    u64 flushes = 0;
    u64 scoped_flushes = 0;          // invalidate_gpa_ranges calls
    u64 scoped_entries_dropped = 0;  // entries those calls evicted
  };

  Mmu(HostMemory& host, Ept& ept) : host_(&host), ept_(&ept) { tlb_.fill({}); }

  void set_cr3(GPhys cr3) {
    if (cr3 != cr3_) {
      cr3_ = cr3;
      flush_tlb();
    }
  }
  GPhys cr3() const { return cr3_; }

  void flush_tlb() {
    tlb_.fill({});
    ++stats_.flushes;
    ++fill_version_;
    FC_TRACE_EVENT(kTlbFlush, 0, 0, kTlbSize, 0, 0, 0);
  }

  /// Monotonic counter bumped whenever the TLB's contents change: any miss
  /// (the walk fills or invalidates a slot), a full flush, or a scoped
  /// invalidation. While it is unchanged, every translation that previously
  /// hit is guaranteed to still hit with the same result — the vCPU's
  /// cached-block fast path uses this to skip re-translating the code page
  /// on straight-line execution without perturbing miss counts or the
  /// cycles charged for walks.
  u64 fill_version() const { return fill_version_; }

  /// Scoped shootdown: drop only entries whose cached translation resolves
  /// a guest-physical page inside one of `ranges`, leaving everything else
  /// hot. Correct only when the changed EPT entries are leaf mappings the
  /// guest never walks page tables through (kernel code / module pages —
  /// guest page tables live in low memory, outside any switched range);
  /// callers that cannot guarantee that must use flush_tlb(). Returns the
  /// number of entries dropped, which is the basis for the cycle charge.
  u32 invalidate_gpa_ranges(std::span<const GpaRange> ranges);

  /// Full two-stage translation of a virtual page base to a host frame.
  /// Returns nullopt on a stage-1 non-present entry or EPT miss.
  std::optional<HostFrame> translate_page(GVirt vpage_base);

  /// Stage-1 only: virtual → guest physical (used by VMI and the profiler,
  /// which reason about guest physical addresses).
  std::optional<GPhys> virt_to_phys(GVirt va) const;

  // Byte-granular accessors (handle page crossings). These FC_CHECK on
  // translation failure — used where a fault means a simulator bug (kernel
  // structures the OS itself laid out).
  u8 read8(GVirt va);
  void write8(GVirt va, u8 value);
  u32 read32(GVirt va);
  void write32(GVirt va, u32 value);

  // Fallible variants for guest-controlled addresses (the vCPU's data
  // path): a miss is a guest fault, never a simulator abort.
  std::optional<u32> try_read32(GVirt va);
  bool try_write32(GVirt va, u32 value);

  /// Fetch up to `max` instruction bytes starting at `pc`, crossing at most
  /// one page boundary. Returns the number of bytes fetched (0 if the first
  /// page is unmapped).
  u32 fetch(GVirt pc, u8* out, u32 max);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  HostMemory& host() { return *host_; }
  Ept& ept() { return *ept_; }

 private:
  struct TlbEntry {
    bool valid = false;
    GVirt vpage = 0;
    GPhys cr3_tag = 0;
    u64 ept_gen = 0;
    GPhys gpa_page = 0;  // stage-1 result; keys scoped invalidation
    HostFrame frame = 0;
  };
  static constexpr u32 kTlbSize = 512;  // direct-mapped

  struct WalkResult {
    GPhys gpa_page = 0;
    HostFrame frame = 0;
  };
  std::optional<WalkResult> walk(GVirt vpage_base) const;

  HostMemory* host_;
  Ept* ept_;
  GPhys cr3_ = 0;
  std::array<TlbEntry, kTlbSize> tlb_;
  Stats stats_;
  u64 fill_version_ = 1;
};

}  // namespace fc::mem
