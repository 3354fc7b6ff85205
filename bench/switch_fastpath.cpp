// Delta-based switch fast path: ping-pong between two application views and
// compare the cached-descriptor fast path against the naive full rewrite —
// EPT writes issued, TLB invalidation behaviour, and cycles charged.
//
// The two views overlap heavily (same base kernel skeleton, same shadowed
// module set), so most restore+apply PTE pairs coalesce and most PDE writes
// repeat; the descriptor issues only what actually changes, and the scoped
// invalidation drops only TLB entries inside the changed ranges.
#include <cstdio>

#include "harness/harness.hpp"

namespace {

struct PingPongResult {
  fc::u64 pde_writes = 0;
  fc::u64 pte_writes = 0;
  fc::u64 invalidations = 0;         // full flushes
  fc::u64 scoped_invalidations = 0;  // range-limited drops
  fc::u64 tlb_entries_dropped = 0;
  fc::Cycles cycles_charged = 0;
  fc::u8 probe_byte = 0;  // visible byte at a never-profiled symbol
};

PingPongResult run_pingpong(bool fastpath, int rounds) {
  using namespace fc;
  harness::GuestSystem sys;
  core::EngineOptions opts;
  opts.delta_switch_fastpath = fastpath;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel(), opts);
  engine.enable();
  u32 a = engine.load_view(harness::profile_of("top"));
  u32 b = engine.load_view(harness::profile_of("gzip"));
  engine.force_activate(a);  // warm: descriptors cached, tables settled

  mem::Ept& ept = sys.hv().machine().ept();
  const mem::Ept::Stats s0 = ept.stats();
  const mem::Mmu::Stats m0 = sys.hv().machine().mmu().stats();
  engine.reset_stats();
  for (int i = 0; i < rounds; ++i)
    engine.force_activate(i % 2 == 0 ? b : a);
  const mem::Ept::Stats s1 = ept.stats();
  const mem::Mmu::Stats m1 = sys.hv().machine().mmu().stats();

  PingPongResult out;
  out.pde_writes = s1.pde_writes - s0.pde_writes;
  out.pte_writes = s1.pte_writes - s0.pte_writes;
  out.invalidations = s1.invalidations - s0.invalidations;
  out.scoped_invalidations = s1.scoped_invalidations - s0.scoped_invalidations;
  out.tlb_entries_dropped =
      m1.scoped_entries_dropped - m0.scoped_entries_dropped;
  out.cycles_charged = engine.stats().switch_cycles_charged;
  // Equivalence spot check: with view a active (rounds is even), a symbol
  // neither app profiles must read as UD2 filler through the EPT.
  GVirt probe = sys.os().kernel().symbols.must_addr("udp_recvmsg");
  out.probe_byte = sys.hv().machine().pread8(mem::GuestLayout::kernel_pa(probe));
  engine.force_activate(core::kFullKernelViewId);
  return out;
}

}  // namespace

int main() {
  using namespace fc;
  const int kRounds = 200;
  std::printf("Switch fast path — %d-round view ping-pong (top ↔ gzip)\n\n",
              kRounds);
  harness::profile_all_apps();

  PingPongResult naive = run_pingpong(false, kRounds);
  PingPongResult fast = run_pingpong(true, kRounds);

  std::printf("%-34s %14s %14s\n", "", "naive", "fastpath");
  std::printf("%-34s %14llu %14llu\n", "EPT PDE writes",
              (unsigned long long)naive.pde_writes,
              (unsigned long long)fast.pde_writes);
  std::printf("%-34s %14llu %14llu\n", "EPT PTE writes",
              (unsigned long long)naive.pte_writes,
              (unsigned long long)fast.pte_writes);
  std::printf("%-34s %14llu %14llu\n", "full TLB flushes",
              (unsigned long long)naive.invalidations,
              (unsigned long long)fast.invalidations);
  std::printf("%-34s %14llu %14llu\n", "scoped invalidations",
              (unsigned long long)naive.scoped_invalidations,
              (unsigned long long)fast.scoped_invalidations);
  std::printf("%-34s %14llu %14llu\n", "TLB entries dropped (scoped)",
              (unsigned long long)naive.tlb_entries_dropped,
              (unsigned long long)fast.tlb_entries_dropped);
  std::printf("%-34s %14llu %14llu\n", "switch cycles charged",
              (unsigned long long)naive.cycles_charged,
              (unsigned long long)fast.cycles_charged);
  std::printf("%-34s %14s %14.3f\n", "cycles vs naive", "1.000",
              (double)fast.cycles_charged / (double)naive.cycles_charged);

  u64 naive_writes = naive.pde_writes + naive.pte_writes;
  u64 fast_writes = fast.pde_writes + fast.pte_writes;
  bool fewer_writes = fast_writes < naive_writes;
  bool cheaper = fast.cycles_charged < naive.cycles_charged;
  bool equivalent = fast.probe_byte == naive.probe_byte;
  std::printf("\nfastpath issues fewer EPT writes:  %s (%llu < %llu)\n",
              fewer_writes ? "OK" : "FAILED",
              (unsigned long long)fast_writes,
              (unsigned long long)naive_writes);
  std::printf("fastpath charges fewer cycles:     %s\n",
              cheaper ? "OK" : "FAILED");
  std::printf("visible state matches naive:       %s (0x%02X)\n",
              equivalent ? "OK" : "FAILED", fast.probe_byte);
  return (fewer_writes && cheaper && equivalent) ? 0 : 1;
}
