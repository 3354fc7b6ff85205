// Cycle cost model for the simulated platform.
//
// Simulated time *is* the cycle counter; every reported performance number
// (Figure 6 overhead, Figure 7 throughput) derives from these constants.
// They are chosen to reflect the relative magnitudes on the paper's testbed
// (Core i7, EPT): a VM exit costs on the order of a thousand cycles; an EPT
// PDE write is cheap but the implied TLB invalidation is not; regular
// instructions are ~1 cycle.
#pragma once

#include "support/types.hpp"

namespace fc::cpu {

struct PerfModel {
  // Instruction execution.
  u32 cost_default = 1;
  u32 cost_call = 3;
  u32 cost_ret = 3;
  u32 cost_int = 80;    // ring transition
  u32 cost_iret = 80;
  u32 cost_ksvc = 30;   // leaf kernel work done in "microcode"
  u32 cost_hlt = 20;

  // Memory system.
  u32 cost_tlb_walk = 30;  // charged per TLB miss (two-level walk + EPT)

  // Front-end decode. Charged once per *decode performed*: per instruction
  // on the slow path, but only at block-build time when the decoded-block
  // cache serves execution — re-running a cached block is decode-free, just
  // like real hardware re-hitting its uop/trace cache. Zero by default so
  // simulated cycle numbers stay identical with the cache on or off (the
  // lockstep equivalence test depends on that identity).
  //
  // The block tier's simple-op batches charge length * cost_default in one
  // add, exactly what per-op retirement charges. Lockstep asserts cycles
  // AND tlb-miss equality per step across tiers.
  u32 cost_decode = 0;

  // Virtualization events (charged by the hypervisor / FACE-CHANGE engine).
  u32 cost_vmexit = 2600;        // guest→host→guest round trip
  u32 cost_trap_handler = 1100;  // FACE-CHANGE's context-switch handler work
                                 // (VMI reads, view selection; the paper
                                 // notes this handler is unoptimized)
  u32 cost_ept_pde_write = 90;   // per PDE repointed at a view switch
  u32 cost_ept_pte_write = 45;   // per module PTE rewritten
  u32 cost_tlb_flush = 12000;    // INVEPT + cold EPT-TLB refill after remapping
  // Scoped shootdown (the delta fast path): issuing the ranged invalidation
  // plus a per-evicted-entry charge; the refill cost of evicted entries is
  // paid organically by the re-walks they cause (cost_tlb_walk per miss).
  // Worst case (base + 512 entries * per_entry) stays below cost_tlb_flush,
  // so the scoped path is never charged more than the full flush it avoids.
  u32 cost_tlb_scoped_base = 600;
  u32 cost_tlb_scoped_per_entry = 18;
  u32 cost_recovery_base = 9000; // decode+search+copy on a UD2 recovery

  // Metered DMA (the virtio-style IO data plane, src/io). Charged per
  // descriptor the device fills plus per 256-byte chunk of modeled payload,
  // but only when the plane's tuning enables metering (IoTuning::meter_dma)
  // — the parity tuning charges nothing, so IO delivery costs the guest
  // only the interrupt handler it runs (tests/io_test.cpp checks that
  // dma_cycles_charged stays 0 there).
  u32 cost_dma_per_desc = 40;
  u32 cost_dma_per_256b = 8;
  /// How long a "missed" interrupt edge stays lost when views are switched
  /// immediately at the context switch (§III-B2's hazard; the deferred
  /// switch point avoids it).
  Cycles missed_irq_delay = 150'000;

  /// Nominal clock rate used to convert cycles to seconds for reporting
  /// (100 MHz keeps simulated runs short while preserving ratios).
  u64 cycles_per_second = 100'000'000;
};

}  // namespace fc::cpu
