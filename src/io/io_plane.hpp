// The virtio-style IO data plane: NIC and block device models that consume
// guest-posted ring buffers and publish completions in batches, with
// interrupt coalescing and a metered DMA cost model.
//
// Data path (NIC receive; the block path is identical in shape):
//
//   host event (EventQueue) ─► IoPlane::nic_rx
//     ring has a free buffer:  DMA the packet record into the guest buffer,
//                              publish a used-ring entry, let the coalescer
//                              decide whether to raise the IRQ line now
//     ring full:               park the packet in the device backlog
//                              (back-pressure; no guest work, no IRQ)
//   guest irq_entry_1 ─► e1000_intr ─► KSVC NetRx leaf ─► drain_nic:
//     pop every used entry, hand the packet to the OS, re-post the buffer,
//     and refill from the backlog as buffers free up — the drain only
//     returns when both the used ring and the backlog are empty, so one
//     interrupt round trip absorbs any burst.
//
// Determinism contract: every decision is a function of simulated state
// (vCPU cycles, ring occupancy, tuning constants) — the coalescing quantum
// is an EventQueue deadline, never wall clock — so ring traffic, IRQ
// timing, and every counter below are byte-identical across runs and
// across fleet --jobs counts.
//
// Parity tuning (the defaults: coalesce_count=1, no quantum, DMA metering
// off) keeps the paper's one-interrupt-per-event device model: every
// completion published by nic_rx/blk_complete raises the IRQ line at the
// cycle it is published, a completion refilled from the backlog during a
// drain raises none (the running drain delivers it), and no cycles are
// charged. So irqs_raised == nic_delivered + blk_completions -
// backlog_refills; tests/io_test.cpp checks this rule.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "hv/event_queue.hpp"
#include "io/virtio_ring.hpp"
#include "obs/metrics.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::io {

/// Runtime knobs for the data plane (part of os::OsConfig). The defaults
/// are the parity tuning: per-completion interrupts and unmetered DMA.
struct IoTuning {
  /// Descriptors per queue (power of two, <= 512).
  u32 ring_size = 64;
  /// Raise the IRQ once per this many completions...
  u32 coalesce_count = 1;
  /// ...or once per this quantum (simulated cycles), whichever comes first.
  /// 0 disables the quantum timer.
  Cycles coalesce_cycles = 0;
  /// Charge PerfModel DMA costs (cost_dma_per_desc/cost_dma_per_256b) to
  /// the vCPU for every descriptor the device fills. Off in the parity
  /// tuning, which charges the guest nothing for delivery.
  bool meter_dma = false;
};

/// Guest-physical IO arena: carved from the free gap in the kernel heap
/// region between the heap-node pool (ends at +0x200000) and the module
/// arena (starts at +0x800000). Ring control pages and buffer pools are
/// written at boot with layout-deterministic values, so COW clones replay
/// them as same-value no-ops; runtime ring traffic promotes only the pages
/// the VM actually touches.
inline constexpr GPhys kIoArenaPhys = mem::GuestLayout::kKernelHeapPhys + 0x400000;
inline constexpr GPhys kIoQueueCtrlStride = 0x4000;   // desc+avail+used per queue
inline constexpr GPhys kIoBufferPoolBase = kIoArenaPhys + 0x100000;
inline constexpr GPhys kIoBufferPoolStride = 0x100000;

class IoPlane {
 public:
  enum Queue : u32 { kNic = 0, kBlk = 1, kQueueCount = 2 };

  /// The NIC packet record, DMA'd into the guest buffer as three 32-bit
  /// words. `sel` is the port (datagram/syn) or socket id (data/conn-ack).
  /// `kind` stays a raw word because the OS reads the record back from
  /// guest memory and must drop a kind outside `Kind`.
  struct Packet {
    enum Kind : u32 { kDatagram, kSyn, kData, kConnAck };
    u32 kind = 0;
    u32 sel = 0;
    u32 len = 0;
  };

  struct Stats {
    u64 nic_offered = 0;    // packets handed to the device
    u64 nic_delivered = 0;  // packets published to the used ring
    u64 blk_completions = 0;
    u64 backpressure = 0;     // completions parked in the backlog
    u64 backlog_refills = 0;  // backlog entries drained during a KSVC drain
    u64 irqs_raised = 0;
    u64 irqs_from_quantum = 0;  // raised by the quantum timer, not the count
    u64 coalesced = 0;  // completions that piggybacked on another's IRQ
    u64 drains = 0;
    u64 resets = 0;
    u64 dma_cycles_charged = 0;
    u64 backlog_peak = 0;
    u64 in_flight_peak = 0;  // used-ring occupancy high-water
  };

  IoPlane(mem::Machine& machine, cpu::Vcpu& vcpu, hv::EventQueue& events,
          IoTuning tuning);

  /// Boot-time ring construction (guest-memory writes; deterministic for a
  /// given tuning.ring_size, so shared-image clones stay shared).
  void init_rings();

  const IoTuning& tuning() const { return tuning_; }
  const Stats& stats() const { return stats_; }
  Virtqueue& queue(Queue q) { return queues_[q]; }

  /// Completions published but not yet drained, both queues (ring-depth
  /// gauge for the fleet timeline).
  u64 in_flight() const;
  u64 backlog_depth() const {
    return nic_backlog_.size() + blk_backlog_.size();
  }

  // --- device-side entry points (called from EventQueue actions) ----------
  void nic_rx(const Packet& packet);
  void blk_complete(u32 pid);

  // --- guest-leaf drains (KSVC NetRx / DiskDone) ---------------------------
  /// Pop every used-ring packet in publication order, re-posting buffers
  /// and refilling from the backlog until both are empty. Returns packets
  /// applied.
  u32 drain_nic(const std::function<void(const Packet&)>& apply);
  u32 drain_blk(const std::function<void(u32 pid)>& apply);

  /// Device reset mid-flight: drop the backlogs, forget pending coalescing
  /// state, and rebuild both rings to their boot state. In-flight
  /// completions are lost (as on real hardware); subsequent traffic flows
  /// normally.
  void reset();

  /// Snapshot the counters into a metrics registry (io.* namespace).
  void export_metrics(obs::Metrics& out) const;

 private:
  VirtqueueLayout layout_for(Queue q) const;
  /// One completion published on `q`: count it and either raise the IRQ now
  /// (count threshold met, or parity tuning) or arm the quantum timer.
  void completion_published(Queue q);
  void raise(Queue q, bool from_quantum);
  u32 charge_dma(u32 bytes);  // returns cycles charged (0 when unmetered)
  void refill_nic_from_backlog();
  void refill_blk_from_backlog();
  void dma_packet(Virtqueue& vq, u32 id, const Packet& packet);

  mem::Machine* m_;
  cpu::Vcpu* vcpu_;
  hv::EventQueue* events_;
  IoTuning tuning_;
  Virtqueue queues_[kQueueCount];
  std::deque<Packet> nic_backlog_;
  std::deque<u32> blk_backlog_;  // pids
  u32 pending_irq_[kQueueCount] = {0, 0};  // completions since the last IRQ
  bool quantum_armed_[kQueueCount] = {false, false};
  Stats stats_;
};

}  // namespace fc::io
