#include "io/io_plane.hpp"

#include "hv/guest_abi.hpp"
#include "obs/trace.hpp"

namespace fc::io {

namespace {
constexpr GPhys align_up(GPhys v, GPhys a) { return (v + a - 1) & ~(a - 1); }
}  // namespace

IoPlane::IoPlane(mem::Machine& machine, cpu::Vcpu& vcpu,
                 hv::EventQueue& events, IoTuning tuning)
    : m_(&machine), vcpu_(&vcpu), events_(&events), tuning_(tuning) {
  FC_CHECK(tuning_.ring_size > 0 && tuning_.ring_size <= 512 &&
               (tuning_.ring_size & (tuning_.ring_size - 1)) == 0,
           << "io ring_size must be a power of two <= 512: "
           << tuning_.ring_size);
  FC_CHECK(tuning_.coalesce_count > 0, << "coalesce_count must be >= 1");
  for (u32 q = 0; q < kQueueCount; ++q)
    queues_[q] = Virtqueue(m_, layout_for(static_cast<Queue>(q)));
}

VirtqueueLayout IoPlane::layout_for(Queue q) const {
  // Control block layout inside the queue's stride: descriptor table,
  // then the avail ring, then the used ring, each 16-byte aligned.
  VirtqueueLayout lay;
  lay.size = tuning_.ring_size;
  const GPhys ctrl = kIoArenaPhys + static_cast<GPhys>(q) * kIoQueueCtrlStride;
  lay.desc = ctrl;
  lay.avail = ctrl + static_cast<GPhys>(lay.size) * 16;
  lay.used = align_up(lay.avail + 4 + static_cast<GPhys>(lay.size) * 4, 16);
  const GPhys ctrl_end = lay.used + 4 + static_cast<GPhys>(lay.size) * 8;
  FC_CHECK(ctrl_end <= ctrl + kIoQueueCtrlStride,
           << "virtqueue control block overflows its stride");
  lay.buffers = kIoBufferPoolBase + static_cast<GPhys>(q) * kIoBufferPoolStride;
  lay.buf_bytes = 256;
  return lay;
}

void IoPlane::init_rings() {
  for (u32 q = 0; q < kQueueCount; ++q) queues_[q].init();
}

u64 IoPlane::in_flight() const {
  u64 depth = 0;
  for (u32 q = 0; q < kQueueCount; ++q) depth += queues_[q].used_pending();
  return depth;
}

u32 IoPlane::charge_dma(u32 bytes) {
  if (!tuning_.meter_dma) return 0;
  const cpu::PerfModel& pm = vcpu_->perf_model();
  u32 cost = pm.cost_dma_per_desc + ((bytes + 255) / 256) * pm.cost_dma_per_256b;
  vcpu_->charge(cost);
  stats_.dma_cycles_charged += cost;
  return cost;
}

void IoPlane::dma_packet(Virtqueue& vq, u32 id, const Packet& packet) {
  const GPhys buf = static_cast<GPhys>(vq.desc_addr(id));
  m_->pwrite32(buf + 0, packet.kind);
  m_->pwrite32(buf + 4, packet.sel);
  m_->pwrite32(buf + 8, packet.len);
  charge_dma(12 + packet.len);  // header record + modeled payload
}

void IoPlane::completion_published(Queue q) {
  Virtqueue& vq = queues_[q];
  if (vq.used_pending() > stats_.in_flight_peak)
    stats_.in_flight_peak = vq.used_pending();
  ++pending_irq_[q];
  if (pending_irq_[q] >= tuning_.coalesce_count) {
    raise(q, /*from_quantum=*/false);
    return;
  }
  if (tuning_.coalesce_cycles != 0 && !quantum_armed_[q]) {
    quantum_armed_[q] = true;
    events_->schedule_at(vcpu_->cycles() + tuning_.coalesce_cycles, [this, q] {
      quantum_armed_[q] = false;
      if (pending_irq_[q] > 0) raise(q, /*from_quantum=*/true);
    });
  }
}

void IoPlane::raise(Queue q, bool from_quantum) {
  ++stats_.irqs_raised;
  if (from_quantum) ++stats_.irqs_from_quantum;
  stats_.coalesced += pending_irq_[q] - 1;
  FC_TRACE_EVENT(kIoIrqFire, from_quantum ? 1 : 0, 0, q, pending_irq_[q], 0,
                 0);
  pending_irq_[q] = 0;
  vcpu_->raise_irq(q == kNic ? abi::kIrqNet : abi::kIrqDisk);
}

void IoPlane::nic_rx(const Packet& packet) {
  ++stats_.nic_offered;
  Virtqueue& vq = queues_[kNic];
  if (vq.device_avail() == 0) {
    nic_backlog_.push_back(packet);
    ++stats_.backpressure;
    if (nic_backlog_.size() > stats_.backlog_peak)
      stats_.backlog_peak = nic_backlog_.size();
    FC_TRACE_EVENT(kIoBackpressure, 0, 0, kNic,
                   static_cast<u32>(nic_backlog_.size()), 0, 0);
    return;
  }
  u32 id = vq.device_pop_avail();
  dma_packet(vq, id, packet);
  vq.device_push_used(id, 12);
  ++stats_.nic_delivered;
  FC_TRACE_EVENT(kIoRingPublish, 0, 0, kNic, id, packet.len,
                 vq.used_pending());
  completion_published(kNic);
}

void IoPlane::blk_complete(u32 pid) {
  Virtqueue& vq = queues_[kBlk];
  if (vq.device_avail() == 0) {
    blk_backlog_.push_back(pid);
    ++stats_.backpressure;
    if (blk_backlog_.size() > stats_.backlog_peak)
      stats_.backlog_peak = blk_backlog_.size();
    FC_TRACE_EVENT(kIoBackpressure, 0, 0, kBlk,
                   static_cast<u32>(blk_backlog_.size()), 0, 0);
    return;
  }
  u32 id = vq.device_pop_avail();
  m_->pwrite32(static_cast<GPhys>(vq.desc_addr(id)), pid);
  charge_dma(4);
  vq.device_push_used(id, 4);
  ++stats_.blk_completions;
  FC_TRACE_EVENT(kIoRingPublish, 0, 0, kBlk, id, pid, vq.used_pending());
  completion_published(kBlk);
}

void IoPlane::refill_nic_from_backlog() {
  Virtqueue& vq = queues_[kNic];
  while (!nic_backlog_.empty() && vq.device_avail() > 0) {
    Packet p = nic_backlog_.front();
    nic_backlog_.pop_front();
    u32 id = vq.device_pop_avail();
    dma_packet(vq, id, p);
    vq.device_push_used(id, 12);
    ++stats_.nic_delivered;
    ++stats_.backlog_refills;
    FC_TRACE_EVENT(kIoRingPublish, 1, 0, kNic, id, p.len, vq.used_pending());
    // No completion_published(): the drain that triggered this refill is
    // already consuming the used ring, so no further IRQ is needed.
  }
}

void IoPlane::refill_blk_from_backlog() {
  Virtqueue& vq = queues_[kBlk];
  while (!blk_backlog_.empty() && vq.device_avail() > 0) {
    u32 pid = blk_backlog_.front();
    blk_backlog_.pop_front();
    u32 id = vq.device_pop_avail();
    m_->pwrite32(static_cast<GPhys>(vq.desc_addr(id)), pid);
    charge_dma(4);
    vq.device_push_used(id, 4);
    ++stats_.blk_completions;
    ++stats_.backlog_refills;
    FC_TRACE_EVENT(kIoRingPublish, 1, 0, kBlk, id, pid, vq.used_pending());
  }
}

u32 IoPlane::drain_nic(const std::function<void(const Packet&)>& apply) {
  Virtqueue& vq = queues_[kNic];
  ++stats_.drains;
  u32 applied = 0;
  [[maybe_unused]] const u64 refills_before = stats_.backlog_refills;
  for (;;) {
    std::optional<UsedElem> u = vq.driver_pop_used();
    if (!u.has_value()) break;
    const GPhys buf = static_cast<GPhys>(vq.desc_addr(u->id));
    Packet p{m_->pread32(buf), m_->pread32(buf + 4), m_->pread32(buf + 8)};
    apply(p);
    ++applied;
    vq.driver_post(u->id);
    if (!nic_backlog_.empty()) refill_nic_from_backlog();
  }
  // Everything published so far has been serviced by this interrupt.
  pending_irq_[kNic] = 0;
  FC_TRACE_EVENT(kIoDrain, 0, 0, kNic, applied,
                 static_cast<u32>(stats_.backlog_refills - refills_before),
                 vq.used_pending());
  return applied;
}

u32 IoPlane::drain_blk(const std::function<void(u32)>& apply) {
  Virtqueue& vq = queues_[kBlk];
  ++stats_.drains;
  u32 applied = 0;
  [[maybe_unused]] const u64 refills_before = stats_.backlog_refills;
  for (;;) {
    std::optional<UsedElem> u = vq.driver_pop_used();
    if (!u.has_value()) break;
    u32 pid = m_->pread32(static_cast<GPhys>(vq.desc_addr(u->id)));
    apply(pid);
    ++applied;
    vq.driver_post(u->id);
    if (!blk_backlog_.empty()) refill_blk_from_backlog();
  }
  pending_irq_[kBlk] = 0;
  FC_TRACE_EVENT(kIoDrain, 0, 0, kBlk, applied,
                 static_cast<u32>(stats_.backlog_refills - refills_before),
                 vq.used_pending());
  return applied;
}

void IoPlane::reset() {
  nic_backlog_.clear();
  blk_backlog_.clear();
  for (u32 q = 0; q < kQueueCount; ++q) pending_irq_[q] = 0;
  // An armed quantum timer may still fire; it re-checks pending_irq_ and
  // finds nothing, so a reset can never resurrect a pre-reset interrupt.
  init_rings();
  ++stats_.resets;
}

void IoPlane::export_metrics(obs::Metrics& out) const {
  out.set("io.nic.offered", stats_.nic_offered);
  out.set("io.nic.delivered", stats_.nic_delivered);
  out.set("io.blk.completions", stats_.blk_completions);
  out.set("io.ring.backpressure", stats_.backpressure);
  out.set("io.ring.backlog_refills", stats_.backlog_refills);
  out.set("io.irq.raised", stats_.irqs_raised);
  out.set("io.irq.from_quantum", stats_.irqs_from_quantum);
  out.set("io.irq.coalesced", stats_.coalesced);
  out.set("io.ring.drains", stats_.drains);
  out.set("io.ring.resets", stats_.resets);
  out.set("io.dma.cycles_charged", stats_.dma_cycles_charged);
  out.gauge_set("io.ring.backlog_peak", stats_.backlog_peak);
  out.gauge_set("io.ring.in_flight_peak", stats_.in_flight_peak);
}

}  // namespace fc::io
