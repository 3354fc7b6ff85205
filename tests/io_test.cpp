// The virtio-style IO data plane: ring mechanics (wrap-around, back-pressure,
// out-of-order completion, reset), COW fleet isolation of ring pages, and the
// parity-tuning contract — under the default tuning every published
// completion raises exactly one IRQ, backlog refills raise none, and the
// guest is charged nothing for DMA.
#include <gtest/gtest.h>

#include <cstring>

#include "harness/harness.hpp"
#include "io/io_plane.hpp"
#include "io/virtio_ring.hpp"
#include "mem/shared_frames.hpp"

namespace fc {
namespace {

os::OsConfig ring_config(u32 ring_size) {
  os::OsConfig cfg;
  cfg.io.ring_size = ring_size;
  return cfg;
}

// ---------------------------------------------------------------------------
// Ring mechanics (host-driven: the device side injects, the test plays the
// guest's drain leaf directly).
// ---------------------------------------------------------------------------

TEST(IoPlane, RingWrapAroundPreservesFifoOrder) {
  // 4x the ring size plus a remainder, drained after every injection: the
  // free-running indices wrap several times and every packet comes back in
  // arrival order.
  harness::GuestSystem sys(ring_config(8));
  io::IoPlane* io = sys.os().io_plane();
  std::vector<u32> got;
  const u32 total = 4 * 8 + 3;
  for (u32 i = 0; i < total; ++i) {
    io->nic_rx({0, 9000, i + 1});
    io->drain_nic(
        [&got](const io::IoPlane::Packet& p) { got.push_back(p.len); });
  }
  ASSERT_EQ(got.size(), total);
  for (u32 i = 0; i < total; ++i) EXPECT_EQ(got[i], i + 1);
  EXPECT_EQ(io->stats().nic_delivered, total);
  EXPECT_EQ(io->stats().backpressure, 0u);
  EXPECT_EQ(io->in_flight(), 0u);
  // All buffers re-posted: the ring is back to its boot occupancy.
  EXPECT_EQ(io->queue(io::IoPlane::kNic).device_avail(), 8u);
}

TEST(IoPlane, FullRingBackpressuresIntoBacklogAndDrainsInOrder) {
  harness::GuestSystem sys(ring_config(4));
  io::IoPlane* io = sys.os().io_plane();
  // Burst of 10 into a 4-deep ring with no guest drain: 4 land in the ring,
  // 6 park in the device backlog without raising further IRQs.
  for (u32 i = 0; i < 10; ++i) io->nic_rx({0, 9000, i + 1});
  EXPECT_EQ(io->in_flight(), 4u);
  EXPECT_EQ(io->backlog_depth(), 6u);
  EXPECT_EQ(io->stats().backpressure, 6u);
  EXPECT_EQ(io->stats().backlog_peak, 6u);

  // One drain absorbs the whole burst — buffers freed by the drain are
  // refilled from the backlog mid-loop — and order is preserved end-to-end.
  std::vector<u32> got;
  u32 applied = io->drain_nic(
      [&got](const io::IoPlane::Packet& p) { got.push_back(p.len); });
  EXPECT_EQ(applied, 10u);
  ASSERT_EQ(got.size(), 10u);
  for (u32 i = 0; i < 10; ++i) EXPECT_EQ(got[i], i + 1);
  EXPECT_EQ(io->backlog_depth(), 0u);
  EXPECT_EQ(io->stats().backlog_refills, 6u);
  EXPECT_EQ(io->in_flight(), 0u);
  // Parity tuning: only the 4 packets published straight into the ring
  // raised an IRQ; the 6 parked ones raised none of their own and were
  // delivered by the drain's refill.
  EXPECT_EQ(io->stats().irqs_raised, 4u);
  EXPECT_EQ(io->stats().irqs_raised,
            io->stats().nic_delivered - io->stats().backlog_refills);
}

TEST(Virtqueue, OutOfOrderUsedPublicationIsLegal) {
  // A standalone queue on scratch guest memory (the unused third pool slot
  // of the IO arena): claim two buffers, publish them in reverse, and the
  // driver observes exactly the publication order.
  harness::GuestSystem sys;
  mem::Machine& m = sys.hv().machine();
  io::VirtqueueLayout lay;
  const GPhys scratch = io::kIoBufferPoolBase + 2 * io::kIoBufferPoolStride;
  lay.desc = scratch;
  lay.avail = scratch + 0x400;
  lay.used = scratch + 0x600;
  lay.buffers = scratch + 0x1000;
  lay.size = 4;
  lay.buf_bytes = 64;
  io::Virtqueue q(&m, lay);
  q.init();
  ASSERT_EQ(q.device_avail(), 4u);

  u32 first = q.device_pop_avail();
  u32 second = q.device_pop_avail();
  EXPECT_EQ(q.device_outstanding(), 2u);
  q.device_push_used(second, 7);
  q.device_push_used(first, 9);

  auto e1 = q.driver_pop_used();
  auto e2 = q.driver_pop_used();
  ASSERT_TRUE(e1.has_value());
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e1->id, second);
  EXPECT_EQ(e1->len, 7u);
  EXPECT_EQ(e2->id, first);
  EXPECT_EQ(e2->len, 9u);
  EXPECT_FALSE(q.driver_pop_used().has_value());
  EXPECT_EQ(q.device_outstanding(), 0u);
}

TEST(IoPlane, ResetMidFlightDropsStateAndTrafficResumes) {
  harness::GuestSystem sys(ring_config(4));
  io::IoPlane* io = sys.os().io_plane();
  // In-flight on both queues plus a NIC backlog, then yank the device.
  for (u32 i = 0; i < 7; ++i) io->nic_rx({0, 9000, i + 1});
  io->blk_complete(1);
  io->blk_complete(2);
  ASSERT_GT(io->in_flight(), 0u);
  ASSERT_GT(io->backlog_depth(), 0u);

  io->reset();
  EXPECT_EQ(io->in_flight(), 0u);
  EXPECT_EQ(io->backlog_depth(), 0u);
  EXPECT_EQ(io->stats().resets, 1u);
  EXPECT_EQ(io->queue(io::IoPlane::kNic).device_avail(), 4u);
  EXPECT_EQ(io->queue(io::IoPlane::kBlk).device_avail(), 4u);

  // Post-reset traffic flows normally and nothing pre-reset resurfaces.
  std::vector<u32> got;
  io->nic_rx({0, 9000, 101});
  io->nic_rx({0, 9000, 102});
  io->drain_nic(
      [&got](const io::IoPlane::Packet& p) { got.push_back(p.len); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 101u);
  EXPECT_EQ(got[1], 102u);
  std::vector<u32> pids;
  io->blk_complete(9);
  io->drain_blk([&pids](u32 pid) { pids.push_back(pid); });
  ASSERT_EQ(pids.size(), 1u);
  EXPECT_EQ(pids[0], 9u);
}

// ---------------------------------------------------------------------------
// COW fleet isolation: ring traffic in one clone promotes only that clone's
// ring pages; the image and sibling clones never see it.
// ---------------------------------------------------------------------------

TEST(IoPlane, RingTrafficPromotesOnlyTheActiveClonesPages) {
  harness::SharedImageOptions options;
  options.apps = {"gzip", "bash"};
  options.profile_iterations = 4;
  auto image = harness::build_shared_image(options);

  harness::GuestSystem a(os::OsConfig{}, *image);
  harness::GuestSystem b(os::OsConfig{}, *image);

  const GPhys nic_ctrl = io::kIoArenaPhys;        // queue 0 desc/avail/used
  const GPhys nic_pool = io::kIoBufferPoolBase;   // queue 0 buffer pool
  const mem::HostMemory& ah = a.hv().machine().host();
  const mem::HostMemory& bh = b.hv().machine().host();
  // Clones start with the boot-initialized ring control pages still
  // COW-shared (the clone's own init_rings writes are same-value no-ops
  // against the image), and the never-written buffer pools zero-backed.
  ASSERT_TRUE(ah.is_shared(a.hv().machine().frame_for(nic_ctrl)));
  ASSERT_TRUE(bh.is_shared(b.hv().machine().frame_for(nic_ctrl)));
  ASSERT_TRUE(bh.is_zero_backed(b.hv().machine().frame_for(nic_pool)));
  const u64 promotions_before = ah.cow_promotions();

  // NIC traffic in A only (no listener — the drop still flows through the
  // ring DMA path). B just runs.
  a.os().schedule_datagram_stream(a.vcpu().cycles() + 1'000, 50'000, 50,
                                  9000, 64);
  a.run_for(4'000'000);
  b.run_for(4'000'000);
  EXPECT_GT(a.os().io_plane()->stats().nic_delivered, 0u);

  // A promoted its ring control page and buffer pool page...
  EXPECT_GT(ah.cow_promotions(), promotions_before);
  EXPECT_TRUE(ah.is_private(a.hv().machine().frame_for(nic_ctrl)));
  EXPECT_TRUE(ah.is_private(a.hv().machine().frame_for(nic_pool)));

  // ...while B's ctrl page stays shared and byte-identical to the image
  // store, and B's pool page never left the zero frame.
  HostFrame bf = b.hv().machine().frame_for(nic_ctrl);
  ASSERT_TRUE(bh.is_shared(bf)) << "B's ring ctrl page lost sharing";
  EXPECT_EQ(std::memcmp(bh.frame(bf).data(),
                        image->store.page_data(bh.shared_backing(bf)),
                        kPageSize),
            0)
      << "B's ring ctrl page diverged from the store";
  EXPECT_TRUE(bh.is_zero_backed(b.hv().machine().frame_for(nic_pool)))
      << "B's ring buffer pool was written without traffic";
}

// ---------------------------------------------------------------------------
// Parity tuning: the paper's one-interrupt-per-event device model.
// ---------------------------------------------------------------------------

TEST(IoParity, DefaultTuningRaisesOneIrqPerPublishedCompletion) {
  // The apache scenario drives the full stack — SYN/data packets through the
  // NIC queue, file IO through the block queue — at the default tuning.
  harness::GuestSystem sys;
  apps::AppScenario scenario = apps::make_app("apache", 2);
  const u32 pid = sys.os().spawn("apache", scenario.model);
  scenario.install_environment(sys.os());
  sys.run_until_exit(pid, 300'000'000ull);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));

  const io::IoPlane::Stats& s = sys.os().io_plane()->stats();
  EXPECT_GT(s.nic_delivered, 0u);
  EXPECT_GT(s.drains, 0u);
  // One IRQ per completion published by the device, none for a completion
  // refilled from the backlog (the running drain delivers it).
  EXPECT_EQ(s.irqs_raised,
            s.nic_delivered + s.blk_completions - s.backlog_refills);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.irqs_from_quantum, 0u);
  EXPECT_EQ(s.dma_cycles_charged, 0u);
}

}  // namespace
}  // namespace fc
