// Smaller API surfaces: similarity-matrix analytics on synthetic configs,
// interrupt-profile export, behaviour-monitor chaining/disable, event-queue
// clearing, and support utilities.
#include <gtest/gtest.h>

#include "core/behavior.hpp"
#include "core/similarity.hpp"
#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "hv/event_queue.hpp"
#include "support/cli.hpp"
#include "support/hexdump.hpp"

namespace fc {
namespace {

core::KernelViewConfig synthetic(const std::string& name, u32 base,
                                 u32 size) {
  core::KernelViewConfig cfg;
  cfg.app_name = name;
  cfg.base.insert(base, base + size);
  return cfg;
}

TEST(Similarity, MatrixAnalyticsOnSyntheticConfigs) {
  // a: [0,100); b: [50,150); c: [200,300) — a∩b=50, c disjoint.
  std::vector<core::KernelViewConfig> configs = {
      synthetic("a", 0, 100), synthetic("b", 50, 100),
      synthetic("c", 200, 100)};
  core::SimilarityMatrix m = core::compute_similarity(configs);
  EXPECT_EQ(m.sizes_bytes[0], 100u);
  EXPECT_EQ(m.overlap[0][1], 50u);
  EXPECT_DOUBLE_EQ(m.similarity[0][1], 0.5);
  EXPECT_DOUBLE_EQ(m.similarity[0][2], 0.0);
  EXPECT_DOUBLE_EQ(m.similarity[1][0], m.similarity[0][1]);
  EXPECT_DOUBLE_EQ(m.min_similarity(), 0.0);
  EXPECT_DOUBLE_EQ(m.max_similarity(), 0.5);
  std::string table = m.render();
  EXPECT_NE(table.find("[0KB]"), std::string::npos);
  EXPECT_NE(table.find("50.0%"), std::string::npos);
}

TEST(Profiler, InterruptProfileIsExportable) {
  harness::GuestSystem sys;
  core::Profiler profiler(sys.hv(), sys.os().kernel());
  profiler.attach();
  sys.run_for(10'000'000);  // idle + timer interrupts only
  profiler.detach();
  core::KernelViewConfig irq = profiler.interrupt_profile();
  EXPECT_GT(irq.base.size_bytes(), 1000u);
  GVirt timer = sys.os().kernel().symbols.must_addr("timer_interrupt");
  EXPECT_TRUE(irq.base.contains(timer));
}

TEST(BehaviorMonitor, DisableRestoresTheChainedHandler) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.bind("top", engine.load_view(harness::profile_of("top")));
  {
    core::BehaviorMonitor monitor(sys.hv(), sys.os().kernel());
    monitor.enable(&engine);
    sys.run_for(3'000'000);
    monitor.disable();
  }
  // The engine is the handler again; enforcement still works end to end.
  apps::AppScenario top = apps::make_app("top", 5);
  u32 pid = sys.os().spawn("top", top.model);
  top.install_environment(sys.os());
  EXPECT_NE(sys.run_until_exit(pid, 600'000'000),
            hv::RunOutcome::kGuestFault);
  EXPECT_GT(engine.stats().view_switches(), 0u);
}

TEST(EventQueue, ClearDropsEverything) {
  hv::EventQueue queue;
  int fired = 0;
  queue.schedule_at(10, [&] { ++fired; });
  queue.schedule_at(20, [&] { ++fired; });
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.run_due(100), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Support, HexFormattersMatchThePapersStyle) {
  EXPECT_EQ(hex32(0xC021A526), "0xc021a526");
  std::vector<u8> bytes = {0x0F, 0x0B, 0x0F, 0x0B};
  EXPECT_EQ(byte_dump(bytes), "0xf 0xb 0xf 0xb");
}

TEST(Support, StableHashIsStable) {
  EXPECT_EQ(stable_hash("schedule"), stable_hash("schedule"));
  EXPECT_NE(stable_hash("schedule"), stable_hash("schedulf"));
}

TEST(Support, CountParserTakesOnlyWholeDecimalNumbersInRange) {
  EXPECT_EQ(parse_count("12", 1, 100), 12u);
  EXPECT_EQ(parse_count("0", 0, 5), 0u);
  EXPECT_EQ(parse_count("007", 0, 10), 7u);
  EXPECT_EQ(parse_count("4096", 1, 4096), 4096u);
  EXPECT_EQ(parse_count("18446744073709551615", 0, ~0ull), ~0ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12x", "x12", "1.5",
                          "0x10", "1e3", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_FALSE(parse_count(bad, 0, ~0ull).has_value()) << "'" << bad << "'";
  EXPECT_FALSE(parse_count("0", 1, 100).has_value());     // below range
  EXPECT_FALSE(parse_count("4097", 1, 4096).has_value());  // above range
}

TEST(FleetShape, CapsVmsAndResolvedWorkers) {
  EXPECT_EQ(fleet::resolved_workers(8, 1), 1u);
  EXPECT_EQ(fleet::resolved_workers(8, 4), 4u);
  EXPECT_EQ(fleet::resolved_workers(8, 0), 8u);    // one per VM
  EXPECT_EQ(fleet::resolved_workers(8, 64), 8u);   // never more than VMs
  EXPECT_EQ(fleet::resolved_workers(0, 0), 1u);
  EXPECT_TRUE(fleet::fleet_shape_error(1, 1).empty());
  EXPECT_TRUE(fleet::fleet_shape_error(fleet::kMaxVms, 8).empty());
  EXPECT_TRUE(fleet::fleet_shape_error(fleet::kMaxWorkers, 0).empty());
  EXPECT_TRUE(fleet::fleet_shape_error(fleet::kMaxVms, fleet::kMaxWorkers)
                  .empty());
  EXPECT_FALSE(fleet::fleet_shape_error(0, 1).empty());
  EXPECT_FALSE(fleet::fleet_shape_error(fleet::kMaxVms + 1, 1).empty());
  // --jobs 0 asks for a worker per VM: past the worker cap it is rejected.
  EXPECT_FALSE(fleet::fleet_shape_error(fleet::kMaxWorkers + 1, 0).empty());
  EXPECT_FALSE(
      fleet::fleet_shape_error(fleet::kMaxVms, fleet::kMaxWorkers + 1).empty());
}

TEST(Support, RngIsDeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    u32 v = r.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Engine, ViewIdsAreStableAndQueryable) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  u32 a = engine.load_view(harness::profile_of("top"));
  u32 b = engine.load_view(harness::profile_of("gzip"));
  EXPECT_NE(a, b);
  ASSERT_NE(engine.view(a), nullptr);
  ASSERT_NE(engine.view(b), nullptr);
  EXPECT_EQ(engine.view(a)->config.app_name, "top");
  EXPECT_EQ(engine.view(b)->config.app_name, "gzip");
  EXPECT_EQ(engine.view(999), nullptr);
  engine.unload_view(a);
  EXPECT_EQ(engine.view(a), nullptr);
  EXPECT_EQ(engine.view_count(), 1u);
}

TEST(Engine, BindToUnknownViewIsFatal) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  EXPECT_DEATH(engine.bind("top", 42), "unknown view");
}

TEST(Recovery, CrossViewScanStatsAreAccounted) {
  // Scans fire when a task switches in while a *custom* view is active —
  // which needs at least two enforced applications time-slicing.
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.bind("top", engine.load_view(harness::profile_of("top")));
  engine.bind("gzip", engine.load_view(harness::profile_of("gzip")));
  apps::AppScenario top = apps::make_app("top", 8);
  apps::AppScenario gzip = apps::make_app("gzip", 8);
  u32 p1 = sys.os().spawn("top", top.model);
  u32 p2 = sys.os().spawn("gzip", gzip.model);
  top.install_environment(sys.os());
  sys.hv().run([&] {
    return sys.os().task_zombie_or_dead(p1) &&
           sys.os().task_zombie_or_dead(p2);
  });
  EXPECT_GT(engine.recovery_stats().cross_view_scans, 0u);
}

}  // namespace
}  // namespace fc
