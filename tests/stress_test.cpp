// Stress and churn: long-running enforcement with repeated hot view
// swapping, all twelve applications concurrently under their own views,
// engine enable/disable cycling, and randomized config serialization
// round-trips.
#include <gtest/gtest.h>

#include "core/similarity.hpp"
#include "harness/harness.hpp"
#include "hv/guest_abi.hpp"

namespace fc {
namespace {

// All guest-physical code a kernel view can redirect (base kernel text plus
// listed module pages), read through the currently active EPT mappings.
std::vector<u8> visible_code(harness::GuestSystem& sys) {
  mem::Machine& machine = sys.hv().machine();
  std::vector<u8> out(mem::GuestLayout::kKernelCodeMax);
  machine.pread_bytes(mem::GuestLayout::kKernelCodePhys, out);
  for (const hv::ModuleInfo& mod : sys.hv().vmi().module_list()) {
    GPhys lo = mem::GuestLayout::kernel_pa(mod.base) &
               ~static_cast<GPhys>(kPageMask);
    GPhys hi = (mem::GuestLayout::kernel_pa(mod.base) + mod.size + kPageMask) &
               ~static_cast<GPhys>(kPageMask);
    std::vector<u8> pages(hi - lo);
    machine.pread_bytes(lo, pages);
    out.insert(out.end(), pages.begin(), pages.end());
  }
  return out;
}

TEST(Stress, AllTwelveAppsConcurrentlyUnderTheirOwnViews) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  for (const core::KernelViewConfig& cfg : harness::profile_all_apps())
    engine.bind(cfg.app_name, engine.load_view(cfg));

  std::vector<u32> pids;
  for (const std::string& app : apps::all_app_names()) {
    apps::AppScenario scenario = apps::make_app(app, 4);
    pids.push_back(sys.os().spawn(app, scenario.model));
    scenario.install_environment(sys.os());
  }
  hv::RunOutcome outcome = sys.hv().run([&] {
    for (u32 pid : pids)
      if (!sys.os().task_zombie_or_dead(pid)) return false;
    return true;
  });
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  for (u32 pid : pids) EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
  // Twelve different views were actually switched between.
  EXPECT_GT(engine.stats().view_switches(), 24u);
}

TEST(Stress, RepeatedLoadUnloadChurn) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  const core::KernelViewConfig& cfg = harness::profile_of("top");

  apps::AppScenario top = apps::make_app("top", 200);
  u32 pid = sys.os().spawn("top", top.model);
  top.install_environment(sys.os());

  for (int round = 0; round < 25 && sys.os().task_alive(pid); ++round) {
    u32 view = engine.load_view(cfg);
    engine.bind("top", view);
    sys.run_for(2'000'000);
    engine.unload_view(view);  // hot unplug, possibly while active
    sys.run_for(500'000);
  }
  EXPECT_EQ(engine.view_count(), 0u);
  // The app survived 25 plug/unplug cycles.
  hv::RunOutcome outcome = sys.run_until_exit(pid, 2'000'000'000ull);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
}

TEST(Stress, EnableDisableCycling) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  u32 view = 0;
  apps::AppScenario gzip = apps::make_app("gzip", 60);
  u32 pid = sys.os().spawn("gzip", gzip.model);
  for (int round = 0; round < 10 && sys.os().task_alive(pid); ++round) {
    engine.enable();
    if (round == 0) {
      view = engine.load_view(harness::profile_of("gzip"));
      engine.bind("gzip", view);
    }
    sys.run_for(2'000'000);
    engine.disable();
    sys.run_for(1'000'000);
  }
  hv::RunOutcome outcome = sys.run_until_exit(pid, 1'000'000'000ull);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

TEST(Stress, LongRunUnderEnforcementStaysHealthy) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.bind("apache", engine.load_view(harness::profile_of("apache")));
  apps::AppScenario apache = apps::make_app("apache", 150);
  u32 pid = sys.os().spawn("apache", apache.model);
  apache.install_environment(sys.os());
  hv::RunOutcome outcome = sys.run_until_exit(pid, 3'000'000'000ull);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
  EXPECT_EQ(sys.os().counters().responses_completed, 150u);
  // Steady state: the view stopped growing (no recovery churn).
  EXPECT_LT(engine.recovery_stats().recoveries, 30u);
}

TEST(Stress, HotUnloadActiveViewWithArmedResumeTrap) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  const os::KernelImage& kernel = sys.os().kernel();
  engine.enable();
  u32 view = engine.load_view(harness::profile_of("top"));
  engine.bind("top", view);
  apps::AppScenario top = apps::make_app("top", 4);
  u32 pid = sys.os().spawn("top", top.model);

  // Arm a deferred switch to the view (exactly as the context-switch trap
  // does), force the view active, then hot-unload it with the resume trap
  // still armed.
  sys.vcpu().regs()[isa::Reg::B] = abi::Task::addr(pid);
  engine.handle_breakpoint(kernel.symbols.must_addr("__switch_to"));
  engine.force_activate(view);
  engine.unload_view(view);
  EXPECT_EQ(engine.active_view_id(), core::kFullKernelViewId);

  // The stale resume trap fires next: it must not resurrect the unloaded id.
  engine.handle_breakpoint(kernel.symbols.must_addr("resume_userspace"));
  EXPECT_EQ(engine.active_view_id(), core::kFullKernelViewId);
  EXPECT_EQ(engine.view_count(), 0u);

  // And the guest still runs to completion under enforcement.
  top.install_environment(sys.os());
  EXPECT_NE(sys.run_until_exit(pid, 600'000'000),
            hv::RunOutcome::kGuestFault);
}

TEST(Stress, RandomizedViewPairsFastNaiveEquivalence) {
  harness::GuestSystem fast_sys;
  harness::GuestSystem naive_sys;
  core::EngineOptions naive_opts;
  naive_opts.delta_switch_fastpath = false;
  core::FaceChangeEngine fast(fast_sys.hv(), fast_sys.os().kernel());
  core::FaceChangeEngine naive(naive_sys.hv(), naive_sys.os().kernel(),
                               naive_opts);
  fast.enable();
  naive.enable();

  Rng rng(20140623);
  std::vector<u32> ids{core::kFullKernelViewId};
  for (int v = 0; v < 4; ++v) {
    core::KernelViewConfig cfg;
    cfg.app_name = "rand" + std::to_string(v);
    for (int i = 0; i < 120; ++i) {
      u32 begin = 0xC0400000 + rng.below(1u << 21);
      cfg.base.insert(begin, begin + rng.between(2, 2048));
    }
    u32 f = fast.load_view(cfg);
    u32 n = naive.load_view(cfg);
    ASSERT_EQ(f, n);
    ids.push_back(f);
  }

  // Random walk over {full, v1..v4}: after every switch the fast path must
  // leave the EPT byte-identical to the naive full rewrite.
  for (int step = 0; step < 30; ++step) {
    u32 target = ids[rng.below(static_cast<u32>(ids.size()))];
    fast.force_activate(target);
    naive.force_activate(target);
    ASSERT_EQ(visible_code(fast_sys), visible_code(naive_sys))
        << "divergence at step " << step << " switching to " << target;
  }
  EXPECT_GT(fast.stats().fastpath_switches, 0u);
}

class ConfigRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(ConfigRoundTrip, RandomConfigsSurviveSerialization) {
  Rng rng(GetParam());
  core::KernelViewConfig cfg;
  cfg.app_name = "random";
  for (int i = 0; i < 200; ++i) {
    u32 begin = 0xC0400000 + rng.below(1u << 21);
    cfg.base.insert(begin, begin + rng.between(2, 4096));
  }
  for (int m = 0; m < 3; ++m) {
    std::string name = "mod" + std::to_string(m);
    for (int i = 0; i < 40; ++i) {
      u32 begin = rng.below(1u << 16);
      cfg.modules[name].insert(begin, begin + rng.between(2, 512));
    }
  }
  std::optional<core::KernelViewConfig> back =
      core::KernelViewConfig::parse(cfg.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(cfg == *back);
  // And the parsed copy builds into a working view.
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  u32 view = engine.load_view(*back);
  engine.force_activate(view);
  engine.force_activate(core::kFullKernelViewId);
  engine.unload_view(view);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigRoundTrip,
                         ::testing::Values(7, 77, 777, 7777));

}  // namespace
}  // namespace fc
