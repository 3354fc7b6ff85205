// FACE-CHANGE engine tests (Algorithm 1): view switching at the guest's
// context switches, deferral to resume-userspace, same-view optimization,
// selectors, hot load/unload, EPT state transitions, and cost accounting.
#include <gtest/gtest.h>

#include <span>

#include "harness/harness.hpp"
#include "hv/guest_abi.hpp"

namespace fc {
namespace {

using mem::GuestLayout;

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : engine_(sys_.hv(), sys_.os().kernel()) {}

  u8 current_byte(GVirt va) {
    return sys_.hv().machine().pread8(GuestLayout::kernel_pa(va));
  }

  harness::GuestSystem sys_;
  core::FaceChangeEngine engine_;
};

TEST_F(EngineFixture, ForceActivateRedirectsKernelCode) {
  const os::KernelImage& kernel = sys_.os().kernel();
  GVirt probe = kernel.symbols.must_addr("udp_recvmsg");
  u8 pristine = current_byte(probe);
  EXPECT_EQ(pristine, 0x55);  // prologue

  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.force_activate(view);
  // top never touches UDP: through the EPT the same VA now reads UD2.
  EXPECT_EQ(current_byte(probe) == 0x0F || current_byte(probe) == 0x0B, true);
  EXPECT_EQ(engine_.active_view_id(), view);

  engine_.force_activate(core::kFullKernelViewId);
  EXPECT_EQ(current_byte(probe), 0x55);
}

TEST_F(EngineFixture, ProfiledCodeIsPresentInTheActiveView) {
  const os::KernelImage& kernel = sys_.os().kernel();
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.force_activate(view);
  // Code top DOES use is byte-identical to the pristine kernel.
  for (const char* fn : {"proc_reg_read", "sys_nanosleep", "tty_write",
                         "schedule", "syscall_call"}) {
    GVirt addr = kernel.symbols.must_addr(fn);
    EXPECT_EQ(current_byte(addr),
              sys_.hv().pristine_read8(addr)) << fn;
  }
  engine_.force_activate(core::kFullKernelViewId);
}

TEST_F(EngineFixture, SwitchesOnGuestContextSwitches) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.bind("top", view);

  apps::AppScenario top = apps::make_app("top", 6);
  u32 pid = sys_.os().spawn("top", top.model);
  top.install_environment(sys_.os());
  sys_.run_until_exit(pid, 600'000'000);

  EXPECT_GT(engine_.stats().context_switch_traps, 10u);
  EXPECT_GT(engine_.stats().resume_traps, 0u);
  EXPECT_GT(engine_.stats().view_switches(), 1u);
  EXPECT_GT(engine_.stats().switch_cycles_charged, 0u);
  // After the workload, the idle task (full view) is current again.
  EXPECT_EQ(engine_.active_view_id(), core::kFullKernelViewId);
}

TEST_F(EngineFixture, SameViewOptimizationSkipsSwitches) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("gzip"));
  engine_.bind("gzip", view);
  // Two gzip processes sharing one view.
  apps::AppScenario a = apps::make_app("gzip", 6);
  apps::AppScenario b = apps::make_app("gzip", 6);
  u32 p1 = sys_.os().spawn("gzip", a.model);
  u32 p2 = sys_.os().spawn("gzip", b.model);
  sys_.hv().run([&] {
    return sys_.os().task_zombie_or_dead(p1) &&
           sys_.os().task_zombie_or_dead(p2);
  });
  EXPECT_GT(engine_.stats().switches_skipped_same_view, 0u);
}

TEST_F(EngineFixture, UnboundProcessesRunUnderTheFullView) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.bind("top", view);

  // gzip is NOT bound: running it must not create recoveries even though
  // its kernel needs differ from top's view.
  apps::AppScenario gzip = apps::make_app("gzip", 6);
  u32 pid = sys_.os().spawn("gzip", gzip.model);
  sys_.run_until_exit(pid, 600'000'000);
  EXPECT_EQ(engine_.recovery_log().size(), 0u);
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(pid));
}

TEST_F(EngineFixture, HotUnloadWhileActiveRevertsToFullView) {
  const os::KernelImage& kernel = sys_.os().kernel();
  GVirt probe = kernel.symbols.must_addr("udp_recvmsg");
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.force_activate(view);
  ASSERT_NE(current_byte(probe), 0x55);

  engine_.unload_view(view);  // §III-B4: hot unplug
  EXPECT_EQ(engine_.active_view_id(), core::kFullKernelViewId);
  EXPECT_EQ(current_byte(probe), 0x55);
  EXPECT_EQ(engine_.view_count(), 0u);
}

TEST_F(EngineFixture, DisableRestoresEverything) {
  const os::KernelImage& kernel = sys_.os().kernel();
  GVirt probe = kernel.symbols.must_addr("udp_recvmsg");
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.bind("top", view);
  engine_.force_activate(view);
  engine_.disable();
  EXPECT_EQ(current_byte(probe), 0x55);
  EXPECT_FALSE(engine_.enabled());
  // The guest keeps running normally afterwards.
  apps::AppScenario gzip = apps::make_app("gzip", 4);
  u32 pid = sys_.os().spawn("gzip", gzip.model);
  EXPECT_NE(sys_.run_until_exit(pid, 600'000'000),
            hv::RunOutcome::kGuestFault);
}

TEST_F(EngineFixture, RebindSwitchesSelectors) {
  engine_.enable();
  u32 top_view = engine_.load_view(harness::profile_of("top"));
  engine_.bind("worker", top_view);
  engine_.unbind("worker");
  // After unbind, the process runs under the full view: no recoveries.
  apps::AppScenario gzip = apps::make_app("gzip", 4);
  u32 pid = sys_.os().spawn("worker", gzip.model);
  sys_.run_until_exit(pid, 600'000'000);
  EXPECT_EQ(engine_.recovery_log().size(), 0u);
}

TEST_F(EngineFixture, MultipleViewsCoexistAndSwitchPerProcess) {
  engine_.enable();
  engine_.bind("top", engine_.load_view(harness::profile_of("top")));
  engine_.bind("gzip", engine_.load_view(harness::profile_of("gzip")));

  apps::AppScenario top = apps::make_app("top", 6);
  apps::AppScenario gzip = apps::make_app("gzip", 6);
  u32 p1 = sys_.os().spawn("top", top.model);
  u32 p2 = sys_.os().spawn("gzip", gzip.model);
  top.install_environment(sys_.os());
  hv::RunOutcome outcome = sys_.hv().run([&] {
    return sys_.os().task_zombie_or_dead(p1) &&
           sys_.os().task_zombie_or_dead(p2);
  });
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  // Both completed under enforcement with at most benign recoveries.
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(p1));
  EXPECT_TRUE(sys_.os().task_zombie_or_dead(p2));
  EXPECT_GT(engine_.stats().view_switches(), 4u);
}

TEST_F(EngineFixture, SwitchCostsScaleWithEptWrites) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  Cycles before = engine_.stats().switch_cycles_charged;
  engine_.force_activate(view);
  Cycles first = engine_.stats().switch_cycles_charged - before;
  const cpu::PerfModel& pm = sys_.vcpu().perf_model();
  // At least: base-kernel PDE writes + the scoped-invalidation base cost —
  // and strictly less than a full flush alone would have charged.
  EXPECT_GE(first, 2u * pm.cost_ept_pde_write + pm.cost_tlb_scoped_base);
  EXPECT_LT(first, pm.cost_tlb_flush);
  // Same-view skip charges nothing.
  before = engine_.stats().switch_cycles_charged;
  engine_.force_activate(view);
  EXPECT_EQ(engine_.stats().switch_cycles_charged, before);
}

TEST(EngineNaive, NaiveSwitchCostsIncludeFullFlush) {
  harness::GuestSystem sys;
  core::EngineOptions opts;
  opts.delta_switch_fastpath = false;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel(), opts);
  engine.enable();
  u32 view = engine.load_view(harness::profile_of("top"));
  Cycles before = engine.stats().switch_cycles_charged;
  engine.force_activate(view);
  Cycles first = engine.stats().switch_cycles_charged - before;
  const cpu::PerfModel& pm = sys.vcpu().perf_model();
  // The naive rewrite pays base-kernel PDE writes + a full TLB flush.
  EXPECT_GE(first, 2u * pm.cost_ept_pde_write + pm.cost_tlb_flush);
  EXPECT_EQ(engine.stats().slowpath_switches, 1u);
  EXPECT_EQ(engine.stats().fastpath_switches, 0u);
  engine.force_activate(core::kFullKernelViewId);
}

TEST_F(EngineFixture, DescriptorCacheHitsOnRepeatedTransitions) {
  engine_.enable();
  u32 a = engine_.load_view(harness::profile_of("top"));
  u32 b = engine_.load_view(harness::profile_of("gzip"));
  engine_.force_activate(a);  // (full, a) — miss
  engine_.force_activate(b);  // (a, b)    — miss
  engine_.force_activate(a);  // (b, a)    — miss
  engine_.force_activate(b);  // (a, b)    — hit
  EXPECT_EQ(engine_.stats().descriptor_cache_misses, 3u);
  EXPECT_EQ(engine_.stats().descriptor_cache_hits, 1u);
  EXPECT_EQ(engine_.stats().fastpath_switches, 4u);
  engine_.force_activate(core::kFullKernelViewId);
}

TEST_F(EngineFixture, FastPathIssuesFewerWritesThanNaive) {
  engine_.enable();
  u32 a = engine_.load_view(harness::profile_of("top"));
  u32 b = engine_.load_view(harness::profile_of("gzip"));
  engine_.force_activate(a);

  const mem::Ept& ept = sys_.hv().machine().ept();
  mem::Ept::Stats s0 = ept.stats();
  engine_.force_activate(b);
  engine_.force_activate(a);
  mem::Ept::Stats s1 = ept.stats();
  u64 issued = (s1.pde_writes - s0.pde_writes) +
               (s1.pte_writes - s0.pte_writes);

  const core::SwitchDescriptor& ab = engine_.switch_descriptor(a, b);
  const core::SwitchDescriptor& ba = engine_.switch_descriptor(b, a);
  u64 naive = ab.naive_pde_writes + ab.naive_pte_writes +
              ba.naive_pde_writes + ba.naive_pte_writes;
  // Both views shadow the same unlisted modules, so restore+apply pairs
  // coalesce: the delta must be strictly smaller than the full rewrite.
  EXPECT_LT(issued, naive);
  EXPECT_GT(engine_.stats().naive_pte_writes_avoided, 0u);
  engine_.force_activate(core::kFullKernelViewId);
}

TEST_F(EngineFixture, FastPathUsesScopedInvalidation) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  u64 g0 = sys_.hv().machine().ept().generation();
  engine_.force_activate(view);
  engine_.force_activate(core::kFullKernelViewId);
  EXPECT_EQ(engine_.stats().scoped_invalidations, 2u);
  EXPECT_EQ(engine_.stats().full_flush_fallbacks, 0u);
  // Scoped invalidation must not shoot down unrelated translations: the
  // global EPT generation stays put.
  EXPECT_EQ(sys_.hv().machine().ept().generation(), g0);
  EXPECT_EQ(sys_.hv().machine().ept().stats().scoped_invalidations, 2u);
}

// Regression (satellite): disable() used to leave pending_view_ armed, so a
// later enable() applied a view deferred during the *previous* enforcement
// window at its first resume-userspace trap.
TEST_F(EngineFixture, DisableClearsPendingDeferredSwitch) {
  engine_.enable();
  u32 view = engine_.load_view(harness::profile_of("top"));
  engine_.bind("top", view);

  apps::AppScenario top = apps::make_app("top", 4);
  u32 pid = sys_.os().spawn("top", top.model);
  const os::KernelImage& kernel = sys_.os().kernel();

  // Arm a deferred switch exactly as the context-switch trap does: the
  // incoming task pointer rides in the __switch_to argument register.
  sys_.vcpu().regs()[isa::Reg::B] = abi::Task::addr(pid);
  engine_.handle_breakpoint(kernel.symbols.must_addr("__switch_to"));

  engine_.disable();
  engine_.enable();
  // A resume trap in the new window must not apply the stale pending view.
  engine_.handle_breakpoint(kernel.symbols.must_addr("resume_userspace"));
  EXPECT_EQ(engine_.active_view_id(), core::kFullKernelViewId);
  engine_.disable();
}

// Regression (satellite): apply_view used to restore the outgoing view's
// module-PTE overrides *after* repointing the base-kernel PDEs, writing the
// identity frame into the *incoming* view's table. Visible whenever a module
// override falls inside the repointed base-kernel PDE range and the incoming
// view does not re-override the same slot.
TEST(EngineRegression, ModuleOverrideInsideBasePdeRangeSurvivesSwitch) {
  for (bool fastpath : {true, false}) {
    harness::GuestSystem sys;
    core::EngineOptions opts;
    opts.delta_switch_fastpath = fastpath;
    opts.builder.shadow_unlisted_modules = false;
    core::FaceChangeEngine engine(sys.hv(), sys.os().kernel(), opts);
    mem::Machine& machine = sys.hv().machine();
    const os::KernelImage& kernel = sys.os().kernel();

    // Fabricate a guest module whose code page lies inside base kernel
    // text, i.e. inside the PDE range that step 3A repoints.
    GVirt probe = kernel.symbols.must_addr("udp_recvmsg");
    ASSERT_EQ(machine.pread8(GuestLayout::kernel_pa(probe)), 0x55);
    GVirt mod_base = probe & ~static_cast<GVirt>(kPageMask);
    GPhys node_pa = machine.alloc_phys_pages(
        1, GuestLayout::kKernelHeapPhys, GuestLayout::kUserPhys);
    machine.pwrite32(node_pa + abi::ModuleNode::kNext,
                     sys.hv().vmi().read_u32(abi::kModuleListAddr));
    machine.pwrite32(node_pa + abi::ModuleNode::kBase, mod_base);
    machine.pwrite32(node_pa + abi::ModuleNode::kSizeField, kPageSize);
    const char name[] = "fakemod";
    machine.pwrite_bytes(node_pa + abi::ModuleNode::kName,
                         std::span<const u8>(
                             reinterpret_cast<const u8*>(name), sizeof(name)));
    machine.pwrite32(GuestLayout::kernel_pa(abi::kModuleListAddr),
                     GuestLayout::kernel_va(node_pa));

    engine.enable();
    core::KernelViewConfig cfg_a;
    cfg_a.app_name = "lists-fakemod";
    cfg_a.modules["fakemod"];  // listed, nothing profiled → all-UD2 shadow
    u32 view_a = engine.load_view(cfg_a);
    core::KernelViewConfig cfg_b;
    cfg_b.app_name = "empty";
    u32 view_b = engine.load_view(cfg_b);

    engine.force_activate(view_a);
    engine.force_activate(view_b);
    // B's own UD2 shadow must be visible; the bug leaked A's identity
    // (pristine 0x55) restore into B's freshly activated table.
    u8 seen = machine.pread8(GuestLayout::kernel_pa(probe));
    EXPECT_TRUE(seen == 0x0F || seen == 0x0B)
        << "fastpath=" << fastpath << " saw " << static_cast<u32>(seen);

    engine.force_activate(core::kFullKernelViewId);
    EXPECT_EQ(machine.pread8(GuestLayout::kernel_pa(probe)), 0x55);
    engine.disable();
  }
}

// The fast path must leave the EPT in a byte-identical visible state to the
// naive full rewrite across an arbitrary transition sequence, including
// full↔custom transitions and cached-descriptor reuse.
TEST(EngineEquivalence, FastPathMatchesNaiveByteForByte) {
  harness::GuestSystem fast_sys;
  harness::GuestSystem naive_sys;
  core::EngineOptions naive_opts;
  naive_opts.delta_switch_fastpath = false;
  core::FaceChangeEngine fast(fast_sys.hv(), fast_sys.os().kernel());
  core::FaceChangeEngine naive(naive_sys.hv(), naive_sys.os().kernel(),
                               naive_opts);

  auto visible_code = [](harness::GuestSystem& sys) {
    // Everything a kernel view can redirect: base kernel code plus the
    // module pages named by the guest module list, read through the EPT.
    mem::Machine& machine = sys.hv().machine();
    std::vector<u8> out(GuestLayout::kKernelCodeMax);
    machine.pread_bytes(GuestLayout::kKernelCodePhys, out);
    for (const hv::ModuleInfo& mod : sys.hv().vmi().module_list()) {
      GPhys lo = GuestLayout::kernel_pa(mod.base) & ~static_cast<GPhys>(kPageMask);
      GPhys hi = (GuestLayout::kernel_pa(mod.base) + mod.size + kPageMask) &
                 ~static_cast<GPhys>(kPageMask);
      std::vector<u8> page(hi - lo);
      machine.pread_bytes(lo, page);
      out.insert(out.end(), page.begin(), page.end());
    }
    return out;
  };

  fast.enable();
  naive.enable();
  u32 fa = fast.load_view(harness::profile_of("top"));
  u32 fb = fast.load_view(harness::profile_of("gzip"));
  u32 na = naive.load_view(harness::profile_of("top"));
  u32 nb = naive.load_view(harness::profile_of("gzip"));
  ASSERT_EQ(fa, na);
  ASSERT_EQ(fb, nb);

  const u32 kFull = core::kFullKernelViewId;
  // Covers full→custom, custom→custom both directions, custom→full, and
  // revisits so cached descriptors get exercised.
  for (u32 target : {fa, fb, fa, kFull, fb, fa, fb, kFull}) {
    fast.force_activate(target);
    naive.force_activate(target);
    ASSERT_EQ(visible_code(fast_sys), visible_code(naive_sys))
        << "divergence after switching to view " << target;
  }
  EXPECT_GT(fast.stats().fastpath_switches, 0u);
  EXPECT_GT(naive.stats().slowpath_switches, 0u);
}

}  // namespace
}  // namespace fc
