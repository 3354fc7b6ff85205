// Lockstep byte-equivalence: two identical guest systems — one with the
// decoded-block cache, one without — are stepped one instruction at a time
// through the full integration workload (engine enabled, app bound to its
// view). After every step the architectural state (registers, pc, flags,
// mode), the simulated cycle count, and the raw VM exit must match exactly.
// This is the strongest transparency check the cache has: any divergence in
// fetch semantics, decode results, TLB charging, or exit behaviour shows up
// at the exact step it happens.
#include <gtest/gtest.h>

#include "harness/harness.hpp"

namespace fc {
namespace {

struct LockstepGuest {
  explicit LockstepGuest(bool block_cache) {
    sys.vcpu().set_block_cache_enabled(block_cache);
    engine = std::make_unique<core::FaceChangeEngine>(sys.hv(),
                                                      sys.os().kernel());
    engine->enable();
  }

  void start(const std::string& app, const std::string& view_app,
             u32 iterations) {
    engine->bind(app, engine->load_view(harness::profile_of(view_app)));
    apps::AppScenario scenario = apps::make_app(view_app == app ? app : "gzip",
                                                iterations);
    pid = sys.os().spawn(app, scenario.model);
    scenario.install_environment(sys.os());
  }

  harness::GuestSystem sys;
  std::unique_ptr<core::FaceChangeEngine> engine;
  u32 pid = 0;
};

/// Step both guests to completion, asserting equality after every step.
void run_lockstep(LockstepGuest& cached, LockstepGuest& plain,
                  Cycles max_cycles) {
  ASSERT_EQ(cached.pid, plain.pid);
  u64 steps = 0;
  std::optional<hv::RunOutcome> oc, op;
  while (cached.sys.vcpu().cycles() < max_cycles) {
    cpu::Exit ec, ep;
    oc = cached.sys.hv().step_one(&ec);
    op = plain.sys.hv().step_one(&ep);
    ++steps;
    const cpu::Regs& rc = cached.sys.vcpu().regs();
    const cpu::Regs& rp = plain.sys.vcpu().regs();
    bool same = ec.reason == ep.reason && ec.pc == ep.pc && oc == op &&
                rc.gpr == rp.gpr && rc.pc == rp.pc && rc.zf == rp.zf &&
                rc.mode == rp.mode &&
                cached.sys.vcpu().cycles() == plain.sys.vcpu().cycles() &&
                cached.sys.hv().machine().mmu().stats().tlb_misses ==
                    plain.sys.hv().machine().mmu().stats().tlb_misses;
    ASSERT_TRUE(same) << "lockstep divergence at step " << steps
                      << ": cached pc=0x" << std::hex << rc.pc
                      << " cycles=" << std::dec << cached.sys.vcpu().cycles()
                      << " tlb_misses="
                      << cached.sys.hv().machine().mmu().stats().tlb_misses
                      << " exit=" << static_cast<int>(ec.reason)
                      << " | uncached pc=0x" << std::hex << rp.pc
                      << " cycles=" << std::dec << plain.sys.vcpu().cycles()
                      << " tlb_misses="
                      << plain.sys.hv().machine().mmu().stats().tlb_misses
                      << " exit=" << static_cast<int>(ep.reason);
    if (oc.has_value()) break;  // both ended identically (checked above)
    if ((steps & 0x3FF) == 0 &&
        cached.sys.os().task_zombie_or_dead(cached.pid))
      break;
  }
  // The workload actually ran to completion on both sides, and the block
  // tier actually carried execution.
  EXPECT_TRUE(cached.sys.os().task_zombie_or_dead(cached.pid));
  EXPECT_TRUE(plain.sys.os().task_zombie_or_dead(plain.pid));
  EXPECT_EQ(plain.sys.vcpu().block_cache().stats().insn_hits, 0u);
  EXPECT_GT(cached.sys.vcpu().block_cache().stats().insn_hits, 1000u);
}

class LockstepEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(LockstepEquivalence, CachedAndUncachedVcpusNeverDiverge) {
  LockstepGuest cached(/*block_cache=*/true);
  LockstepGuest plain(/*block_cache=*/false);
  cached.start(GetParam(), GetParam(), 6);
  plain.start(GetParam(), GetParam(), 6);
  run_lockstep(cached, plain, 900'000'000);
}

INSTANTIATE_TEST_SUITE_P(Apps, LockstepEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// The hostile path: a mismatched view forces UD2 traps, recoveries (code
// rewrites through the write barrier), and instant-recovery checks — the
// cache must stay byte-equivalent through all of it.
TEST(LockstepEquivalence2, RecoveryHeavyRunNeverDiverges) {
  LockstepGuest cached(/*block_cache=*/true);
  LockstepGuest plain(/*block_cache=*/false);
  cached.start("intruder", "top", 4);
  plain.start("intruder", "top", 4);
  run_lockstep(cached, plain, 600'000'000);
  EXPECT_GT(cached.engine->recovery_log().size(), 0u);
  EXPECT_EQ(cached.engine->recovery_log().size(),
            plain.engine->recovery_log().size());
}

}  // namespace
}  // namespace fc
