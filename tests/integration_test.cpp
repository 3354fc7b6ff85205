// Cross-cutting integration tests for the paper's four design goals (§II-B):
// strictness, robustness, transparency, flexibility.
#include <gtest/gtest.h>

#include "core/similarity.hpp"
#include "harness/harness.hpp"

namespace fc {
namespace {

// --------------------------------------------------------------------------
// Robustness: same workload under its own view behaves exactly as under the
// full kernel view.
// --------------------------------------------------------------------------

struct RunCounters {
  u64 syscalls, fs_read, fs_written, tty_written, net_sent, net_received;
};

RunCounters run_app(const std::string& app, bool enforce) {
  harness::GuestSystem sys;
  std::unique_ptr<core::FaceChangeEngine> engine;
  if (enforce) {
    engine = std::make_unique<core::FaceChangeEngine>(sys.hv(),
                                                      sys.os().kernel());
    engine->enable();
    engine->bind(app, engine->load_view(harness::profile_of(app)));
  }
  apps::AppScenario scenario = apps::make_app(app, 10);
  u32 pid = sys.os().spawn(app, scenario.model);
  scenario.install_environment(sys.os());
  EXPECT_NE(sys.run_until_exit(pid, 900'000'000), hv::RunOutcome::kGuestFault)
      << app;
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid)) << app;
  const auto& c = sys.os().counters();
  return {c.syscalls,       c.fs_bytes_read, c.fs_bytes_written,
          c.tty_bytes_written, c.net_bytes_sent, c.net_bytes_received};
}

class RobustnessGoal : public ::testing::TestWithParam<std::string> {};

TEST_P(RobustnessGoal, ViewEnforcementDoesNotChangeBehaviour) {
  RunCounters full = run_app(GetParam(), /*enforce=*/false);
  RunCounters view = run_app(GetParam(), /*enforce=*/true);
  EXPECT_EQ(full.syscalls, view.syscalls);
  EXPECT_EQ(full.fs_read, view.fs_read);
  EXPECT_EQ(full.fs_written, view.fs_written);
  EXPECT_EQ(full.tty_written, view.tty_written);
  EXPECT_EQ(full.net_sent, view.net_sent);
  EXPECT_EQ(full.net_received, view.net_received);
}

INSTANTIATE_TEST_SUITE_P(AllApps, RobustnessGoal,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// --------------------------------------------------------------------------
// Strictness: under a custom view, unprofiled kernel code is unreachable
// without a logged recovery.
// --------------------------------------------------------------------------

TEST(StrictnessGoal, EveryOutOfViewAccessIsLogged) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  core::KernelViewConfig cfg = harness::profile_of("top");
  cfg.app_name = "intruder";
  u32 view = engine.load_view(cfg);
  engine.bind("intruder", view);

  // Run a gzip-like workload (heavy ext4 writes) under top's view: every
  // excursion beyond the view must appear in the log, and the loaded set
  // only ever grows to cover exactly the recovered functions.
  apps::AppScenario gzip = apps::make_app("gzip", 5);
  u32 pid = sys.os().spawn("intruder", gzip.model);
  sys.run_until_exit(pid, 600'000'000);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));

  const core::RecoveryLog& log = engine.recovery_log();
  EXPECT_GT(log.size(), 0u);
  EXPECT_TRUE(log.recovered_function("ext4_file_write") ||
              log.recovered_function("do_sync_write"));
  for (const core::RecoveryEvent& ev : log.events())
    EXPECT_EQ(ev.process_comm, "intruder");
}

// --------------------------------------------------------------------------
// Transparency: the guest needs no modification; enforcement is invisible
// to a well-behaved application.
// --------------------------------------------------------------------------

TEST(TransparencyGoal, GuestKernelBytesAreNeverModified) {
  harness::GuestSystem sys;
  const os::KernelImage& kernel = sys.os().kernel();
  // Snapshot pristine text.
  std::vector<u8> before(kernel.text.size());
  sys.hv().pristine_read(kernel.text_base, before);

  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.bind("top", engine.load_view(harness::profile_of("top")));
  apps::AppScenario top = apps::make_app("top", 6);
  u32 pid = sys.os().spawn("top", top.model);
  top.install_environment(sys.os());
  sys.run_until_exit(pid, 600'000'000);
  engine.disable();

  // The original kernel code pages are untouched — all redirection happened
  // in the EPT.
  std::vector<u8> after(kernel.text.size());
  sys.hv().pristine_read(kernel.text_base, after);
  EXPECT_EQ(before, after);
}

// --------------------------------------------------------------------------
// Flexibility: hot plug/unplug mid-run.
// --------------------------------------------------------------------------

TEST(FlexibilityGoal, HotPlugAndUnplugMidRun) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();

  apps::AppScenario top = apps::make_app("top", 120);
  u32 pid = sys.os().spawn("top", top.model);
  top.install_environment(sys.os());
  sys.run_for(8'000'000);  // runs under the full view

  // Hot-plug the view while the app runs.
  u32 view = engine.load_view(harness::profile_of("top"));
  engine.bind("top", view);
  sys.run_for(20'000'000);
  EXPECT_TRUE(sys.os().task_alive(pid));
  EXPECT_GT(engine.stats().view_switches(), 0u);

  // Hot-unplug: back to the full view without disturbing the app.
  engine.unload_view(view);
  hv::RunOutcome outcome = sys.run_until_exit(pid, 900'000'000);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

// --------------------------------------------------------------------------
// Table I shape (the quantitative study of §II-A).
// --------------------------------------------------------------------------

TEST(SimilarityStudy, MatrixShapeMatchesThePaper) {
  const auto& configs = harness::profile_all_apps();
  ASSERT_EQ(configs.size(), 12u);
  core::SimilarityMatrix m = core::compute_similarity(configs);

  auto index_of = [&](const std::string& app) {
    for (std::size_t i = 0; i < m.apps.size(); ++i)
      if (m.apps[i] == app) return i;
    ADD_FAILURE() << app;
    return std::size_t{0};
  };
  // Orthogonal pair (top vs firefox): low — the paper's headline 33.6%.
  double top_firefox = m.similarity[index_of("top")][index_of("firefox")];
  EXPECT_LT(top_firefox, 0.5);
  // Similar servers (apache vs vsftpd): high — the paper's 83.5%.
  double apache_vsftpd = m.similarity[index_of("apache")][index_of("vsftpd")];
  EXPECT_GT(apache_vsftpd, 0.75);
  // Interactive media pair (totem vs eog): high — the paper's 86.5%.
  double totem_eog = m.similarity[index_of("totem")][index_of("eog")];
  EXPECT_GT(totem_eog, 0.7);
  // Global bounds.
  EXPECT_GT(m.min_similarity(), 0.1);
  EXPECT_LT(m.min_similarity(), 0.55);
  EXPECT_GT(m.max_similarity(), 0.75);
  EXPECT_LT(m.max_similarity(), 1.0);
  // Render sanity.
  std::string table = m.render();
  for (const std::string& app : apps::all_app_names())
    EXPECT_NE(table.find(app.substr(0, 8)), std::string::npos) << app;
}

TEST(SimilarityStudy, UnionViewIsLargerThanAnySingleView) {
  const auto& configs = harness::profile_all_apps();
  core::KernelViewConfig union_view = core::make_union_view(configs);
  for (const auto& cfg : configs)
    EXPECT_GT(union_view.size_bytes(), cfg.size_bytes()) << cfg.app_name;
}

// --------------------------------------------------------------------------
// Config file round trip through the engine (profiling → file → runtime,
// the paper's two-phase workflow).
// --------------------------------------------------------------------------

TEST(TwoPhaseWorkflow, ConfigSurvivesSerializationIntoANewSession) {
  std::string file_contents = harness::profile_of("top").serialize();

  harness::GuestSystem sys;  // a different "boot" of the same machine
  std::optional<core::KernelViewConfig> cfg =
      core::KernelViewConfig::parse(file_contents);
  ASSERT_TRUE(cfg.has_value());
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.bind("top", engine.load_view(*cfg));
  apps::AppScenario top = apps::make_app("top", 8);
  u32 pid = sys.os().spawn("top", top.model);
  top.install_environment(sys.os());
  EXPECT_NE(sys.run_until_exit(pid, 900'000'000),
            hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

}  // namespace
}  // namespace fc
