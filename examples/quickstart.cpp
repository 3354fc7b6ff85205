// Quickstart: the full FACE-CHANGE workflow in one file.
//
//   1. Boot a guest and profile an application (the profiling phase):
//      a basic-block tracer records the kernel code executed in the target
//      process's context and exports a kernel view configuration.
//   2. Boot a fresh guest, load the view, bind the application, and enable
//      enforcement (the runtime phase): the app now runs against a
//      UD2-filled kernel containing only its profiled code, switched in and
//      out at context switches via the EPT.
//   3. Watch the recovery log: benign misses are recovered transparently;
//      anything else is attack provenance.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "harness/harness.hpp"

using namespace fc;

int main() {
  std::printf("=== FACE-CHANGE quickstart ===\n\n");

  // ------------------------------------------------------------------
  // Profiling phase (§III-A): run `top` in a clean session and record the
  // kernel code executed in its context.
  // ------------------------------------------------------------------
  std::printf("[1/3] profiling 'top' in an independent session...\n");
  core::KernelViewConfig config;
  {
    harness::GuestSystem sys;
    core::Profiler profiler(sys.hv(), sys.os().kernel());
    profiler.add_target("top");
    profiler.attach();

    apps::AppScenario scenario = apps::make_app("top", 20);
    u32 pid = sys.os().spawn("top", scenario.model);
    scenario.install_environment(sys.os());
    sys.run_until_exit(pid, 900'000'000);
    profiler.detach();
    config = profiler.export_config("top");
  }
  std::printf("      kernel view: %llu KB in %zu ranges (full kernel text "
              "would be much larger)\n",
              static_cast<unsigned long long>(config.size_bytes() >> 10),
              config.base.len());

  // The configuration is an ordinary text file — this is what an
  // administrator ships from the profiling machine to production.
  std::string config_file = config.serialize();
  std::printf("      config file: %zu bytes (text)\n\n", config_file.size());

  // ------------------------------------------------------------------
  // Runtime phase (§III-B): enforce the view in a fresh guest.
  // ------------------------------------------------------------------
  std::printf("[2/3] enforcing the view in a new guest...\n");
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  std::optional<core::KernelViewConfig> loaded =
      core::KernelViewConfig::parse(config_file);
  if (!loaded) return 1;  // our own serialize() output always parses
  u32 view = engine.load_view(*loaded);
  engine.bind("top", view);

  apps::AppScenario scenario = apps::make_app("top", 20);
  u32 pid = sys.os().spawn("top", scenario.model);
  scenario.install_environment(sys.os());
  hv::RunOutcome outcome = sys.run_until_exit(pid, 900'000'000);

  std::printf("      outcome: %s — the app behaves identically under its "
              "minimized kernel\n",
              outcome == hv::RunOutcome::kGuestFault ? "GUEST FAULT"
                                                     : "completed");
  std::printf("      context-switch traps: %llu, view switches: %llu, "
              "same-view skips: %llu\n",
              (unsigned long long)engine.stats().context_switch_traps,
              (unsigned long long)engine.stats().view_switches(),
              (unsigned long long)engine.stats().switches_skipped_same_view);

  // ------------------------------------------------------------------
  // The recovery log.
  // ------------------------------------------------------------------
  std::printf("\n[3/3] kernel code recovery log (%zu events):\n",
              engine.recovery_log().size());
  if (engine.recovery_log().size() == 0) {
    std::printf("      (empty — the profile fully covered this workload)\n");
  }
  for (const core::RecoveryEvent& ev : engine.recovery_log().events()) {
    std::printf("      %s\n", ev.headline().c_str());
  }
  std::printf("\nNext: examples/attack_forensics shows what this log looks "
              "like when the process is hijacked.\n");
  return outcome == hv::RunOutcome::kGuestFault ? 1 : 0;
}
