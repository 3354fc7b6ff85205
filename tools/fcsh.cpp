// fcsh — the FACE-CHANGE administration shell.
//
// Drives the complete workflow from the command line, with kernel-view and
// behaviour profiles as ordinary files (the artifacts an administrator
// would ship from a profiling box to production):
//
//   fcsh apps                                list the modelled applications
//   fcsh attacks                             list the Table II malware corpus
//   fcsh profile <app> [-n ITER] [-o FILE]   profiling phase → view config
//   fcsh behavior <app> [-n ITER] [-o FILE]  behavioural profile (§V-A ext.)
//   fcsh inspect <FILE>                      summarize a view config file
//   fcsh enforce <app> -v FILE [-n ITER]     runtime phase: run under a view
//   fcsh matrix [-n ITER]                    Table I similarity matrix
//   fcsh attack <name> [--union]             stage one attack end to end
//   fcsh integrity <attack>                  §V-B data-integrity scan demo
//   fcsh fleet [--vms N] [--jobs N]          multi-VM COW fleet run
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/closure.hpp"
#include "core/behavior.hpp"
#include "core/integrity.hpp"
#include "core/similarity.hpp"
#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"

using namespace fc;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fcsh <command> [args]\n"
      "  apps | attacks\n"
      "  profile  <app> [-n iterations] [-o view.cfg]\n"
      "  behavior <app> [-n iterations] [-o behavior.cfg]\n"
      "  inspect  <view.cfg>\n"
      "  enforce  <app> -v view.cfg [-n iterations] [--no-block-cache]\n"
      "           [--closure]  (expand the view by static call-graph "
      "closure)\n"
      "  matrix   [-n iterations]\n"
      "  attack   <name> [--union]\n"
      "  integrity <attack-name>\n"
      "  fleet    [--vms N] [--jobs N] [-n iterations] [--apps a,b,c]\n"
      "           [--no-share] [-o report.json] [--trace-out fleet.fctr]\n"
      "           (--vms 1..4096; --jobs 0 = one worker per VM, at most\n"
      "           256 workers)\n"
      "global flags:\n"
      "  --log-level LEVEL   trace|debug|info|warn|error|off (also the\n"
      "                      FC_LOG_LEVEL environment variable)\n"
      "  --trace-out FILE    record the run in the flight recorder and\n"
      "                      write a Chrome trace JSON (enforce/attack)\n");
  std::exit(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fcsh: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The view file at `path`; a rejected one is bad input: print
/// "fcsh: PATH:LINE: reason" and exit 2.
core::KernelViewConfig load_view(const std::string& path) {
  core::ViewConfigError error;
  std::optional<core::KernelViewConfig> config =
      core::KernelViewConfig::parse(slurp(path), &error);
  if (!config) {
    std::fprintf(stderr, "fcsh: %s:%u: %s\n", path.c_str(), error.line,
                 error.reason.c_str());
    std::exit(2);
  }
  return std::move(*config);
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fcsh: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << contents;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), contents.size());
}

struct Options {
  u32 iterations = 20;
  std::string out;
  std::string view_file;
  std::string trace_out;  // Chrome trace JSON destination ("" = no capture)
  bool union_view = false;
  bool block_cache = true;
  bool closure = false;  // enforce: expand the view by static closure
  u32 vms = 8;           // fleet: guest count
  u32 jobs = 1;          // fleet: worker threads (0 = one per VM)
  std::vector<std::string> fleet_apps;  // fleet: --apps subset
  bool share = true;     // fleet: --no-share = per-VM rebuild baseline
};

Options parse_flags(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-n") && i + 1 < argc) {
      options.iterations =
          static_cast<u32>(count_arg("fcsh", "-n", argv[++i], 1, 1'000'000));
    } else if (!std::strcmp(argv[i], "-o") && i + 1 < argc) {
      options.out = argv[++i];
    } else if (!std::strcmp(argv[i], "-v") && i + 1 < argc) {
      options.view_file = argv[++i];
    } else if (!std::strcmp(argv[i], "--union")) {
      options.union_view = true;
    } else if (!std::strcmp(argv[i], "--no-block-cache")) {
      options.block_cache = false;
    } else if (!std::strcmp(argv[i], "--closure")) {
      options.closure = true;
    } else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
      options.trace_out = argv[++i];
    } else if (!std::strcmp(argv[i], "--vms") && i + 1 < argc) {
      options.vms = static_cast<u32>(
          count_arg("fcsh", "--vms", argv[++i], 1, fleet::kMaxVms));
    } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
      options.jobs = static_cast<u32>(
          count_arg("fcsh", "--jobs", argv[++i], 0, fleet::kMaxWorkers));
    } else if (!std::strcmp(argv[i], "--no-share")) {
      options.share = false;
    } else if (!std::strcmp(argv[i], "--apps") && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t at = 0;
      while (at <= list.size()) {
        std::size_t comma = list.find(',', at);
        if (comma == std::string::npos) comma = list.size();
        if (comma > at) options.fleet_apps.push_back(list.substr(at, comma - at));
        at = comma + 1;
      }
    } else if (!std::strcmp(argv[i], "--log-level") && i + 1 < argc) {
      auto level = parse_log_level(argv[++i]);
      if (!level) {
        std::fprintf(stderr, "fcsh: unknown log level '%s'\n", argv[i]);
        std::exit(2);
      }
      set_log_level(*level);
    } else {
      usage();
    }
  }
  const std::string shape = fleet::fleet_shape_error(options.vms, options.jobs);
  if (!shape.empty()) {
    std::fprintf(stderr, "fcsh: %s\n", shape.c_str());
    std::exit(2);
  }
  return options;
}

int cmd_apps() {
  for (const std::string& app : apps::all_app_names())
    std::printf("%s\n", app.c_str());
  return 0;
}

int cmd_attacks() {
  std::printf("%-14s %-46s %-10s %s\n", "name", "infection", "victim",
              "payload");
  for (const auto& attack : attacks::make_all_attacks())
    std::printf("%-14s %-46s %-10s %s\n", attack->name().c_str(),
                attack->infection_method().c_str(), attack->victim().c_str(),
                attack->payload().c_str());
  return 0;
}

int cmd_profile(const std::string& app, const Options& options) {
  std::printf("profiling %s (%u iterations)...\n", app.c_str(),
              options.iterations);
  core::KernelViewConfig config =
      harness::profile_app(app, options.iterations);
  std::printf("kernel view: %llu KB, %zu base ranges, %zu module(s)\n",
              static_cast<unsigned long long>(config.size_bytes() >> 10),
              config.base.len(), config.modules.size());
  spit(options.out.empty() ? app + ".view" : options.out,
       config.serialize());
  return 0;
}

int cmd_behavior(const std::string& app, const Options& options) {
  harness::GuestSystem sys;
  core::BehaviorProfiler profiler(sys.hv(), sys.os().kernel());
  profiler.add_target(app);
  profiler.attach();
  apps::AppScenario scenario = apps::make_app(app, options.iterations);
  u32 pid = sys.os().spawn(app, scenario.model);
  scenario.install_environment(sys.os());
  sys.run_until_exit(pid, 1'500'000'000ull);
  profiler.detach();
  core::BehaviorProfile profile = profiler.export_profile(app);
  std::printf("behaviour profile: %zu syscalls, %zu constrained argument "
              "sets\n",
              profile.syscalls.size(), profile.constrained_args.size());
  spit(options.out.empty() ? app + ".behavior" : options.out,
       profile.serialize());
  return 0;
}

int cmd_inspect(const std::string& path) {
  const core::KernelViewConfig config = load_view(path);
  std::printf("app:         %s\n", config.app_name.c_str());
  std::printf("total size:  %llu KB\n",
              static_cast<unsigned long long>(config.size_bytes() >> 10));
  std::printf("base ranges: %zu (%llu KB)\n", config.base.len(),
              static_cast<unsigned long long>(config.base.size_bytes() >> 10));
  for (const auto& [name, ranges] : config.modules)
    std::printf("module %-16s %zu ranges (%llu KB)\n", name.c_str(),
                ranges.len(),
                static_cast<unsigned long long>(ranges.size_bytes() >> 10));
  return 0;
}

int cmd_enforce(const std::string& app, const Options& options) {
  if (options.view_file.empty()) usage();
  core::KernelViewConfig config = load_view(options.view_file);
  config.app_name = app;

  harness::GuestSystem sys;
  sys.vcpu().set_block_cache_enabled(options.block_cache);
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();

  analysis::CallGraph graph = harness::build_call_graph(sys);
  if (options.closure) {
    analysis::ClosureResult closure = analysis::profile_closure(graph, config);
    std::printf("closure: %zu seed functions +%zu statically-reachable "
                "(%llu KB added)\n",
                closure.seed_functions, closure.added.size(),
                static_cast<unsigned long long>(closure.added_bytes >> 10));
    config = std::move(closure.expanded);
  }
  if (!options.trace_out.empty()) obs::recorder().start();
  u32 view_id = engine.load_view(config);
  engine.bind(app, view_id);
  engine.install_static_audit(
      harness::build_static_audit(graph, {{view_id, config}}));
  apps::AppScenario scenario = apps::make_app(app, options.iterations);
  u32 pid = sys.os().spawn(app, scenario.model);
  scenario.install_environment(sys.os());
  hv::RunOutcome outcome = sys.run_until_exit(pid, 2'000'000'000ull);

  std::printf("outcome: %s\n",
              outcome == hv::RunOutcome::kGuestFault ? "GUEST FAULT"
                                                     : "completed");
  obs::metrics().gauge_set("os.event_queue_max_depth",
                           sys.os().events().max_depth());
  std::printf("%s\n", engine.render_run_report().c_str());
  if (!options.trace_out.empty()) {
    obs::recorder().stop();
    spit(options.trace_out, obs::chrome_trace_json(obs::recorder()));
    std::printf("trace: %llu events recorded (%llu dropped)\n",
                static_cast<unsigned long long>(obs::recorder().total_emitted()),
                static_cast<unsigned long long>(obs::recorder().dropped()));
  }
  std::printf("recovery log (%zu events):\n", engine.recovery_log().size());
  for (const core::RecoveryEvent& ev : engine.recovery_log().events())
    std::printf("  %s\n", ev.headline().c_str());
  return outcome == hv::RunOutcome::kGuestFault ? 1 : 0;
}

int cmd_matrix(const Options& options) {
  std::vector<core::KernelViewConfig> configs;
  for (const std::string& app : apps::all_app_names()) {
    std::printf("profiling %-8s...\r", app.c_str());
    std::fflush(stdout);
    configs.push_back(harness::profile_app(app, options.iterations));
  }
  std::printf("%s\n", core::compute_similarity(configs).render().c_str());
  return 0;
}

int cmd_attack(const std::string& name, const Options& options) {
  auto attack = attacks::make_attack(name);
  harness::AttackRunOptions run_options;
  run_options.use_union_view = options.union_view;
  std::printf("staging %s against %s under the %s view...\n",
              attack->name().c_str(), attack->victim().c_str(),
              options.union_view ? "system-wide union" : "per-application");
  if (!options.trace_out.empty()) obs::recorder().start();
  harness::AttackRunResult result = harness::run_attack(*attack, run_options);
  for (const std::string& ev : result.rendered_events)
    std::printf("%s\n", ev.c_str());
  std::printf("detected: %s (%zu recovery events)\n",
              result.detected ? "YES" : "no", result.recovery_events);
  if (!options.trace_out.empty()) {
    obs::recorder().stop();
    spit(options.trace_out, obs::chrome_trace_json(obs::recorder()));
  }
  return 0;
}

int cmd_integrity(const std::string& attack_name) {
  harness::GuestSystem sys;
  core::KernelIntegrityMonitor monitor(sys.hv(), sys.os().kernel());
  monitor.take_baseline();
  monitor.set_module_truth_source([&sys] {
    std::vector<hv::ModuleInfo> truth;
    for (const char* name :
         {"e1000", "ipsecs_kbeast_v1", "sebek", "adore-ng"}) {
      if (auto mod = sys.os().loaded_module(name)) truth.push_back(*mod);
    }
    return truth;
  });

  auto attack = attacks::make_attack(attack_name);
  if (!attack->is_rootkit()) {
    std::fprintf(stderr, "fcsh: integrity scanning targets rootkits\n");
    return 2;
  }
  std::printf("installing %s, then scanning...\n", attack->name().c_str());
  attack->deploy(sys.os(), 0);
  sys.run_for(40'000'000);

  auto violations = monitor.check();
  for (const auto& v : violations) std::printf("%s\n", v.render().c_str());
  for (const auto& mod : monitor.find_hidden_modules())
    std::printf("hidden module: %s @ 0x%08x (%u bytes) — present in memory, "
                "absent from the guest's module list\n",
                mod.name.c_str(), mod.base, mod.size);
  std::printf("%zu table violation(s)\n", violations.size());
  return violations.empty() ? 1 : 0;
}

int cmd_fleet(const Options& options) {
  harness::SharedImageOptions img_options;
  img_options.apps = options.fleet_apps;
  img_options.profile_iterations = options.iterations;
  std::printf("building shared image (%s)...\n",
              options.fleet_apps.empty()
                  ? "all apps"
                  : std::to_string(options.fleet_apps.size()).append(" apps")
                        .c_str());
  auto image = harness::build_shared_image(img_options);
  std::printf("shared image: %u store pages, %zu views, %zu prebuilt "
              "switches\n",
              image->store.page_count(), image->views.size(),
              image->switches.size());

  fleet::FleetOptions fleet_options;
  fleet_options.vms = options.vms;
  fleet_options.jobs = options.jobs;
  fleet_options.iterations = options.iterations;
  fleet_options.apps = options.fleet_apps;
  fleet_options.share_image = options.share;
  fleet_options.capture_traces = !options.trace_out.empty();
  fleet::FleetRunner runner(*image, fleet_options);
  fleet::FleetReport report = runner.run();

  std::printf("%-4s %-10s %12s %12s %6s %8s %9s %6s\n", "vm", "app", "insns",
              "cycles", "recov", "switches", "priv/tot", "fault");
  for (const fleet::VmResult& vm : report.vms)
    std::printf("%-4u %-10s %12llu %12llu %6llu %8llu %4u/%-4u %6s\n", vm.vm,
                vm.app.c_str(), static_cast<unsigned long long>(vm.instructions),
                static_cast<unsigned long long>(vm.cycles),
                static_cast<unsigned long long>(vm.recoveries),
                static_cast<unsigned long long>(vm.view_switches),
                vm.private_frames, vm.total_frames, vm.fault ? "FAULT" : "-");
  std::printf("fleet: %zu VMs, %llu insns total, resident %llu frames "
              "(%llu shared + per-VM private), %.2fs wall "
              "(%.0f aggregate insns/sec)\n",
              report.vms.size(),
              static_cast<unsigned long long>(report.total_instructions()),
              static_cast<unsigned long long>(report.resident_frames()),
              static_cast<unsigned long long>(report.shared_store_pages),
              report.wall_seconds,
              report.wall_seconds > 0
                  ? static_cast<double>(report.total_instructions()) /
                        report.wall_seconds
                  : 0.0);
  if (!options.out.empty()) spit(options.out, report.to_json());
  if (!options.trace_out.empty()) {
    std::vector<u8> merged = report.merged_trace();
    std::ofstream out(options.trace_out, std::ios::binary);
    out.write(reinterpret_cast<const char*>(merged.data()),
              static_cast<std::streamsize>(merged.size()));
    std::printf("wrote %s (%zu bytes, FCFL container)\n",
                options.trace_out.c_str(), merged.size());
  }
  bool any_fault = false;
  for (const fleet::VmResult& vm : report.vms) any_fault |= vm.fault;
  return any_fault ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string cmd = argv[1];
  if (cmd == "apps") return cmd_apps();
  if (cmd == "attacks") return cmd_attacks();
  if (cmd == "matrix") return cmd_matrix(parse_flags(argc, argv, 2));
  if (cmd == "fleet") return cmd_fleet(parse_flags(argc, argv, 2));
  if (argc < 3) usage();
  std::string arg = argv[2];
  Options options = parse_flags(argc, argv, 3);
  if (cmd == "profile") return cmd_profile(arg, options);
  if (cmd == "behavior") return cmd_behavior(arg, options);
  if (cmd == "inspect") return cmd_inspect(arg);
  if (cmd == "enforce") return cmd_enforce(arg, options);
  if (cmd == "attack") return cmd_attack(arg, options);
  if (cmd == "integrity") return cmd_integrity(arg);
  usage();
}
