#include "harness/harness.hpp"

#include <map>
#include <mutex>
#include <tuple>

#include "analysis/closure.hpp"
#include "analysis/hazards.hpp"
#include "hv/guest_abi.hpp"
#include "obs/trace.hpp"
#include "os/blueprint.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"

namespace fc::harness {

namespace {

/// A new image holding a booted template's memory and boot artifacts.
std::unique_ptr<core::SharedImage> capture_boot(GuestSystem& tmpl) {
  auto image = std::make_unique<core::SharedImage>();
  image->capture_machine(tmpl.hv().machine());
  image->boot.kernel = tmpl.os().kernel();
  image->boot.modules = tmpl.os().loaded_module_images();
  image->frames_after_boot = tmpl.hv().machine().host().frame_count();
  image->frames_after_views = image->frames_after_boot;
  return image;
}

}  // namespace

const core::SharedImage& boot_image_for(const os::OsConfig& config) {
  using Key = std::tuple<Cycles, u32, u32, Cycles, Cycles>;
  const Key key{config.timer_period, config.quantum_ticks, config.clocksource,
                config.disk_latency, config.net_rtt};
  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<core::SharedImage>> memo;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = memo.find(key);
  if (it != memo.end()) return *it->second;

  // Template boot: assemble everything once, then capture.
  GuestSystem tmpl(config, GuestSystem::FreshBoot{});
  auto image = capture_boot(tmpl);
  image->finalize();
  return *memo.emplace(key, std::move(image)).first->second;
}

hv::RunOutcome GuestSystem::run_until_exit(u32 pid, Cycles max_cycles) {
  const Cycles end = vcpu().cycles() + max_cycles;
  return hv_.run([&] {
    return os_.task_zombie_or_dead(pid) || vcpu().cycles() >= end;
  });
}

core::KernelViewConfig profile_app(const std::string& app, u32 iterations) {
  // Profiling sessions run under the "QEMU" configuration: tsc clocksource
  // (the runtime phase uses kvm-clock — the paper's canonical benign
  // recovery comes from exactly this difference).
  os::OsConfig config;
  config.clocksource = 0;
  GuestSystem sys(config);

  core::Profiler profiler(sys.hv(), sys.os().kernel());
  profiler.add_target(app);
  profiler.attach();

  apps::AppScenario scenario = apps::make_app(app, iterations);
  u32 pid = sys.os().spawn(app, scenario.model);
  scenario.install_environment(sys.os());
  hv::RunOutcome outcome = sys.run_until_exit(pid, 2'000'000'000ull);
  FC_CHECK(outcome != hv::RunOutcome::kGuestFault,
           << "guest fault while profiling " << app);
  profiler.detach();
  return profiler.export_config(app);
}

const std::vector<core::KernelViewConfig>& profile_all_apps(u32 iterations) {
  // The mutex makes concurrent first use safe; fleet runs pre-profile on the
  // main thread, so workers only ever hit the memoized fast path.
  static std::mutex mutex;
  static std::map<u32, std::vector<core::KernelViewConfig>> memo;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = memo.find(iterations);
  if (it != memo.end()) return it->second;
  std::vector<core::KernelViewConfig> configs;
  for (const std::string& app : apps::all_app_names()) {
    configs.push_back(profile_app(app, iterations));
  }
  return memo.emplace(iterations, std::move(configs)).first->second;
}

const core::KernelViewConfig& profile_of(const std::string& app,
                                         u32 iterations) {
  for (const core::KernelViewConfig& cfg : profile_all_apps(iterations)) {
    if (cfg.app_name == app) return cfg;
  }
  FC_UNREACHABLE(<< "no profile for " << app);
}

AttackRunResult run_attack(attacks::Attack& attack,
                           const AttackRunOptions& options) {
  const std::string victim = attack.victim();
  // Profiling phase (separate, clean session).
  core::KernelViewConfig view_config;
  if (options.use_union_view) {
    view_config = core::make_union_view(profile_all_apps());
    view_config.app_name = "union";
  } else {
    view_config = profile_of(victim);
  }

  // Runtime phase.
  os::OsConfig config;
  config.clocksource = 0;  // avoid unrelated benign recoveries in scoring
  GuestSystem sys(config);
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());

  // Kernel rootkits are installed (via a real insmod process) before the
  // view is created — Table II's scenario.
  if (attack.is_rootkit()) {
    attack.deploy(sys.os(), 0);
    sys.run_for(30'000'000);  // let insmod finish
  }

  engine.enable();
  u32 view_id = engine.load_view(view_config);
  engine.bind(victim, view_id);

  apps::AppScenario scenario = apps::make_app(victim,
                                              options.victim_iterations);
  os::ProgramImage program = os::build_standard_loop();
  if (attack.offline()) program = attack.infect_program(program);
  u32 pid = sys.os().spawn(victim, scenario.model, program);
  scenario.install_environment(sys.os());

  if (!attack.is_rootkit() && !attack.offline()) {
    // Let the victim run normally for a while, then hijack it (well before
    // its workload drains).
    sys.run_for(4'000'000);
    attack.deploy(sys.os(), pid);
  } else if (attack.offline()) {
    attack.deploy(sys.os(), pid);  // attacker-side traffic only
  }

  sys.run_until_exit(pid, options.run_budget);

  // Score the recovery log against the attack's signature.
  AttackRunResult result;
  const core::RecoveryLog& log = engine.recovery_log();
  result.recovery_events = log.size();
  bool all_groups = true;
  for (const auto& group : attack.detection_signature()) {
    bool matched = false;
    for (const std::string& prefix : group) {
      if (log.recovered_function(prefix)) {
        matched = true;
        result.matched_symbols.push_back(prefix);
        break;
      }
    }
    all_groups = all_groups && matched;
  }
  result.detected = all_groups;
  for (const core::RecoveryEvent& ev : log.events()) {
    for (const core::BacktraceFrame& frame : ev.backtrace) {
      if (frame.symbol == "UNKNOWN") result.backtrace_has_unknown = true;
    }
  }
  for (std::size_t i = 0; i < log.events().size() && i < 10; ++i) {
    result.rendered_events.push_back(log.events()[i].render());
  }
  for (const core::RecoveryEvent& ev : log.events()) {
    std::string base = ev.symbol.substr(0, ev.symbol.find('+'));
    result.recovered_symbols.push_back(std::move(base));
  }
  FC_TRACE_EVENT(kAttackVerdict, 0, view_id, result.detected ? 1 : 0,
                 result.recovery_events, obs::name_hash(attack.name().c_str()),
                 0);
  return result;
}

analysis::CallGraph build_call_graph(GuestSystem& sys) {
  const os::KernelImage& kernel = sys.os().kernel();
  analysis::CallGraph graph = analysis::CallGraph::of_kernel(kernel);
  for (const os::ModuleImage& img : sys.os().loaded_module_images()) {
    graph.add_unit(img.name, img.text, img.base, img.functions,
                   /*meta_relative=*/true);
  }

  // Dispatch tables live in guest data; read the slots the kernel (and any
  // module load hook) populated.
  hv::Vmi& vmi = sys.hv().vmi();
  auto read_table = [&](GVirt table, u32 slots) {
    std::vector<GVirt> targets;
    for (u32 i = 0; i < slots; ++i) {
      GVirt target = vmi.read_u32(table + i * 4);
      if (is_kernel_address(target)) targets.push_back(target);
    }
    graph.add_dispatch_table(table, targets);
  };
  read_table(abi::kSyscallTableAddr, abi::kSyscallTableSlots);
  read_table(abi::kIrqHandlerTableAddr, 8);
  return graph;
}

core::StaticAudit build_static_audit(
    const analysis::CallGraph& graph,
    const std::vector<std::pair<u32, core::KernelViewConfig>>& views) {
  core::StaticAudit audit;
  audit.hazard_returns =
      analysis::hazard_return_set(analysis::enumerate_hazard_sites(graph));
  audit.entry_reachable = analysis::entry_reachable_spans(graph);
  for (const auto& [view_id, config] : views) {
    audit.predicted[view_id] =
        analysis::profile_closure(graph, config).absolute_spans;
  }
  return audit;
}

// ---------------------------------------------------------------------------
// Boundary probing + data-view integrity.
// ---------------------------------------------------------------------------

const ProbeContext& probe_context() {
  static std::mutex mutex;
  static std::unique_ptr<ProbeContext> memo;
  std::lock_guard<std::mutex> lock(mutex);
  if (memo) return *memo;

  // Clean boot under the profiling configuration; the kernel layout is
  // deterministic, so the artifacts port to every other boot.
  os::OsConfig config;
  config.clocksource = 0;
  GuestSystem sys(config);
  auto ctx = std::make_unique<ProbeContext>();
  ctx->graph = build_call_graph(sys);
  hv::Vmi& vmi = sys.hv().vmi();
  ctx->syscall_table.reserve(abi::kSyscallTableSlots);
  for (u32 i = 0; i < abi::kSyscallTableSlots; ++i)
    ctx->syscall_table.push_back(vmi.read_u32(abi::kSyscallTableAddr + i * 4));
  ctx->entry_reachable = analysis::entry_reachable_spans(ctx->graph);
  ctx->data = analysis::analyze_data_writes(
      ctx->graph,
      [&vmi](GVirt va, std::span<u8> out) { vmi.read_bytes(va, out); });
  memo = std::move(ctx);
  return *memo;
}

namespace {

constexpr u16 kProbeUdpPort = 6100;
constexpr u16 kProbeTcpPort = 6101;

/// User-mode driver for a ProbePlan: a prologue acquires the resources the
/// probes consume (an ext4 fd, a writable fd, a bound UDP socket, a bound
/// listening TCP socket), then each planned syscall is issued with
/// arguments that make its handler run its real path (blocking calls are
/// unblocked by traffic the harness schedules), then exit.
class ProbeModel : public os::AppModel {
  // Result slots a later step can name as its B argument.
  enum Slot { kFileFd = 0, kWriteFd, kUdpSock, kTcpSock, kScratch, kSlots };

  struct Step {
    u32 nr = 0;
    u32 b = 0, c = 0, d = 0;
    int save = -1;    // store this step's result into slots_[save]
    int b_from = -1;  // override b with slots_[b_from]
  };

 public:
  explicit ProbeModel(const analysis::ProbePlan& plan) {
    steps_.push_back({abi::kSysOpen, os::kPathEtcConf, 0, 0, kFileFd});
    steps_.push_back({abi::kSysOpen, os::kPathLogFile, 1, 0, kWriteFd});
    steps_.push_back({abi::kSysSocket, 2, 2, 0, kUdpSock});
    steps_.push_back({abi::kSysBind, 0, kProbeUdpPort, 0, -1, kUdpSock});
    steps_.push_back({abi::kSysSocket, 2, 1, 0, kTcpSock});
    steps_.push_back({abi::kSysBind, 0, kProbeTcpPort, 0, -1, kTcpSock});
    steps_.push_back({abi::kSysListen, 0, 0, 0, -1, kTcpSock});
    for (const analysis::ProbeCall& call : plan.calls) add_recipe(call.nr);
    steps_.push_back({abi::kSysExit});
  }

  os::AppAction next(u32 last_result, os::OsRuntime&, u32) override {
    if (index_ > 0 && steps_[index_ - 1].save >= 0)
      slots_[steps_[index_ - 1].save] = last_result;
    const Step& s = steps_[std::min(index_, steps_.size() - 1)];
    if (index_ < steps_.size()) ++index_;
    const u32 b = s.b_from >= 0 ? slots_[s.b_from] : s.b;
    return os::AppAction::syscall(s.nr, b, s.c, s.d);
  }

 private:
  void step(u32 nr, u32 b = 0, u32 c = 0, int b_from = -1, int save = -1) {
    steps_.push_back({nr, b, c, 0, save, b_from});
  }

  /// Argument recipe per syscall. Handlers not listed run fine with zero
  /// arguments (sys_ni_syscall, getpid, uname...). Fresh sockets for the
  /// bind/connect/listen/sendto probes come from an inline socket() step
  /// whose result lands in the scratch slot.
  void add_recipe(u32 nr) {
    switch (nr) {
      case abi::kSysRead: step(nr, 0, 256, kFileFd); break;
      case abi::kSysWrite: step(nr, 0, 64, kWriteFd); break;
      case abi::kSysOpen: step(nr, os::kPathDataFile, 0); break;
      case abi::kSysClose:
        step(abi::kSysOpen, os::kPathDataFile, 0, -1, kScratch);
        step(nr, 0, 0, kScratch);
        break;
      case abi::kSysAlarm: step(nr, 0); break;  // cancel: never fires
      case abi::kSysBrk: step(nr, 1u << 16); break;
      case abi::kSysSignal: step(nr, 2, 0); break;
      case abi::kSysIoctl: step(nr, 1, 0x4000); break;
      case abi::kSysFcntl: step(nr, 0, 0, kFileFd); break;
      case abi::kSysDup2: step(nr, 1, 10); break;
      case abi::kSysMmap: step(nr, 1u << 16); break;
      case abi::kSysStat: step(nr, os::kPathEtcConf); break;
      case abi::kSysSetitimer: step(nr, 0, 0); break;
      case abi::kSysFsync: step(nr, 0, 0, kWriteFd); break;
      case abi::kSysGetdents: step(nr, 0, 256, kFileFd); break;
      case abi::kSysSelect: step(nr, 0, 1, kUdpSock); break;
      case abi::kSysNanosleep: step(nr, 1); break;
      case abi::kSysPoll: step(nr, 0, 1, kUdpSock); break;
      case abi::kSysSigaction: step(nr, 2, 0); break;
      case abi::kSysSocket: step(nr, 2, 2); break;
      case abi::kSysBind:
        step(abi::kSysSocket, 2, 2, -1, kScratch);
        step(nr, 0, 6102, kScratch);
        break;
      case abi::kSysConnect:
        step(abi::kSysSocket, 2, 1, -1, kScratch);
        step(nr, 0, 80, kScratch);
        break;
      case abi::kSysListen:
        step(abi::kSysSocket, 2, 1, -1, kScratch);
        step(abi::kSysBind, 0, 6103, kScratch);
        step(nr, 0, 0, kScratch);
        break;
      case abi::kSysAccept: step(nr, 0, 0, kTcpSock); break;
      case abi::kSysSendto:
        step(abi::kSysSocket, 2, 1, -1, kScratch);
        step(abi::kSysConnect, 0, 80, kScratch);
        step(nr, 0, 64, kScratch);
        break;
      case abi::kSysRecvfrom: step(nr, 0, 512, kUdpSock); break;
      default: step(nr); break;
    }
  }

  std::vector<Step> steps_;
  std::size_t index_ = 0;
  u32 slots_[kSlots] = {};
};

/// Minimal insmod process (mirrors the attack corpus helper, which is
/// private to attacks.cpp).
class InsmodProbe : public os::AppModel {
 public:
  explicit InsmodProbe(u32 module_id) : module_id_(module_id) {}
  os::AppAction next(u32, os::OsRuntime&, u32) override {
    if (phase_++ == 0)
      return os::AppAction::syscall(abi::kSysInitModule, module_id_);
    return os::AppAction::syscall(abi::kSysExit, 0);
  }

 private:
  u32 module_id_;
  int phase_ = 0;
};

analysis::DataWriteAnalysis analyze_system_writes(GuestSystem& sys) {
  analysis::CallGraph graph = build_call_graph(sys);
  hv::Vmi& vmi = sys.hv().vmi();
  return analysis::analyze_data_writes(
      graph,
      [&vmi](GVirt va, std::span<u8> out) { vmi.read_bytes(va, out); });
}

}  // namespace

ProbeRunResult run_boundary_probe(const std::string& app,
                                  const ProbeRunOptions& options) {
  const ProbeContext& ctx = probe_context();
  const core::KernelViewConfig& config = profile_of(app);

  ProbeRunResult result;
  result.app = app;
  // The boundary is the *loaded* view (the profile seeds): the closure is
  // transitively closed over call edges, so it has no out-edges of its own.
  result.plan = analysis::plan_boundary_probe(
      ctx.graph, analysis::profile_closure(ctx.graph, config).seed_spans,
      ctx.syscall_table);

  os::OsConfig os_config;
  os_config.clocksource = 0;  // match the profiling sessions
  GuestSystem sys(os_config);
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  const u32 view_id = engine.load_view(config);
  engine.bind(app, view_id);
  engine.install_static_audit(
      build_static_audit(ctx.graph, {{view_id, config}}));

  // The probe process carries the app's comm so the view applies to it.
  const u32 pid =
      sys.os().spawn(app, std::make_shared<ProbeModel>(result.plan));
  // Unblock recvfrom/select/poll and accept. Traffic spans the whole run
  // budget: packets arriving before the probe's socket is bound are
  // dropped, and trap recovery makes the probe's progress rate
  // unpredictable.
  const Cycles now = sys.vcpu().cycles();
  for (Cycles at = now + 600'000; at < now + options.run_budget;
       at += 2'500'000)
    sys.os().schedule_datagram(at, kProbeUdpPort, 320);
  for (Cycles at = now + 800'000; at < now + options.run_budget;
       at += 8'000'000)
    sys.os().schedule_connection(at, kProbeTcpPort, 200);
  sys.run_until_exit(pid, options.run_budget);
  result.completed = sys.os().task_zombie_or_dead(pid);

  const core::RecoveryEngine::Stats& rs = engine.recovery_stats();
  result.traps = rs.recoveries;
  result.predicted = rs.recoveries_predicted;
  result.profile_gap = rs.recoveries_profile_gap;
  result.unexplained = rs.recoveries_unpredicted;
  return result;
}

DataViewRunResult run_data_view_attack(attacks::Attack& attack,
                                       const DataViewRunOptions& options) {
  const ProbeContext& ctx = probe_context();

  DataViewRunResult result;
  result.name = attack.name();
  result.whitelist_writers = ctx.data.policy.total_writers();

  os::OsConfig config;
  config.clocksource = 0;
  GuestSystem sys(config);
  core::DataViewMonitor monitor(sys.hv().machine(), ctx.data.policy,
                                [&sys] { return sys.vcpu().regs().pc; });
  monitor.arm();

  // Rootkit installation (insmod + module init) under the armed monitor.
  attack.deploy(sys.os(), 0);
  sys.run_for(options.run_budget);

  result.stats = monitor.stats();
  result.violations = monitor.violations();

  // Static half: re-run the write analysis on the now-infected image; the
  // module's table store / hide ksvc shows up as an untrusted writer site.
  result.untrusted_static_writer = !analyze_system_writes(sys).untrusted.empty();
  return result;
}

DataViewRunResult run_data_view_benign(u32 iterations) {
  const ProbeContext& ctx = probe_context();

  DataViewRunResult result;
  result.name = "benign";
  result.whitelist_writers = ctx.data.policy.total_writers();

  os::OsConfig config;
  config.clocksource = 0;
  GuestSystem sys(config);
  core::DataViewMonitor monitor(sys.hv().machine(), ctx.data.policy,
                                [&sys] { return sys.vcpu().regs().pc; });
  monitor.arm();

  // A benign module load after arming exercises the whitelisted
  // load_module writers (slot-511 parking + module-list link).
  os::Blueprint bp;
  bp.add("benign_probe_init", "module", [](os::EmitCtx& c) { c.pad(4); });
  const u32 module_id = sys.os().register_module(
      {"benignprobe", std::move(bp), "benign_probe_init",
       /*publish_symbols=*/true, nullptr});
  sys.os().spawn("insmod", std::make_shared<InsmodProbe>(module_id));
  sys.run_for(30'000'000);

  for (const std::string& app : apps::all_app_names()) {
    apps::AppScenario scenario = apps::make_app(app, iterations);
    const u32 pid = sys.os().spawn(app, scenario.model);
    scenario.install_environment(sys.os());
    sys.run_until_exit(pid, 150'000'000);
  }

  result.stats = monitor.stats();
  result.violations = monitor.violations();
  return result;
}

std::unique_ptr<core::SharedImage> build_shared_image(
    const SharedImageOptions& options) {
  // 1. Profiles (separate clean sessions, as the paper's profiling phase).
  std::vector<std::string> apps = options.apps;
  std::vector<core::KernelViewConfig> configs;
  if (apps.empty()) {
    apps = apps::all_app_names();
    configs = profile_all_apps(options.profile_iterations);
  } else {
    for (const std::string& app : apps)
      configs.push_back(profile_app(app, options.profile_iterations));
  }

  // 2. Template boot under the runtime config; capture memory + boot
  //    artifacts before the engine touches anything.
  GuestSystem tmpl(options.runtime_config);
  auto image = capture_boot(tmpl);

  // 3. Plan every view once; the template builds it from that layout and
  //    the image captures the same layout's rendered pages.
  core::FaceChangeEngine engine(tmpl.hv(), tmpl.os().kernel());
  engine.enable();
  std::vector<std::pair<u32, core::KernelViewConfig>> loaded;
  for (const core::KernelViewConfig& config : configs) {
    core::ViewLayout layout = engine.view_builder().plan(config);
    loaded.emplace_back(engine.load_view(layout), config);
    image->capture_view(tmpl.hv().machine(), std::move(layout));
  }
  image->frames_after_views = tmpl.hv().machine().host().frame_count();

  // 4. Prebuild all (from, to) switch descriptors, full view included. The
  //    frame numbers and EPT table ids they embed are valid in any clone
  //    because rehydration replays the template's allocation order.
  const u32 n = static_cast<u32>(loaded.size());
  for (u32 from = 0; from <= n; ++from) {
    for (u32 to = 0; to <= n; ++to) {
      if (from == to) continue;
      image->switches.push_back(
          {from, to, engine.switch_descriptor(from, to)});
    }
  }

  // 5. Static audit (hazard returns + per-view closures, keyed by the same
  //    1..n ids adopt_shared_views hands out).
  if (options.with_static_audit) {
    analysis::CallGraph graph = build_call_graph(tmpl);
    image->audit = build_static_audit(graph, loaded);
  }

  image->finalize();
  return image;
}

}  // namespace fc::harness
