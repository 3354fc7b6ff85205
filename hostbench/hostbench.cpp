// Host-time scenario benchmark: times whole FACE-CHANGE scenarios from the
// outside, through the simulator's public calls only (harness,
// FaceChangeEngine, Hypervisor, FleetRunner, ubench::run_http_workload).
//
//   hostbench --workload enforce12|fleet64|http_io --seed N --seconds S
//             --trace 0|1 [--spans-out FILE] [--git-sha SHA]
//             [--budget-cycles N] [--tiny]
//
// Untraced (--trace 0) runs report the end-to-end metrics: wall_s (median
// host seconds of one pass over the seeded scenario, after warm-up),
// setup_s (median host seconds of the set-up calls) and peak_rss_mib.
// Traced runs (--trace 1) alternate traced and untraced passes, record spans
// in memory around every public call, and report the per-layer split.
// Simulated results (instruction and cycle counts, recoveries, latencies)
// are never metrics here: they are correctness checks (every pass of one
// seeded scenario must reproduce them exactly) and a printed digest.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. README.md in this directory defines every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "support/rng.hpp"
#include "ubench_models.hpp"

namespace {

using namespace fc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_since(i64 start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (u32 i = static_cast<u32>(v.size()); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

void mix(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

// ---------------------------------------------------------------------------
// Host facts.
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a.empty() ? "unknown" : a + " " + b + " " + c;
}

/// Host-wide steal ticks (the 8th field of /proc/stat's cpu line); -1 when
/// unavailable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long field = 0;
  in >> cpu;
  if (cpu != "cpu") return -1;
  for (int i = 0; i < 8; ++i) {
    if (!(in >> field)) return -1;
  }
  return field;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory on the driving thread, written out at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  int parent = -1;  // index into SpanLog::spans, -1 for a root
  u32 id = 0;       // pass, round, view, VM-pass or request-batch id
};

class SpanLog {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  int open(const char* name, u32 id) {
    if (!enabled) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    s.start_ns = now_ns();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans[index].end_ns = now_ns();
    stack_.pop_back();
  }
  u32 current_id() const {
    return stack_.empty() ? 0 : spans[stack_.back()].id;
  }

 private:
  std::vector<int> stack_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, u32 id) : index_(g_spans.open(name, id)) {}
  explicit ScopedSpan(const char* name)
      : ScopedSpan(name, g_spans.current_id()) {}
  ~ScopedSpan() { g_spans.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Installed after engine.enable() in traced passes: forwards every VM exit
/// to the engine and records it as a child span of the running `run` span.
/// Breakpoint exits are the context-switch and resume-userspace traps (the
/// latter applies the view switch); invalid-opcode exits are UD2 recoveries.
class TimedExits : public hv::ExitHandler {
 public:
  explicit TimedExits(hv::ExitHandler& inner) : inner_(&inner) {}
  bool handle_invalid_opcode(GVirt pc) override {
    ScopedSpan span("exit.invalid_opcode");
    return inner_->handle_invalid_opcode(pc);
  }
  void handle_breakpoint(GVirt pc) override {
    ScopedSpan span("exit.breakpoint");
    inner_->handle_breakpoint(pc);
  }

 private:
  hv::ExitHandler* inner_;
};

// ---------------------------------------------------------------------------
// Simulated counters, summed over the VMs of one pass.
// ---------------------------------------------------------------------------

/// Numeric field of a metrics_json export: a counter ("key":N) or a gauge
/// ("key":{"value":N,...}). Missing keys read 0.
u64 json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  at += needle.size();
  if (at < json.size() && json[at] == '{') {
    at = json.find("\"value\":", at);
    if (at == std::string::npos) return 0;
    at += 8;
  }
  return std::strtoull(json.c_str() + at, nullptr, 10);
}

struct Counters {
  u64 vms = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 trace_insns = 0;
  u64 block_insns = 0;
  u64 traces_built = 0;
  u64 trace_dispatched = 0;
  u64 trace_side_exits = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 breakpoint_exits = 0;
  u64 invalid_opcode_exits = 0;
  u64 halt_exits = 0;
  u64 view_switches = 0;
  u64 recoveries = 0;
  u64 nic_delivered = 0;
  u64 blk_completions = 0;
  u64 irqs_raised = 0;
  u64 backlog_peak = 0;  // max over VMs
  u64 event_queue_max_depth = 0;  // max over VMs
  u64 private_frames = 0;
  u64 store_pages = 0;  // shared COW store the VMs boot over

  /// Shared store pages plus every VM's private frames (the footprint
  /// FleetReport::resident_frames reports for a fleet).
  u64 resident_frames() const { return store_pages + private_frames; }

  /// A live VM (and its engine, when FACE-CHANGE is on), booted COW over a
  /// store of `store` shared pages.
  void add(harness::GuestSystem& sys, const core::FaceChangeEngine* engine,
           u64 store) {
    cpu::Vcpu& vcpu = sys.vcpu();
    ++vms;
    instructions += vcpu.instructions_retired();
    cycles += vcpu.cycles();
    const cpu::TraceCache::Stats& ts = vcpu.trace_cache().stats();
    trace_insns += ts.trace_insns;
    traces_built += ts.built;
    trace_dispatched += ts.dispatched;
    trace_side_exits += ts.side_exits;
    block_insns += vcpu.block_cache().stats().insn_hits;
    tlb_hits += vcpu.mmu().stats().tlb_hits;
    tlb_misses += vcpu.mmu().stats().tlb_misses;
    const hv::Hypervisor::Stats& hs = sys.hv().stats();
    breakpoint_exits += hs.breakpoint_exits;
    invalid_opcode_exits += hs.invalid_opcode_exits;
    halt_exits += hs.halt_exits;
    if (engine != nullptr) {
      view_switches += engine->stats().view_switches();
      recoveries += engine->recovery_stats().recoveries;
    }
    const io::IoPlane::Stats& io = sys.os().io_plane()->stats();
    nic_delivered += io.nic_delivered;
    blk_completions += io.blk_completions;
    irqs_raised += io.irqs_raised;
    backlog_peak = std::max(backlog_peak, io.backlog_peak);
    event_queue_max_depth = std::max<u64>(event_queue_max_depth,
                                          sys.os().events().max_depth());
    const mem::HostMemory& host = sys.hv().machine().host();
    private_frames += host.private_frame_count();
    store_pages = store;
  }

  /// One fleet VM, read from its report slot (the stock fleet path keeps
  /// the VM itself private). The caller sets store_pages fleet-wide.
  void add(const fleet::VmResult& vm) {
    const std::string& m = vm.metrics_json;
    ++vms;
    instructions += vm.instructions;
    cycles += vm.cycles;
    trace_insns += json_counter(m, "trace_cache.trace_insns");
    traces_built += json_counter(m, "trace_cache.built");
    trace_dispatched += json_counter(m, "trace_cache.dispatched");
    trace_side_exits += json_counter(m, "trace_cache.side_exits");
    block_insns += json_counter(m, "block_cache.insn_hits");
    tlb_hits += json_counter(m, "mmu.tlb_hits");
    tlb_misses += json_counter(m, "mmu.tlb_misses");
    breakpoint_exits += json_counter(m, "hv.breakpoint_exits");
    invalid_opcode_exits += json_counter(m, "hv.invalid_opcode_exits");
    halt_exits += json_counter(m, "hv.halt_exits");
    view_switches += vm.view_switches;
    recoveries += vm.recoveries;
    nic_delivered += json_counter(m, "io.nic.delivered");
    blk_completions += json_counter(m, "io.blk.completions");
    irqs_raised += json_counter(m, "io.irq.raised");
    backlog_peak = std::max(backlog_peak, json_counter(m, "io.ring.backlog_peak"));
    private_frames += vm.private_frames;
  }
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  Cycles budget_cycles = 0;  // 0 = the workload's default
  std::string spans_out;
  std::string git_sha = "none";
};

/// The outcome of one pass over the seeded scenario.
struct Pass {
  double wall_s = 0;
  u64 attempted = 0;
  u64 failed = 0;
  u64 digest = 0xCBF29CE484222325ull;
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed operation
  Counters counters;
  double cpu_s = 0;  // process CPU seconds (all threads) during the pass
  u64 steals = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The seeded inputs, one line each.
  virtual std::vector<std::string> describe_inputs() const = 0;
  /// One repetition of the program's set-up calls; returns (profile_s,
  /// image_s). The last repetition's artifacts are kept for the passes.
  virtual std::pair<double, double> set_up() = 0;
  virtual u32 setup_repetitions() const = 0;
  /// Untimed warm-up before the first timed pass.
  virtual void warm_up() = 0;
  /// One timed pass over the scenario.
  virtual Pass run_pass(u32 pass_id, bool traced) = 0;
  /// Traced mode only: a pass at one worker (fleet.speedup_1to4), checked
  /// like the others. Single-threaded workloads return an empty pass.
  virtual Pass serial_pass() { return {}; }
  virtual u32 workers() const { return 1; }
};

const os::OsConfig kRuntimeConfig{};

// -- enforce12 --------------------------------------------------------------

/// The paper's runtime: each round COW-boots a fresh VM, loads the 12
/// profiled views, binds every Table I app to its own view and runs all 12
/// at once to exit. Rounds rather than one long run: the apps share one
/// tty (gvim and bash starve for keystrokes at >= 8 iterations) and
/// host-spawned tasks are never reaped (64 task slots), so one VM cannot
/// host repeated waves.
class Enforce12 : public Workload {
 public:
  static constexpr Cycles kDefaultBudget = 400'000'000;

  Enforce12(u64 seed, bool tiny, Cycles budget)
      : budget_(budget != 0 ? budget : kDefaultBudget) {
    Rng rng(seed);
    const std::vector<std::string>& names = apps::all_app_names();
    // Each app runs 2, 3 and 4 iterations twice over the six rounds in a
    // seeded order, so every seed does the same guest work per app.
    const u32 rounds = tiny ? 1 : 6;
    std::vector<std::vector<u32>> iters(names.size());
    for (std::vector<u32>& per_app : iters) {
      per_app = tiny ? std::vector<u32>{rng.between(2, 4)}
                     : std::vector<u32>{2, 2, 3, 3, 4, 4};
      shuffle(per_app, rng);
    }
    // gvim and bash read the one shared tty, and a read takes every
    // keystroke already queued, so together they can starve for keys. Pair
    // them so that each round's two tty apps run 6 iterations between them.
    const auto index_of = [&](const char* app) {
      return std::find(names.begin(), names.end(), app) - names.begin();
    };
    std::vector<u32>& bash = iters[index_of("bash")];
    const std::vector<u32>& gvim = iters[index_of("gvim")];
    for (u32 r = 0; r < rounds; ++r) bash[r] = 6 - gvim[r];
    rounds_.resize(rounds);
    std::vector<u32> servers, others;
    for (u32 i = 0; i < names.size(); ++i)
      (is_server(names[i]) ? servers : others).push_back(i);
    for (u32 r = 0; r < rounds; ++r) {
      shuffle(servers, rng);
      shuffle(others, rng);
      for (const std::vector<u32>* group : {&servers, &others})
        for (u32 i : *group) rounds_[r].push_back({names[i], iters[i][r]});
    }
  }

  /// Apps whose environment schedules connections or datagrams at fixed
  /// times; the guest drops them while nothing listens on the port.
  static bool is_server(const std::string& app) {
    return app == "apache" || app == "vsftpd" || app == "mysqld" ||
           app == "sshd" || app == "tcpdump";
  }

  std::vector<std::string> describe_inputs() const override {
    std::vector<std::string> lines;
    for (std::size_t r = 0; r < rounds_.size(); ++r) {
      std::string line = "round " + std::to_string(r) + ":";
      for (const auto& [app, it] : rounds_[r])
        line += " " + app + "x" + std::to_string(it);
      lines.push_back(line);
    }
    lines.push_back("cycle budget per round: " + std::to_string(budget_));
    return lines;
  }

  u32 setup_repetitions() const override { return 5; }

  std::pair<double, double> set_up() override {
    const i64 t0 = now_ns();
    std::vector<core::KernelViewConfig> configs;
    {
      ScopedSpan span("setup.profile");
      for (const std::string& app : apps::all_app_names())
        configs.push_back(harness::profile_app(app));
    }
    const double profile_s = seconds_since(t0);
    const i64 t1 = now_ns();
    {
      // The from-scratch template boot the memoized boot image captures.
      ScopedSpan span("setup.template_boot");
      harness::GuestSystem tmpl(kRuntimeConfig,
                                harness::GuestSystem::FreshBoot{});
    }
    const double image_s = seconds_since(t1);
    views_ = std::move(configs);
    return {profile_s, image_s};
  }

  void warm_up() override {
    store_pages_ = harness::boot_image_for(kRuntimeConfig).store.page_count();
    Pass ignored;
    for (u32 r = 0; r < rounds_.size(); ++r) run_round(r, false, ignored);
  }

  Pass run_pass(u32 pass_id, bool traced) override {
    Pass pass;
    const i64 t0 = now_ns();
    {
      ScopedSpan span("pass", pass_id);
      for (u32 r = 0; r < rounds_.size(); ++r) run_round(r, traced, pass);
    }
    pass.wall_s = seconds_since(t0);
    return pass;
  }

 private:
  void run_round(u32 round_id, bool traced, Pass& pass) {
    ScopedSpan round_span("round", round_id);
    std::unique_ptr<harness::GuestSystem> sys;
    {
      ScopedSpan span("boot");
      sys = std::make_unique<harness::GuestSystem>(kRuntimeConfig);
    }
    std::unique_ptr<core::FaceChangeEngine> engine;
    {
      ScopedSpan span("engine.enable");
      engine = std::make_unique<core::FaceChangeEngine>(sys->hv(),
                                                        sys->os().kernel());
      engine->enable();
    }
    TimedExits timed_exits(*engine);
    if (traced) sys->hv().set_exit_handler(&timed_exits);
    {
      ScopedSpan span("load_views");
      for (u32 i = 0; i < views_.size(); ++i) {
        ScopedSpan view_span("load_view", i);
        engine->bind(views_[i].app_name, engine->load_view(views_[i]));
      }
    }
    std::vector<u32> pids;
    std::vector<apps::AppScenario> scenarios;
    {
      ScopedSpan span("spawn");
      for (const auto& [app, iterations] : rounds_[round_id]) {
        scenarios.push_back(apps::make_app(app, iterations));
        pids.push_back(sys->os().spawn(app, scenarios.back().model));
      }
    }
    hv::RunOutcome outcome;
    {
      ScopedSpan span("run");
      const Cycles end = sys->vcpu().cycles() + budget_;
      for (apps::AppScenario& scenario : scenarios)
        scenario.install_environment(sys->os());
      outcome = sys->hv().run([&] {
        for (u32 pid : pids)
          if (!sys->os().task_zombie_or_dead(pid))
            return sys->vcpu().cycles() >= end;
        return true;
      });
    }
    // One operation per app process: it fails unless it exited within the
    // cycle budget without a guest fault.
    u64 exited_mask = 0;
    for (u32 i = 0; i < pids.size(); ++i) {
      const bool ok = outcome != hv::RunOutcome::kGuestFault &&
                      sys->os().task_zombie_or_dead(pids[i]);
      if (ok) exited_mask |= 1ull << i;
      ++pass.attempted;
      if (!ok) {
        ++pass.failed;
        pass.failures.push_back("round " + std::to_string(round_id) + " " +
                                rounds_[round_id][i].first + " x" +
                                std::to_string(rounds_[round_id][i].second) +
                                " did not exit");
      }
    }
    pass.counters.add(*sys, engine.get(), store_pages_);
    mix(pass.digest, sys->vcpu().instructions_retired());
    mix(pass.digest, sys->vcpu().cycles());
    mix(pass.digest, engine->stats().view_switches());
    mix(pass.digest, engine->recovery_stats().recoveries);
    mix(pass.digest, exited_mask);
    // A completed round must actually have switched between the views.
    if (exited_mask + 1 == 1ull << pids.size() &&
        engine->stats().view_switches() == 0)
      pass.correct = false;
    {
      ScopedSpan span("teardown");
      engine.reset();
      sys.reset();
    }
  }

  Cycles budget_;
  std::vector<std::vector<std::pair<std::string, u32>>> rounds_;
  std::vector<core::KernelViewConfig> views_;
  u64 store_pages_ = 0;
};

// -- fleet64 ----------------------------------------------------------------

/// The stock FleetRunner path: 64 VMs over one build_shared_image, on 4
/// workers, with an uneven per-VM iteration mix. The only multi-threaded
/// workload, and the only one where per-VM boot, COW and scheduling
/// dominate.
class Fleet64 : public Workload {
 public:
  static constexpr u32 kJobs = 4;

  Fleet64(u64 seed, bool tiny, Cycles budget) {
    const std::vector<std::string>& names = apps::all_app_names();
    const u32 vms = tiny ? 8 : 64;
    // A fixed multiset of (app, iterations) — VM k runs app k mod 12 with
    // 4 or 16 iterations, alternating per app — permuted over VM ids by the
    // seed: every seed does the same total work but schedules it in a
    // different order, and many VMs share a key (the jobs-invariance check).
    std::vector<std::pair<std::string, u32>> pairs;
    for (u32 k = 0; k < vms; ++k)
      pairs.push_back({names[k % names.size()],
                       (k / names.size()) % 2 == 0 ? 4u : 16u});
    Rng rng(seed);
    shuffle(pairs, rng);
    options_.vms = vms;
    options_.jobs = kJobs;
    for (const auto& [app, it] : pairs) {
      options_.apps.push_back(app);
      options_.iteration_mix.push_back(it);
    }
    if (budget != 0) options_.run_budget = budget;
  }

  std::vector<std::string> describe_inputs() const override {
    std::string line = "vms " + std::to_string(options_.vms) + ", jobs " +
                       std::to_string(options_.jobs) + ", run budget " +
                       std::to_string(options_.run_budget) + ":";
    for (u32 k = 0; k < options_.vms; ++k)
      line += " " + options_.apps[k] + "x" +
              std::to_string(options_.iteration_mix[k]);
    return {line};
  }

  u32 setup_repetitions() const override { return 5; }

  std::pair<double, double> set_up() override {
    image_.reset();  // one image resident at a time
    // build_shared_image takes its profiles from the per-process memo that
    // profile_all_apps fills. The first repetition fills it; later ones
    // repeat the same twelve profile_app calls, so every repetition pays
    // for profiling exactly once and the split between profiling and image
    // build is measured, not estimated.
    const i64 t0 = now_ns();
    {
      ScopedSpan span("setup.profile");
      if (!profiled_) {
        harness::profile_all_apps();
        profiled_ = true;
      } else {
        for (const std::string& app : apps::all_app_names())
          harness::profile_app(app);
      }
    }
    const double profile_s = seconds_since(t0);
    harness::SharedImageOptions image_options;
    image_options.runtime_config = options_.os_config;
    const i64 t1 = now_ns();
    {
      ScopedSpan span("setup.build_shared_image");
      image_ = harness::build_shared_image(image_options);
    }
    return {profile_s, seconds_since(t1)};
  }

  void warm_up() override {
    // The first multi-threaded passes after idle run about 2x slower than
    // later ones; spin all workers up until a pass stops improving.
    for (int i = 0; i < 3; ++i) run_fleet(options_, 0);
  }

  Pass run_pass(u32 pass_id, bool traced) override {
    (void)traced;  // the stock fleet path has no per-VM hook to trace
    ScopedSpan span("pass", pass_id);
    return run_fleet(options_, pass_id);
  }

  Pass serial_pass() override {
    fleet::FleetOptions serial = options_;
    serial.jobs = 1;
    ScopedSpan span("pass.jobs1", 0);
    return run_fleet(serial, 0);
  }

  u32 workers() const override { return kJobs; }

 private:
  Pass run_fleet(const fleet::FleetOptions& options, u32 pass_id) {
    Pass pass;
    fleet::FleetRunner runner(*image_, options);
    fleet::FleetReport report;
    const i64 t0 = now_ns();
    {
      ScopedSpan span("fleet.run", pass_id);
      report = runner.run();
    }
    pass.wall_s = seconds_since(t0);
    pass.steals = report.steals;

    // One operation per VM: it fails on a guest fault, or when it disagrees
    // with the first VM of its (app, iterations) key, or with the same VM
    // in the first pass (results may not depend on scheduling).
    std::map<std::pair<std::string, u32>, const fleet::VmResult*> first;
    const bool have_reference = !reference_.empty();
    for (const fleet::VmResult& vm : report.vms) {
      ++pass.attempted;
      const std::pair<std::string, u32> key{
          vm.app, options.iteration_mix[vm.vm % options.iteration_mix.size()]};
      auto [it, inserted] = first.emplace(key, &vm);
      bool ok = !vm.fault;
      if (!inserted) ok = ok && same_result(*it->second, vm);
      if (have_reference) ok = ok && same_result(reference_[vm.vm], vm);
      if (!ok) {
        ++pass.failed;
        pass.failures.push_back("vm " + std::to_string(vm.vm) + " " + vm.app +
                                (vm.fault ? " faulted" : " disagrees"));
      }
      pass.counters.add(vm);
      mix(pass.digest, vm.instructions);
      mix(pass.digest, vm.cycles);
      mix(pass.digest, vm.private_frames);
      mix(pass.digest, stable_hash(vm.metrics_json));
    }
    pass.counters.store_pages = report.shared_store_pages;
    if (!have_reference) reference_ = report.vms;
    return pass;
  }

  static bool same_result(const fleet::VmResult& a, const fleet::VmResult& b) {
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.private_frames == b.private_frames &&
           a.metrics_json == b.metrics_json;
  }

  fleet::FleetOptions options_;
  bool profiled_ = false;
  std::unique_ptr<core::SharedImage> image_;
  std::vector<fleet::VmResult> reference_;
};

// -- http_io ----------------------------------------------------------------

/// One VM serving apache-style requests over the batched virtio data plane
/// (fleet_http's tuning: coalesce 32, 100k-cycle quantum, metered DMA) with
/// FACE-CHANGE off, as in Figure 7's baseline arm. Open loop, seeded below
/// the ~220 req/s knee so every request is served. The io/os network and
/// VFS path does the work; no engine or fleet work runs.
class HttpIo : public Workload {
 public:
  static constexpr Cycles kComputePerRequest = 20'000;

  HttpIo(u64 seed, bool tiny) {
    config_.io.coalesce_count = 32;
    config_.io.coalesce_cycles = 100'000;
    config_.io.meter_dma = true;
    Rng rng(seed);
    rate_ = 150.0 + static_cast<double>(rng.between(0, 40));
    requests_ = tiny ? 60 : 1480 + rng.between(0, 40);
  }

  std::vector<std::string> describe_inputs() const override {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "open loop: %u requests at %.0f req/s (simulated), %llu "
                  "compute cycles each, FACE-CHANGE off",
                  requests_, rate_,
                  static_cast<unsigned long long>(kComputePerRequest));
    return {buf};
  }

  u32 setup_repetitions() const override { return 15; }

  std::pair<double, double> set_up() override {
    const i64 t0 = now_ns();
    {
      // The from-scratch template boot the memoized boot image captures.
      ScopedSpan span("setup.template_boot");
      harness::GuestSystem tmpl(config_, harness::GuestSystem::FreshBoot{});
    }
    return {0, seconds_since(t0)};
  }

  void warm_up() override {
    store_pages_ = harness::boot_image_for(config_).store.page_count();
    harness::GuestSystem sys(config_);
    ubench::run_http_workload(sys, rate_, requests_ / 4 + 1,
                              kComputePerRequest);
  }

  Pass run_pass(u32 pass_id, bool traced) override {
    (void)traced;  // FACE-CHANGE is off: there are no exits to time
    Pass pass;
    const i64 t0 = now_ns();
    {
      ScopedSpan pass_span("pass", pass_id);
      std::unique_ptr<harness::GuestSystem> sys;
      {
        ScopedSpan span("boot");
        sys = std::make_unique<harness::GuestSystem>(config_);
      }
      ubench::OpenLoopStats stats;
      {
        ScopedSpan span("run_http_workload");
        stats = ubench::run_http_workload(*sys, rate_, requests_,
                                          kComputePerRequest);
      }
      // One operation per request: it fails unless served before the
      // workload's deadline.
      pass.attempted = stats.offered;
      pass.failed = stats.offered - std::min(stats.served, stats.offered);
      pass.counters.add(*sys, nullptr, store_pages_);
      u64 latency_sum = 0;
      for (Cycles c : stats.latencies) latency_sum += c;
      mix(pass.digest, stats.served);
      mix(pass.digest, latency_sum);
      mix(pass.digest, sys->vcpu().instructions_retired());
      mix(pass.digest, sys->vcpu().cycles());
      if (stats.latencies.size() != stats.served) pass.correct = false;
      {
        ScopedSpan span("teardown");
        sys.reset();
      }
    }
    pass.wall_s = seconds_since(t0);
    return pass;
  }

 private:
  os::OsConfig config_;
  double rate_ = 0;
  u32 requests_ = 0;
  u64 store_pages_ = 0;
};

// ---------------------------------------------------------------------------
// Span aggregation.
// ---------------------------------------------------------------------------

struct NameTotals {
  u64 count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Per-name totals over the spans of one traced pass (the pass span at
/// `root` and every span after it up to `end`).
std::map<std::string, NameTotals> totals_of(int root, int end) {
  std::map<std::string, NameTotals> out;
  std::vector<double> child_s(static_cast<std::size_t>(end - root), 0.0);
  for (int i = root; i < end; ++i) {
    const Span& s = g_spans.spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent >= root) child_s[s.parent - root] += d;
  }
  for (int i = root; i < end; ++i) {
    const Span& s = g_spans.spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    NameTotals& t = out[s.name];
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i - root];
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < g_spans.spans.size(); ++i) {
    const Span& s = g_spans.spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"index\":%zu,"
                  "\"parent\":%d,\"id\":%u}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.id);
    out << buf;
  }
  out << "\n]}\n";
  return out.good();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render_result(bool correct, u64 attempted, u64 failed,
                          const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload enforce12|fleet64|http_io "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
               "[--git-sha SHA] [--budget-cycles N] [--tiny]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out") {
      o.spans_out = argv[++i];
    } else if (arg == "--git-sha") {
      o.git_sha = argv[++i];
    } else if (arg == "--budget-cycles") {
      o.budget_cycles = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  std::unique_ptr<Workload> workload;
  if (opt.workload == "enforce12") {
    workload = std::make_unique<Enforce12>(opt.seed, opt.tiny, opt.budget_cycles);
  } else if (opt.workload == "fleet64") {
    workload = std::make_unique<Fleet64>(opt.seed, opt.tiny, opt.budget_cycles);
  } else if (opt.workload == "http_io") {
    workload = std::make_unique<HttpIo>(opt.seed, opt.tiny);
  } else {
    return usage();
  }

  const long long steal0 = steal_ticks();
  std::printf("host: nproc=%ld compiler=\"%s\" build_type=%s "
              "fc_obs_disabled=%d git_sha=%s loadavg=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), compiler_name().c_str(),
              HOSTBENCH_BUILD_TYPE,
#ifdef FC_OBS_DISABLED
              1,
#else
              0,
#endif
              opt.git_sha.c_str(), load_average().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
  for (const std::string& line : workload->describe_inputs())
    std::printf("input: %s\n", line.c_str());
  std::fflush(stdout);

  g_spans.enabled = opt.trace;

  // ---- set-up, repeated; the median is setup_s -------------------------
  std::vector<double> setup_s, profile_s, image_s;
  const u32 setup_reps = opt.tiny ? 1 : workload->setup_repetitions();
  for (u32 r = 0; r < setup_reps; ++r) {
    const i64 t0 = now_ns();
    const auto [p, i] = workload->set_up();
    setup_s.push_back(seconds_since(t0));
    profile_s.push_back(p);
    image_s.push_back(i);
  }

  const double rss_before = current_rss_mib();
  g_spans.enabled = false;
  workload->warm_up();

  // ---- timed passes ------------------------------------------------------
  // Traced runs alternate untraced and traced passes so that the tracing
  // overhead is measured under the same host conditions.
  std::vector<Pass> passes;
  std::vector<int> pass_roots;  // span index of each traced pass
  const u32 min_passes = opt.trace ? 4 : 3;
  const i64 t_start = now_ns();
  for (u32 id = 0;
       passes.size() < min_passes || seconds_since(t_start) < opt.seconds;
       ++id) {
    const bool traced = opt.trace && id % 2 == 1;
    g_spans.enabled = traced;
    const int root = static_cast<int>(g_spans.spans.size());
    const double cpu0 = process_cpu_seconds();
    passes.push_back(workload->run_pass(id, traced));
    passes.back().cpu_s = process_cpu_seconds() - cpu0;
    pass_roots.push_back(traced ? root : -1);
  }
  g_spans.enabled = opt.trace;

  const Pass serial = opt.trace ? workload->serial_pass() : Pass{};

  // ---- correctness and failure accounting -------------------------------
  bool correct = true;
  u64 attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    correct = correct && p.correct && p.digest == passes.front().digest;
    attempted += p.attempted;
    failed += p.failed;
  }
  if (serial.attempted > 0) {
    correct = correct && serial.digest == passes.front().digest;
    attempted += serial.attempted;
    failed += serial.failed;
  }
  const Pass& first = passes.front();
  const Counters& c = first.counters;
  std::printf("digest: %016llx passes=%zu per-pass: vms=%llu "
              "instructions=%llu cycles=%llu view_switches=%llu "
              "recoveries=%llu attempted=%llu failed=%llu%s\n",
              static_cast<unsigned long long>(first.digest), passes.size(),
              static_cast<unsigned long long>(c.vms),
              static_cast<unsigned long long>(c.instructions),
              static_cast<unsigned long long>(c.cycles),
              static_cast<unsigned long long>(c.view_switches),
              static_cast<unsigned long long>(c.recoveries),
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              correct ? "" : " MISMATCH");

  for (const std::string& f : first.failures)
    std::printf("failed: %s\n", f.c_str());
  std::vector<double> wall_all, wall_untraced, wall_traced, cpu_all;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    wall_all.push_back(passes[i].wall_s);
    cpu_all.push_back(passes[i].cpu_s);
    (pass_roots[i] >= 0 ? wall_traced : wall_untraced)
        .push_back(passes[i].wall_s);
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"wall_s", median(wall_all), "s"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  } else {
    // Per-name totals per traced pass; time metrics are medians over the
    // traced passes, counts come from the first pass (all passes of a
    // seeded scenario are checked identical).
    std::map<std::string, std::vector<double>> per_pass_total;
    std::map<std::string, NameTotals> all;
    std::vector<double> unattributed;
    std::vector<double> boot_ms;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (pass_roots[i] < 0) continue;
      // The pass's spans run up to the next root-level span.
      const int end = static_cast<int>(g_spans.spans.size());
      int stop = pass_roots[i] + 1;
      while (stop < end && g_spans.spans[stop].parent >= 0) ++stop;
      const auto totals = totals_of(pass_roots[i], stop);
      for (const auto& [name, t] : totals) {
        per_pass_total[name].push_back(t.total_s);
        NameTotals& a = all[name];
        a.count += t.count;
        a.total_s += t.total_s;
        a.self_s += t.self_s;
      }
      double structural = 0;
      for (const char* name : {"pass", "round"}) {
        auto it = totals.find(name);
        if (it != totals.end()) structural += it->second.self_s;
      }
      unattributed.push_back(pct(structural, passes[i].wall_s));
      for (int s = pass_roots[i]; s < stop; ++s) {
        if (std::strcmp(g_spans.spans[s].name, "boot") == 0)
          boot_ms.push_back(static_cast<double>(g_spans.spans[s].end_ns -
                                                g_spans.spans[s].start_ns) *
                            1e-6);
      }
    }
    auto per_pass = [&](const char* name) { return median(per_pass_total[name]); };

    std::printf("spans (all traced passes): %-22s %8s %12s %12s %8s\n",
                "name", "count", "total ms", "self ms", "self %");
    double traced_wall = 0;
    for (double w : wall_traced) traced_wall += w;
    for (const auto& [name, t] : all)
      std::printf("spans: %-42s %8llu %12.3f %12.3f %7.2f%%\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                  t.self_s * 1e3, pct(t.self_s, traced_wall));

    const double run_s = per_pass("run");
    const double exits_s = per_pass("exit.breakpoint") +
                           per_pass("exit.invalid_opcode");
    double host_mips = 0;
    if (opt.workload == "fleet64") {
      host_mips = static_cast<double>(c.instructions) / median(cpu_all) * 1e-6;
    } else if (opt.workload == "http_io") {
      host_mips = static_cast<double>(c.instructions) /
                  per_pass("run_http_workload") * 1e-6;
    } else {
      host_mips = static_cast<double>(c.instructions) / run_s * 1e-6;
    }

    const double ins = static_cast<double>(c.instructions);
    const double trace_pct = pct(static_cast<double>(c.trace_insns), ins);
    const double block_pct = pct(static_cast<double>(c.block_insns), ins);

    double busy_pct = 0, vm_cpu_ms = 0, steals = 0, speedup = 0;
    if (opt.workload == "fleet64") {
      std::vector<double> busy, vm_cpu, st;
      for (const Pass& p : passes) {
        busy.push_back(pct(p.cpu_s, p.wall_s * workload->workers()));
        vm_cpu.push_back(p.cpu_s * 1e3 / static_cast<double>(c.vms));
        st.push_back(static_cast<double>(p.steals));
      }
      busy_pct = median(busy);
      vm_cpu_ms = median(vm_cpu);
      steals = median(st);
      speedup = serial.wall_s / median(wall_all);
    }

    // http_io's operations are requests; the served ones did not fail.
    const double served = opt.workload == "http_io"
                              ? static_cast<double>(first.attempted - first.failed)
                              : 0;

    auto count = [](u64 v) { return static_cast<double>(v); };
    metrics = {
        {"setup.profile_s", median(profile_s), "s"},
        {"setup.image_s", median(image_s), "s"},
        {"os.boot_ms", median(boot_ms), "ms"},
        {"os.event_queue_max_depth", count(c.event_queue_max_depth), "count"},
        {"core.load_views_ms", per_pass("load_views") * 1e3 /
                                   std::max<double>(1, count(c.vms)),
         "ms"},
        {"core.view_switches", count(c.view_switches), "count"},
        {"core.switch_us",
         c.view_switches > 0
             ? per_pass("exit.breakpoint") * 1e6 / count(c.view_switches)
             : 0,
         "us"},
        {"core.recoveries", count(c.recoveries), "count"},
        {"core.recovery_us",
         c.invalid_opcode_exits > 0 ? per_pass("exit.invalid_opcode") * 1e6 /
                                          count(c.invalid_opcode_exits)
                                    : 0,
         "us"},
        {"core.exit_pct", pct(exits_s, run_s), "%"},
        {"vcpu.host_mips", host_mips, "MIPS"},
        {"vcpu.trace_insn_pct", trace_pct, "%"},
        {"vcpu.block_insn_pct", block_pct, "%"},
        {"vcpu.uncached_insn_pct", std::max(0.0, 100.0 - trace_pct - block_pct),
         "%"},
        {"vcpu.traces_built", count(c.traces_built), "count"},
        {"vcpu.trace_side_exit_pct",
         pct(count(c.trace_side_exits), count(c.trace_dispatched)), "%"},
        {"mem.tlb_miss_pct",
         pct(count(c.tlb_misses), count(c.tlb_hits + c.tlb_misses)), "%"},
        {"mem.private_frames",
         count(c.private_frames) / std::max<double>(1, count(c.vms)), "frames"},
        {"mem.resident_frames", count(c.resident_frames()), "frames"},
        {"mem.rss_per_worker_mib",
         std::max(0.0, peak_rss_mib() - rss_before) / workload->workers(),
         "MiB"},
        {"hv.breakpoint_exits", count(c.breakpoint_exits), "count"},
        {"hv.invalid_opcode_exits", count(c.invalid_opcode_exits), "count"},
        {"hv.halt_exits", count(c.halt_exits), "count"},
        {"io.nic_delivered", count(c.nic_delivered), "count"},
        {"io.irq_raised", count(c.irqs_raised), "count"},
        {"io.delivered_per_irq",
         c.irqs_raised > 0
             ? count(c.nic_delivered + c.blk_completions) / count(c.irqs_raised)
             : 0,
         "ratio"},
        {"io.backlog_peak", count(c.backlog_peak), "count"},
        {"io.host_us_per_request",
         served > 0 ? per_pass("run_http_workload") * 1e6 / served : 0, "us"},
        {"fleet.busy_pct", busy_pct, "%"},
        {"fleet.vm_cpu_ms", vm_cpu_ms, "ms"},
        {"fleet.steals", steals, "count"},
        {"fleet.speedup_1to4", speedup, "x"},
        {"obs.trace_overhead_pct",
         (median(wall_traced) / median(wall_untraced) - 1.0) * 100.0, "%"},
        {"obs.unattributed_pct", median(unattributed), "%"},
    };
    if (!opt.spans_out.empty()) {
      if (!write_spans(opt.spans_out)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     opt.spans_out.c_str());
        return 1;
      }
      std::printf("spans written: %s (%zu spans)\n", opt.spans_out.c_str(),
                  g_spans.spans.size());
    }
  }

  const long long steal1 = steal_ticks();
  std::printf("host_end: loadavg=\"%s\" steal_ticks=%lld passes=%zu "
              "wall_median_s=%.6f cpu_median_s=%.6f setup_median_s=%.6f\n",
              load_average().c_str(),
              steal0 >= 0 && steal1 >= 0 ? steal1 - steal0 : -1LL,
              passes.size(), median(wall_all), median(cpu_all),
              median(setup_s));
  std::printf("pass_wall_s:");
  for (double w : wall_all) std::printf(" %.4f", w);
  std::printf("\n");
  for (const Metric& m : metrics)
    std::printf("metric: %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%s\n", render_result(correct, attempted, failed, metrics).c_str());
  return 0;
}
