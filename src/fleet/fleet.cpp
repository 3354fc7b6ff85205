#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "apps/apps.hpp"
#include "core/engine.hpp"
#include "fleet/work_steal.hpp"
#include "harness/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace fc::fleet {

namespace {
/// JSON string escaping for interpolated fields (app names flow in from
/// external config; a quote or backslash must not produce invalid JSON for
/// the fctrace/bench consumers).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

void put_u32(std::vector<u8>& out, u32 v) {
  out.push_back(static_cast<u8>(v));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 24));
}
bool get_u32(const std::vector<u8>& in, std::size_t& at, u32* v) {
  if (at + 4 > in.size()) return false;
  *v = static_cast<u32>(in[at]) | (static_cast<u32>(in[at + 1]) << 8) |
       (static_cast<u32>(in[at + 2]) << 16) |
       (static_cast<u32>(in[at + 3]) << 24);
  at += 4;
  return true;
}
}  // namespace

u64 FleetReport::total_instructions() const {
  u64 total = 0;
  for (const VmResult& vm : vms) total += vm.instructions;
  return total;
}

u64 FleetReport::resident_frames() const {
  u64 total = shared_store_pages;
  for (const VmResult& vm : vms) total += vm.private_frames;
  return total;
}

std::string FleetReport::to_json() const {
  // Deterministic: depends only on per-VM simulation results (VM-id order),
  // never on worker count or interleaving. No wall-clock fields.
  std::ostringstream out;
  out << "{\"fleet\":{\"vms\":" << vms.size()
      << ",\"shared_store_pages\":" << shared_store_pages
      << ",\"resident_frames\":" << resident_frames()
      << ",\"total_instructions\":" << total_instructions() << "},\"per_vm\":[";
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const VmResult& vm = vms[i];
    if (i != 0) out << ",";
    out << "{\"vm\":" << vm.vm << ",\"app\":\"" << json_escape(vm.app) << "\""
        << ",\"instructions\":" << vm.instructions
        << ",\"cycles\":" << vm.cycles << ",\"recoveries\":" << vm.recoveries
        << ",\"view_switches\":" << vm.view_switches
        << ",\"private_frames\":" << vm.private_frames
        << ",\"total_frames\":" << vm.total_frames
        << ",\"fault\":" << (vm.fault ? "true" : "false")
        << ",\"trace_bytes\":" << vm.trace.size()
        << ",\"metrics\":" << (vm.metrics_json.empty() ? "{}" : vm.metrics_json)
        << "}";
  }
  out << "]}";
  return out.str();
}

std::vector<u8> FleetReport::merged_trace() const {
  bool any = false;
  for (const VmResult& vm : vms) any = any || !vm.trace.empty();
  if (!any) return {};
  std::vector<u8> out;
  out.push_back('F');
  out.push_back('C');
  out.push_back('F');
  out.push_back('L');
  put_u32(out, 1);  // version
  put_u32(out, static_cast<u32>(vms.size()));
  for (const VmResult& vm : vms) {
    put_u32(out, vm.vm);
    put_u32(out, static_cast<u32>(vm.trace.size()));
    out.insert(out.end(), vm.trace.begin(), vm.trace.end());
  }
  return out;
}

obs::SampleProfile FleetReport::merged_profile() const {
  obs::SampleProfile merged;
  for (const VmResult& vm : vms) merged.merge(vm.profile);
  return merged;
}

obs::Histogram FleetReport::merged_switch_cost() const {
  obs::Histogram merged;
  for (const VmResult& vm : vms) merged.merge(vm.switch_cost);
  return merged;
}

std::string FleetReport::timeline_json() const {
  std::vector<const obs::TimeSeries*> series;
  series.reserve(vms.size());
  for (const VmResult& vm : vms) series.push_back(&vm.timeline);
  obs::TimelineRollup rollup = obs::TimelineRollup::build(series);
  obs::Histogram sc = merged_switch_cost();
  std::ostringstream out;
  out << "{\"vms\":" << vms.size() << ",\"switch_cost\":{\"count\":"
      << sc.count << ",\"p50\":" << sc.p50() << ",\"p90\":" << sc.p90()
      << ",\"p99\":" << sc.p99() << ",\"max\":" << (sc.count ? sc.max : 0)
      << "},\"timeline\":" << rollup.to_json() << "}";
  return out.str();
}

bool parse_fleet_trace(const std::vector<u8>& bytes,
                       std::vector<std::pair<u32, std::vector<u8>>>* out) {
  if (!is_fleet_trace(bytes)) return false;
  std::size_t at = 4;
  u32 version = 0;
  u32 count = 0;
  if (!get_u32(bytes, at, &version) || version != 1) return false;
  if (!get_u32(bytes, at, &count)) return false;
  out->clear();
  for (u32 i = 0; i < count; ++i) {
    u32 vm = 0;
    u32 len = 0;
    if (!get_u32(bytes, at, &vm) || !get_u32(bytes, at, &len)) return false;
    if (at + len > bytes.size()) return false;
    out->emplace_back(vm, std::vector<u8>(bytes.begin() + at,
                                          bytes.begin() + at + len));
    at += len;
  }
  return at == bytes.size();
}

FleetRunner::FleetRunner(const core::SharedImage& image, FleetOptions options)
    : image_(&image), options_(std::move(options)) {
  FC_CHECK(image_->store.frozen(), << "fleet image must be finalized");
  FC_CHECK(!image_->views.empty(), << "fleet image carries no views");
}

namespace {
/// Fences off the calling thread's recorder for the duration of a VM run.
/// With jobs<=1 the VM executes on the *caller's* thread: if the caller has
/// its own capture in flight (fctrace, a test), the VM's events must neither
/// bleed into that ring nor leave the recorder's clock pointing at the VM's
/// (destroyed) vCPU afterwards. Suspends an active capture on entry and
/// restores the enabled flag, clock and cycle rate on exit; when the fleet
/// itself captures (capture_traces) the ring's events are repurposed for the
/// VM, but the caller's recorder configuration still comes back intact.
class RecorderQuarantine {
 public:
  RecorderQuarantine()
      : rec_(obs::recorder()),
        was_capturing_(rec_.capturing()),
        clock_(rec_.clock()),
        cycles_per_second_(rec_.cycles_per_second()),
        capacity_(rec_.capacity()) {
    if (was_capturing_) rec_.stop();
  }
  ~RecorderQuarantine() {
    if (rec_.capacity() != capacity_) rec_.set_capacity(capacity_);
    rec_.set_clock(clock_);
    rec_.set_cycles_per_second(cycles_per_second_);
    if (was_capturing_) rec_.resume();
  }
  RecorderQuarantine(const RecorderQuarantine&) = delete;
  RecorderQuarantine& operator=(const RecorderQuarantine&) = delete;

 private:
  obs::Recorder& rec_;
  bool was_capturing_;
  const Cycles* clock_;
  u64 cycles_per_second_;
  u32 capacity_;
};
}  // namespace

VmResult FleetRunner::run_one_vm(u32 vm_id) {
  const std::vector<std::string>& apps = options_.apps;
  std::string app =
      options_.workload
          ? options_.workload_app
          : (apps.empty()
                 ? image_->views[vm_id % image_->views.size()].config.app_name
                 : apps[vm_id % apps.size()]);
  FC_CHECK(!app.empty(), << "fleet workload hook requires workload_app");

  VmResult result;
  result.vm = vm_id;
  result.app = app;

  // Fence the caller's recorder off for the whole VM lifetime (construction
  // emits events too); destroyed last, after the VM stack is gone.
  RecorderQuarantine quarantine;

  // Per-VM isolation of the thread-local registries: a VM's exported
  // metrics must not depend on what ran earlier on this worker (jobs=1 runs
  // every VM on one thread; jobs=N spreads them).
  obs::metrics().reset();

  // This worker owns the whole VM stack; the shared image is only ever read.
  std::unique_ptr<harness::GuestSystem> sys;
  if (options_.share_image) {
    sys = std::make_unique<harness::GuestSystem>(options_.os_config, *image_);
  } else {
    sys = std::make_unique<harness::GuestSystem>(
        options_.os_config, harness::GuestSystem::FreshBoot{});
  }
  core::FaceChangeEngine engine(sys->hv(), sys->os().kernel());
  engine.enable();
  if (options_.capture_telemetry) {
    core::FaceChangeEngine::TelemetryOptions topt;
    topt.sample_period = options_.sample_period;
    topt.timeline_interval = options_.timeline_interval;
    os::OsRuntime* os_runtime = &sys->os();
    topt.queue_depth = [os_runtime] {
      return static_cast<u64>(os_runtime->events().size());
    };
    topt.io_events = [os_runtime] {
      const io::IoPlane::Stats& s = os_runtime->io_plane()->stats();
      return s.nic_delivered + s.blk_completions;
    };
    topt.io_ring_depth = [os_runtime] {
      return os_runtime->io_plane()->in_flight();
    };
    engine.attach_telemetry(std::move(topt));
  }

  u32 view_id = 0;
  if (options_.share_image) {
    engine.adopt_shared_views(*image_);
  } else {
    // Baseline: build every view privately (the pre-SharedImage world).
    for (const core::SharedView& sv : image_->views)
      engine.load_view(sv.config);
    if (!image_->audit.empty()) engine.install_static_audit(image_->audit);
  }
  for (u32 i = 0; i < image_->views.size(); ++i) {
    if (image_->views[i].config.app_name == app) view_id = i + 1;
  }
  FC_CHECK(view_id != 0, << "fleet app " << app << " has no view in image");
  engine.bind(app, view_id);

  obs::Recorder& rec = obs::recorder();
  if (options_.capture_traces) {
    rec.set_capacity(options_.trace_capacity);
    rec.start();
  }

  const u32 iterations =
      options_.iteration_mix.empty()
          ? options_.iterations
          : options_.iteration_mix[vm_id % options_.iteration_mix.size()];
  if (options_.workload) {
    options_.workload(*sys, engine, vm_id);
  } else {
    apps::AppScenario scenario = apps::make_app(app, iterations);
    u32 pid = sys->os().spawn(app, scenario.model);
    scenario.install_environment(sys->os());
    hv::RunOutcome outcome = sys->run_until_exit(pid, options_.run_budget);
    result.fault = outcome == hv::RunOutcome::kGuestFault;
  }

  if (options_.capture_traces) {
    rec.stop();
    result.trace = rec.serialize();
    rec.clear();
  }

  result.instructions = sys->vcpu().instructions_retired();
  result.cycles = sys->vcpu().cycles();
  result.recoveries = engine.recovery_stats().recoveries;
  result.view_switches = engine.stats().view_switches();
  const mem::HostMemory& host = sys->hv().machine().host();
  result.private_frames = host.private_frame_count();
  result.total_frames = host.frame_count();
  // Surface the IO data-plane counters through the thread-local registry so
  // they ride along in metrics_json (and hence the fleet report).
  sys->os().io_plane()->export_metrics(obs::metrics());
  result.metrics_json = engine.metrics_json();
  if (options_.capture_telemetry) {
    // Copy the captures out before the engine (and the thread-local
    // registry's next reset) go away; the report slot owns them afterwards.
    result.profile = engine.profile();
    result.timeline = engine.timeline();
    const obs::Histogram* hist =
        obs::metrics().find_histogram("engine.switch_cost_cycles");
    if (hist != nullptr) result.switch_cost = *hist;
  }
  return result;
}

u32 resolved_workers(u32 vms, u32 jobs) {
  return std::min(std::max(jobs == 0 ? vms : jobs, 1u), std::max(vms, 1u));
}

std::string fleet_shape_error(u32 vms, u32 jobs) {
  if (vms < 1 || vms > kMaxVms)
    return "--vms " + std::to_string(vms) + " is outside [1, " +
           std::to_string(kMaxVms) + "]";
  const u32 workers = resolved_workers(vms, jobs);
  if (workers > kMaxWorkers)
    return "--vms " + std::to_string(vms) + " --jobs " + std::to_string(jobs) +
           " starts " + std::to_string(workers) + " workers, over the cap of " +
           std::to_string(kMaxWorkers);
  return {};
}

FleetReport FleetRunner::run() {
  const u32 vms = options_.vms;
  const u32 jobs = resolved_workers(vms, options_.jobs);

  FleetReport report;
  report.vms.resize(vms);
  report.shared_store_pages =
      options_.share_image ? image_->store.page_count() : 0;

  const auto start = std::chrono::steady_clock::now();
  WorkStealingQueues queue(jobs, vms);
  // No result-sink lock: report.vms is pre-sized and each VM id is claimed
  // by exactly one worker, so workers move results into disjoint slots; the
  // pool join below is the happens-before edge that publishes them to the
  // caller (the TSan tier keeps this honest).
  auto worker = [&](u32 self) {
    for (u32 vm = 0; queue.next(self, &vm);) report.vms[vm] = run_one_vm(vm);
  };
  if (jobs <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (u32 j = 0; j < jobs; ++j) pool.emplace_back(worker, j);
    for (std::thread& t : pool) t.join();
  }
  report.steals = queue.stolen();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace fc::fleet
