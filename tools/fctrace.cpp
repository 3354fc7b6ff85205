// fctrace — flight-recorder inspection CLI.
//
//   fctrace record [-n ITER] [--apps a,b,..] [--ring N] [--budget CYCLES]
//                  [-o FILE] [--chrome FILE] [--metrics FILE] [--vms N]
//                  [--jobs N]
//       Run the multi-app enforcement scenario (default: all 12 modelled
//       applications concurrently under their own views) with the flight
//       recorder on; write the binary event stream (default: trace.fctrace).
//       With --vms N, run an N-guest COW fleet instead and write the merged
//       per-VM container (FCFL: one FCTR stream per VM, in VM-id order).
//   fctrace dump FILE [--kind NAME] [--view N] [--vm N] [--limit N]
//       Print events, optionally filtered by kind or view id. FCFL
//       containers dump every VM stream (or just --vm N).
//   fctrace aggregate FILE
//       Per-kind event counts and cycle totals; for FCFL containers, adds a
//       per-VM breakdown column and a per-VM summary table. Recordings that
//       carry prof_sample events additionally get a per-view cycle-share
//       table (weights summed from the sampling profiler's events).
//   fctrace flame [-n ITER] [--apps a,b,..] [--budget CYCLES]
//                 [--period CYCLES] [-o FILE] [--json FILE] [--top N]
//       Run the enforcement scenario with the deterministic sampling
//       profiler attached; write collapsed-stack lines (flamegraph.pl /
//       speedscope format) and print the top buckets by cycle weight.
//       Cycle-driven sampling: the outputs are byte-identical across runs.
//   fctrace timeline [--vms N] [--jobs N] [-n ITER] [--apps a,b,..]
//                    [--budget CYCLES] [--period CYCLES]
//                    [--interval CYCLES] [-o FILE] [--column NAME]
//       Run a COW fleet with the telemetry plane attached to every VM;
//       write the fleet timeline rollup (per-interval p50/p99-across-VMs
//       for every metric column, plus merged switch-cost percentiles) as
//       JSON and render one column as a table. Byte-identical for any
//       --jobs value.
//   fctrace chrome FILE [-o OUT.json] [--vm N]
//       Convert a recording to Chrome trace_event JSON (Perfetto-loadable).
//       FCFL containers need --vm to select one stream.
//   fctrace diff A B
//       Byte-level and event-level comparison of two recordings. For two
//       FCFL containers, compares stream by stream in VM-id order and names
//       the first VM that differs, then its first divergent event. Exits
//       non-zero on any difference.
//   fctrace selftest
//       Record the same scenario twice in-process and verify the two
//       serialized streams are byte-identical (the determinism contract),
//       then check that `diff` pinpoints an event changed in one VM of an
//       FCFL container. Wired into ctest as `trace_determinism`.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"

using namespace fc;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fctrace <command> [args]\n"
      "  record [-n iterations] [--apps a,b,..] [--ring events]\n"
      "         [--budget cycles] [-o trace.fctrace] [--chrome out.json]\n"
      "         [--metrics out.json] [--vms n] [--jobs n] [--period cycles]\n"
      "  dump <trace.fctrace> [--kind name] [--view id] [--vm id] [--limit n]\n"
      "  aggregate <trace.fctrace>\n"
      "  flame [-n iterations] [--apps a,b,..] [--budget cycles]\n"
      "        [--period cycles] [-o flame.collapsed] [--json out.json]\n"
      "        [--top n]\n"
      "  timeline [--vms n] [--jobs n] [-n iterations] [--apps a,b,..]\n"
      "           [--budget cycles] [--period cycles] [--interval cycles]\n"
      "           [-o timeline.json] [--column name]\n"
      "  chrome <trace.fctrace> [-o out.json] [--vm id]\n"
      "  diff <a.fctrace|a.fcfl> <b.fctrace|b.fcfl>\n"
      "  selftest\n"
      "flags: --log-level LEVEL (or FC_LOG_LEVEL env)\n");
  std::exit(2);
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fctrace: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::vector<u8>(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "fctrace: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), size);
}

void parse_or_die(const std::vector<u8>& bytes, obs::TraceHeader* header,
                  std::vector<obs::TraceEvent>* events) {
  if (!obs::parse_trace(bytes, header, events)) {
    std::fprintf(stderr, "fctrace: not a valid FCTR stream\n");
    std::exit(1);
  }
}

struct RecordOptions {
  u32 iterations = 4;
  u32 ring = obs::Recorder::kDefaultCapacity;
  Cycles budget = 3'000'000'000ull;
  std::vector<std::string> apps;  // empty = all
  std::string out = "trace.fctrace";
  std::string chrome_out;
  std::string metrics_out;
  u32 vms = 0;   // > 0: record a COW fleet, write an FCFL container
  u32 jobs = 1;  // fleet worker threads
  /// Sampling-profiler period for the recorded run; 0 detaches the
  /// telemetry plane. `record` defaults coarse (64 Ki cycles) so
  /// prof_sample events season the stream without evicting the ring;
  /// `flame` overrides to the engine default for real attribution.
  Cycles sample_period = 65536;
  Cycles timeline_interval = 0;  // != 0: also capture time-series rows
};

/// Run the enforcement scenario with the recorder capturing and return the
/// serialized stream. Profiling happens *before* capture starts, so the
/// stream contains exactly the enforcement run — which is deterministic,
/// making the result bit-reproducible.
std::vector<u8> record_scenario(const RecordOptions& options,
                                std::string* report,
                                obs::SampleProfile* profile = nullptr,
                                obs::TimeSeries* timeline = nullptr) {
  std::vector<std::string> apps = options.apps;
  if (apps.empty()) apps = apps::all_app_names();

  // Memoized profiling phase (never captured).
  harness::profile_all_apps();

  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  if (options.sample_period != 0) {
    core::FaceChangeEngine::TelemetryOptions topt;
    topt.sample_period = options.sample_period;
    topt.timeline_interval = options.timeline_interval;
    topt.queue_depth = [&sys] {
      return static_cast<u64>(sys.os().events().size());
    };
    engine.attach_telemetry(topt);
  }

  obs::metrics().reset();
  obs::recorder().set_capacity(options.ring);
  obs::recorder().start();

  std::vector<u32> pids;
  for (const std::string& app : apps) {
    const core::KernelViewConfig& cfg = harness::profile_of(app);
    engine.bind(app, engine.load_view(cfg));
    apps::AppScenario scenario = apps::make_app(app, options.iterations);
    pids.push_back(sys.os().spawn(app, scenario.model));
    scenario.install_environment(sys.os());
  }

  const Cycles end = sys.vcpu().cycles() + options.budget;
  sys.hv().run([&] {
    if (sys.vcpu().cycles() >= end) return true;
    for (u32 pid : pids)
      if (!sys.os().task_zombie_or_dead(pid)) return false;
    return true;
  });

  obs::recorder().stop();
  obs::metrics().gauge_set("os.event_queue_max_depth",
                           sys.os().events().max_depth());
  if (report != nullptr) *report = engine.metrics_json();
  if (profile != nullptr && engine.telemetry_attached())
    *profile = engine.profile();
  if (timeline != nullptr && engine.telemetry_attached())
    *timeline = engine.timeline();
  return obs::recorder().serialize();
}

int cmd_record_fleet(const RecordOptions& options) {
  harness::SharedImageOptions img_options;
  img_options.apps = options.apps;
  auto image = harness::build_shared_image(img_options);

  fleet::FleetOptions fleet_options;
  fleet_options.vms = options.vms;
  fleet_options.jobs = options.jobs;
  fleet_options.iterations = options.iterations;
  fleet_options.apps = options.apps;
  fleet_options.run_budget = options.budget;
  fleet_options.capture_traces = true;
  fleet_options.trace_capacity = options.ring;
  fleet_options.capture_telemetry = options.sample_period != 0;
  fleet_options.sample_period = options.sample_period;
  fleet_options.timeline_interval = options.timeline_interval;
  fleet::FleetRunner runner(*image, fleet_options);
  fleet::FleetReport report = runner.run();

  for (const fleet::VmResult& vm : report.vms)
    std::printf("vm %u (%s): %zu trace bytes, %llu insns%s\n", vm.vm,
                vm.app.c_str(), vm.trace.size(),
                static_cast<unsigned long long>(vm.instructions),
                vm.fault ? " [FAULT]" : "");
  std::vector<u8> merged = report.merged_trace();
  write_file(options.out, merged.data(), merged.size());
  if (!options.metrics_out.empty()) {
    std::string json = report.to_json();
    write_file(options.metrics_out, json.data(), json.size());
  }
  if (!options.chrome_out.empty())
    std::fprintf(stderr, "fctrace: --chrome is per-stream; run "
                         "`fctrace chrome %s --vm N` instead\n",
                 options.out.c_str());
  return 0;
}

int cmd_record(const RecordOptions& options) {
  if (options.vms > 0) return cmd_record_fleet(options);
  std::string metrics_json;
  std::vector<u8> bytes = record_scenario(options, &metrics_json);
  std::printf("recorded %llu events (%llu emitted, %llu dropped by ring)\n",
              static_cast<unsigned long long>(obs::recorder().size()),
              static_cast<unsigned long long>(obs::recorder().total_emitted()),
              static_cast<unsigned long long>(obs::recorder().dropped()));
  write_file(options.out, bytes.data(), bytes.size());
  if (!options.chrome_out.empty()) {
    std::string json = obs::chrome_trace_json(obs::recorder());
    write_file(options.chrome_out, json.data(), json.size());
  }
  if (!options.metrics_out.empty())
    write_file(options.metrics_out, metrics_json.data(), metrics_json.size());
  return 0;
}

/// FCFL containers: the per-VM streams, parsed. Returns false (untouched
/// out) when `raw` is a plain FCTR stream.
bool parse_fleet_or_die(const std::vector<u8>& raw,
                        std::vector<std::pair<u32, std::vector<u8>>>* out) {
  if (!fleet::is_fleet_trace(raw)) return false;
  if (!fleet::parse_fleet_trace(raw, out)) {
    std::fprintf(stderr, "fctrace: corrupt FCFL container\n");
    std::exit(1);
  }
  return true;
}

int cmd_dump(const std::string& path, const std::string& kind_filter,
             int view_filter, int vm_filter, u64 limit) {
  std::vector<u8> raw = read_file(path);
  std::vector<std::pair<u32, std::vector<u8>>> streams;
  if (parse_fleet_or_die(raw, &streams)) {
    std::printf("# FCFL container: %zu vm streams\n", streams.size());
  } else {
    streams.emplace_back(0, std::move(raw));
    vm_filter = -1;  // plain stream: no vm scoping
  }
  u64 shown = 0;
  for (const auto& [vm, bytes] : streams) {
    if (vm_filter >= 0 && vm != static_cast<u32>(vm_filter)) continue;
    obs::TraceHeader header;
    std::vector<obs::TraceEvent> events;
    parse_or_die(bytes, &header, &events);
    std::printf("# vm %u: %u events (%llu emitted), %llu cycles/sec\n", vm,
                header.event_count,
                static_cast<unsigned long long>(header.total_emitted),
                static_cast<unsigned long long>(header.cycles_per_second));
    for (const obs::TraceEvent& ev : events) {
      if (!kind_filter.empty() && kind_filter != obs::kind_name(ev.kind))
        continue;
      if (view_filter >= 0 && ev.view != static_cast<u16>(view_filter))
        continue;
      std::printf("%s\n", obs::render_event(ev).c_str());
      if (++shown == limit) return 0;
    }
  }
  return 0;
}

int cmd_aggregate(const std::string& path) {
  std::vector<u8> raw = read_file(path);
  std::vector<std::pair<u32, std::vector<u8>>> streams;
  bool is_fleet = parse_fleet_or_die(raw, &streams);
  if (!is_fleet) streams.emplace_back(0, std::move(raw));

  struct Agg {
    u64 count = 0;
    u64 cycles = 0;  // summed arg3 (the sliced kinds charge cycles there)
    std::map<u32, u64> per_vm;  // vm id → count (fleet containers)
  };
  std::map<std::string, Agg> by_kind;
  // view id → per-tier sample weight (interp/block), from the sampling
  // profiler's prof_sample events (weight = arg1 periods).
  std::map<u16, std::array<u64, 2>> view_samples;
  u64 sample_total = 0;
  u64 total_events = 0;
  u64 total_dropped = 0;
  for (const auto& [vm, bytes] : streams) {
    obs::TraceHeader header;
    std::vector<obs::TraceEvent> events;
    parse_or_die(bytes, &header, &events);
    total_events += header.event_count;
    total_dropped += header.total_emitted - header.event_count;
    for (const obs::TraceEvent& ev : events) {
      Agg& agg = by_kind[obs::kind_name(ev.kind)];
      ++agg.count;
      ++agg.per_vm[vm];
      if (ev.kind == obs::EventKind::kViewSwitch ||
          ev.kind == obs::EventKind::kRecovery)
        agg.cycles += ev.arg3;
      if (ev.kind == obs::EventKind::kProfSample) {
        u8 tier = ev.flags < 2 ? static_cast<u8>(ev.flags) : u8{0};
        view_samples[ev.view][tier] += ev.arg1;
        sample_total += ev.arg1;
      }
    }
    if (is_fleet) {
      Cycles span =
          events.empty() ? 0 : events.back().when - events.front().when;
      std::printf("vm %-3u %8u events spanning %llu cycles\n", vm,
                  header.event_count, static_cast<unsigned long long>(span));
    }
  }
  std::printf("%llu events total (%llu dropped by rings)\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_dropped));
  std::printf("%-20s %10s %14s%s\n", "kind", "count", "cycles",
              is_fleet ? "  per-vm" : "");
  for (const auto& [kind, agg] : by_kind) {
    std::printf("%-20s %10llu %14llu", kind.c_str(),
                static_cast<unsigned long long>(agg.count),
                static_cast<unsigned long long>(agg.cycles));
    if (is_fleet) {
      std::printf("  ");
      bool first = true;
      for (const auto& [vm, bytes] : streams) {
        auto it = agg.per_vm.find(vm);
        std::printf("%s%llu", first ? "" : "/",
                    static_cast<unsigned long long>(
                        it == agg.per_vm.end() ? 0 : it->second));
        first = false;
      }
    }
    std::printf("\n");
  }
  // Per-view cycle share from the sampling profiler's events (only present
  // when the recording ran with telemetry attached). Shares are integer
  // basis points of the total sample weight — deterministic output.
  if (sample_total != 0) {
    std::printf("view cycle share (%llu sample periods):\n",
                static_cast<unsigned long long>(sample_total));
    std::printf("%-8s %10s %10s %10s  %7s\n", "view", "interp", "block",
                "total", "share");
    for (const auto& [view, tiers] : view_samples) {
      u64 row = tiers[0] + tiers[1];
      u64 bp = row * 10000 / sample_total;
      std::printf("%-8u %10llu %10llu %10llu  %3llu.%02llu%%\n", view,
                  static_cast<unsigned long long>(tiers[0]),
                  static_cast<unsigned long long>(tiers[1]),
                  static_cast<unsigned long long>(row),
                  static_cast<unsigned long long>(bp / 100),
                  static_cast<unsigned long long>(bp % 100));
    }
  }
  return 0;
}

int cmd_flame(RecordOptions options, const std::string& json_out,
              std::size_t top) {
  options.timeline_interval = 0;  // profiler only
  if (options.sample_period == 0) {
    std::fprintf(stderr, "fctrace: flame needs a non-zero --period\n");
    return 2;
  }
  obs::SampleProfile profile;
  record_scenario(options, nullptr, &profile, nullptr);
  if (profile.total_weight() == 0) {
    std::fprintf(stderr, "fctrace: run too short for period %llu — no "
                         "samples\n",
                 static_cast<unsigned long long>(options.sample_period));
    return 1;
  }
  std::string collapsed = profile.collapsed();
  write_file(options.out, collapsed.data(), collapsed.size());
  if (!json_out.empty()) {
    std::string json = profile.to_json();
    write_file(json_out, json.data(), json.size());
  }
  std::printf("%llu sample periods x %llu cycles\n%s",
              static_cast<unsigned long long>(profile.total_weight()),
              static_cast<unsigned long long>(profile.period()),
              profile.render_top(top).c_str());
  return 0;
}

struct TimelineOptions {
  u32 vms = 8;
  u32 jobs = 1;
  u32 iterations = 4;
  Cycles budget = 300'000'000;
  std::vector<std::string> apps;
  Cycles sample_period = core::FaceChangeEngine::kDefaultSamplePeriod;
  Cycles interval = core::FaceChangeEngine::kDefaultTimelineInterval;
  std::string out = "timeline.json";
  std::string column = "instructions";
};

int cmd_timeline(const TimelineOptions& options) {
  if (options.sample_period == 0 || options.interval == 0) {
    std::fprintf(stderr,
                 "fctrace: timeline needs non-zero --period/--interval\n");
    return 2;
  }
  harness::SharedImageOptions img_options;
  img_options.apps = options.apps;
  auto image = harness::build_shared_image(img_options);

  fleet::FleetOptions fleet_options;
  fleet_options.vms = options.vms;
  fleet_options.jobs = options.jobs;
  fleet_options.iterations = options.iterations;
  fleet_options.apps = options.apps;
  fleet_options.run_budget = options.budget;
  fleet_options.capture_telemetry = true;
  fleet_options.sample_period = options.sample_period;
  fleet_options.timeline_interval = options.interval;
  fleet::FleetRunner runner(*image, fleet_options);
  fleet::FleetReport report = runner.run();

  std::string json = report.timeline_json();
  write_file(options.out, json.data(), json.size());

  obs::Histogram sc = report.merged_switch_cost();
  std::printf("%zu vms, %llu instructions; switch cost p50/p90/p99 = "
              "%llu/%llu/%llu cycles (%llu switches)\n",
              report.vms.size(),
              static_cast<unsigned long long>(report.total_instructions()),
              static_cast<unsigned long long>(sc.p50()),
              static_cast<unsigned long long>(sc.p90()),
              static_cast<unsigned long long>(sc.p99()),
              static_cast<unsigned long long>(sc.count));
  std::vector<const obs::TimeSeries*> series;
  for (const fleet::VmResult& vm : report.vms) series.push_back(&vm.timeline);
  obs::TimelineRollup rollup = obs::TimelineRollup::build(series);
  std::string table = rollup.render_column(options.column, 40);
  if (table.empty())
    std::fprintf(stderr, "fctrace: unknown column '%s' (see %s)\n",
                 options.column.c_str(), options.out.c_str());
  else
    std::printf("%s", table.c_str());
  std::printf("fleet cycle attribution (top 10):\n%s",
              report.merged_profile().render_top(10).c_str());
  return 0;
}

int cmd_chrome(const std::string& path, std::string out_path, int vm_filter) {
  std::vector<u8> raw = read_file(path);
  std::vector<std::pair<u32, std::vector<u8>>> streams;
  if (parse_fleet_or_die(raw, &streams)) {
    if (vm_filter < 0) {
      std::fprintf(stderr,
                   "fctrace: FCFL container holds %zu streams; pick one "
                   "with --vm N\n",
                   streams.size());
      return 2;
    }
    bool found = false;
    for (auto& [vm, bytes] : streams) {
      if (vm != static_cast<u32>(vm_filter)) continue;
      raw = std::move(bytes);
      found = true;
      break;
    }
    if (!found) {
      std::fprintf(stderr, "fctrace: no vm %d in container\n", vm_filter);
      return 2;
    }
  }
  obs::TraceHeader header;
  std::vector<obs::TraceEvent> events;
  parse_or_die(raw, &header, &events);
  if (out_path.empty()) out_path = path + ".json";
  std::string json = obs::chrome_trace_json(events, header.cycles_per_second);
  write_file(out_path, json.data(), json.size());
  return 0;
}

/// Where two recordings first differ: the VM (FCFL containers only; -1 for
/// plain streams) and the event index within its stream (-1 when the events
/// agree and only the header or the stream count differs).
struct Divergence {
  i64 vm = -1;
  i64 event = -1;
};

/// Event-level comparison of two FCTR streams whose bytes differ: print the
/// event-count mismatch and the first divergent event. Returns its index,
/// or -1 when every compared event agrees.
i64 report_stream_diff(const std::vector<u8>& raw_a,
                       const std::vector<u8>& raw_b) {
  obs::TraceHeader ha, hb;
  std::vector<obs::TraceEvent> ea, eb;
  parse_or_die(raw_a, &ha, &ea);
  parse_or_die(raw_b, &hb, &eb);
  if (ha.event_count != hb.event_count)
    std::printf("event counts differ: %u vs %u\n", ha.event_count,
                hb.event_count);
  std::size_t n = std::min(ea.size(), eb.size());
  u64 mismatches = 0;
  i64 first = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& a = ea[i];
    const obs::TraceEvent& b = eb[i];
    bool same = a.when == b.when && a.kind == b.kind && a.flags == b.flags &&
                a.view == b.view && a.arg0 == b.arg0 && a.arg1 == b.arg1 &&
                a.arg2 == b.arg2 && a.arg3 == b.arg3;
    if (same) continue;
    if (mismatches == 0) {
      first = static_cast<i64>(i);
      std::printf("first divergence at event %zu:\n", i);
      std::printf("  a: %s\n", obs::render_event(a).c_str());
      std::printf("  b: %s\n", obs::render_event(b).c_str());
    }
    ++mismatches;
  }
  std::printf("%llu of %zu compared events differ\n",
              static_cast<unsigned long long>(mismatches), n);
  return first;
}

/// Compare two recordings (plain FCTR streams or FCFL containers). Returns
/// true when they differ, filling `where` with the first divergence.
bool diff_recordings(std::vector<u8> raw_a, std::vector<u8> raw_b,
                     Divergence* where) {
  if (raw_a == raw_b) {
    std::printf("identical (%zu bytes)\n", raw_a.size());
    return false;
  }
  std::vector<std::pair<u32, std::vector<u8>>> sa, sb;
  const bool fleet_a = parse_fleet_or_die(raw_a, &sa);
  const bool fleet_b = parse_fleet_or_die(raw_b, &sb);
  if (fleet_a != fleet_b) {
    std::printf("one input is an FCFL container, the other a plain stream\n");
    return true;
  }
  if (!fleet_a) {
    where->event = report_stream_diff(raw_a, raw_b);
    return true;
  }
  if (sa.size() != sb.size())
    std::printf("vm stream counts differ: %zu vs %zu\n", sa.size(),
                sb.size());
  const std::size_t n = std::min(sa.size(), sb.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [vm_a, bytes_a] = sa[i];
    const auto& [vm_b, bytes_b] = sb[i];
    if (vm_a == vm_b && bytes_a == bytes_b) continue;
    if (differing++ != 0) continue;
    if (vm_a != vm_b) {
      std::printf("stream %zu: vm ids differ: %u vs %u\n", i, vm_a, vm_b);
      continue;
    }
    where->vm = vm_a;
    std::printf("first differing vm: %u\n", vm_a);
    where->event = report_stream_diff(bytes_a, bytes_b);
  }
  std::printf("%zu of %zu compared vm streams differ\n", differing, n);
  return true;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  Divergence where;
  return diff_recordings(read_file(path_a), read_file(path_b), &where) ? 1
                                                                       : 0;
}

int cmd_selftest() {
#if defined(FC_OBS_DISABLED)
  std::printf("SKIP: built with FC_OBS_DISABLED, emit sites compiled out\n");
  return 77;  // ctest SKIP_RETURN_CODE
#endif
  RecordOptions options;  // all apps, default iterations and budget
  std::vector<u8> first = record_scenario(options, nullptr);
  std::vector<u8> second = record_scenario(options, nullptr);
  std::printf("run 1: %zu bytes, run 2: %zu bytes\n", first.size(),
              second.size());
  if (first.size() <= obs::kSerializedEventSize) {
    std::printf("FAIL: recording is empty\n");
    return 1;
  }
  if (first != second) {
    std::printf("FAIL: streams differ — determinism contract broken\n");
    report_stream_diff(first, second);
    return 1;
  }
  // Round-trip sanity: the stream parses back to the same events.
  obs::TraceHeader header;
  std::vector<obs::TraceEvent> events;
  if (!obs::parse_trace(first, &header, &events) ||
      events.size() != header.event_count) {
    std::printf("FAIL: serialized stream does not parse back\n");
    return 1;
  }
  std::printf("OK: %u events byte-identical across two runs\n",
              header.event_count);

  // `diff` on FCFL files: three VM streams, one event changed in vm 1.
  const u32 changed_event = header.event_count / 2;
  const std::size_t header_bytes =
      first.size() - events.size() * obs::kSerializedEventSize;
  const std::size_t arg0_offset = 12;  // when(8) kind(1) flags(1) view(2)
  fleet::FleetReport fleet_a;
  fleet_a.vms.resize(3);
  for (u32 vm = 0; vm < fleet_a.vms.size(); ++vm) {
    fleet_a.vms[vm].vm = vm;
    fleet_a.vms[vm].trace = first;
  }
  fleet::FleetReport fleet_b = fleet_a;
  fleet_b.vms[1].trace[header_bytes +
                       changed_event * obs::kSerializedEventSize +
                       arg0_offset] ^= 1;
  const std::vector<u8> merged_a = fleet_a.merged_trace();
  const std::vector<u8> merged_b = fleet_b.merged_trace();
  Divergence same_where, where;
  const bool self_differs = diff_recordings(merged_a, merged_a, &same_where);
  const bool differs = diff_recordings(merged_a, merged_b, &where);
  if (self_differs || !differs || where.vm != 1 ||
      where.event != static_cast<i64>(changed_event)) {
    std::printf("FAIL: diff did not pinpoint vm 1, event %u (got vm %lld, "
                "event %lld)\n",
                changed_event, static_cast<long long>(where.vm),
                static_cast<long long>(where.event));
    return 1;
  }
  std::printf("OK: diff names vm 1, event %u in an FCFL container\n",
              changed_event);
  return 0;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string cmd = argv[1];

  // Global flags valid for every subcommand.
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--log-level") && i + 1 < argc) {
      auto level = parse_log_level(argv[++i]);
      if (!level) {
        std::fprintf(stderr, "fctrace: unknown log level '%s'\n", argv[i]);
        return 2;
      }
      set_log_level(*level);
    } else {
      args.emplace_back(argv[i]);
    }
  }
  auto flag_value = [&](const char* flag) -> const std::string* {
    for (std::size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == flag) return &args[i + 1];
    return nullptr;
  };
  // A count flag's value, strictly parsed (exit 2 when rejected), or
  // `fallback` when the flag is absent.
  auto count_flag = [&](const char* flag, u64 fallback, u64 lo,
                        u64 hi) -> u64 {
    const std::string* v = flag_value(flag);
    return v == nullptr ? fallback : count_arg("fctrace", flag, *v, lo, hi);
  };
  // An id filter's value, or -1 (no filter) when the flag is absent.
  auto id_flag = [&](const char* flag, u64 hi) -> int {
    return flag_value(flag) == nullptr
               ? -1
               : static_cast<int>(count_flag(flag, 0, 0, hi));
  };
  constexpr u64 kMaxIterations = 1'000'000;
  constexpr u64 kMaxCycles = 1'000'000'000'000ull;
  auto check_fleet_shape = [](u32 vms, u32 jobs) {
    const std::string shape = fleet::fleet_shape_error(vms, jobs);
    if (shape.empty()) return;
    std::fprintf(stderr, "fctrace: %s\n", shape.c_str());
    std::exit(2);
  };
  auto positional = [&](std::size_t index) -> const std::string* {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].rfind("-", 0) == 0) {
        ++i;  // every flag takes a value
        continue;
      }
      if (seen++ == index) return &args[i];
    }
    return nullptr;
  };

  if (cmd == "record") {
    RecordOptions options;
    options.iterations = static_cast<u32>(
        count_flag("-n", options.iterations, 1, kMaxIterations));
    options.ring =
        static_cast<u32>(count_flag("--ring", options.ring, 1, 1u << 22));
    options.budget = count_flag("--budget", options.budget, 1, kMaxCycles);
    if (const std::string* v = flag_value("--apps"))
      options.apps = split_csv(*v);
    if (const std::string* v = flag_value("-o")) options.out = *v;
    if (const std::string* v = flag_value("--chrome"))
      options.chrome_out = *v;
    if (const std::string* v = flag_value("--metrics"))
      options.metrics_out = *v;
    options.vms = static_cast<u32>(
        count_flag("--vms", options.vms, 0, fleet::kMaxVms));
    options.jobs = static_cast<u32>(
        count_flag("--jobs", options.jobs, 0, fleet::kMaxWorkers));
    if (options.vms > 0) check_fleet_shape(options.vms, options.jobs);
    options.sample_period =
        count_flag("--period", options.sample_period, 0, kMaxCycles);
    return cmd_record(options);
  }
  if (cmd == "flame") {
    RecordOptions options;
    options.out = "flame.collapsed";
    options.sample_period = core::FaceChangeEngine::kDefaultSamplePeriod;
    options.iterations = static_cast<u32>(
        count_flag("-n", options.iterations, 1, kMaxIterations));
    options.budget = count_flag("--budget", options.budget, 1, kMaxCycles);
    if (const std::string* v = flag_value("--apps"))
      options.apps = split_csv(*v);
    if (const std::string* v = flag_value("-o")) options.out = *v;
    options.sample_period =
        count_flag("--period", options.sample_period, 0, kMaxCycles);
    std::string json_out;
    if (const std::string* v = flag_value("--json")) json_out = *v;
    const std::size_t top =
        static_cast<std::size_t>(count_flag("--top", 20, 1, 100'000));
    return cmd_flame(options, json_out, top);
  }
  if (cmd == "timeline") {
    TimelineOptions options;
    options.vms = static_cast<u32>(
        count_flag("--vms", options.vms, 1, fleet::kMaxVms));
    options.jobs = static_cast<u32>(
        count_flag("--jobs", options.jobs, 0, fleet::kMaxWorkers));
    check_fleet_shape(options.vms, options.jobs);
    options.iterations = static_cast<u32>(
        count_flag("-n", options.iterations, 1, kMaxIterations));
    options.budget = count_flag("--budget", options.budget, 1, kMaxCycles);
    if (const std::string* v = flag_value("--apps"))
      options.apps = split_csv(*v);
    options.sample_period =
        count_flag("--period", options.sample_period, 0, kMaxCycles);
    options.interval = count_flag("--interval", options.interval, 0, kMaxCycles);
    if (const std::string* v = flag_value("-o")) options.out = *v;
    if (const std::string* v = flag_value("--column"))
      options.column = *v;
    return cmd_timeline(options);
  }
  if (cmd == "dump") {
    const std::string* path = positional(0);
    if (path == nullptr) usage();
    std::string kind;
    if (const std::string* v = flag_value("--kind")) kind = *v;
    const int view = id_flag("--view", 0xFFFF);
    const int vm = id_flag("--vm", fleet::kMaxVms - 1);
    const u64 limit = count_flag("--limit", ~0ull, 1, ~0ull);
    return cmd_dump(*path, kind, view, vm, limit);
  }
  if (cmd == "aggregate") {
    const std::string* path = positional(0);
    if (path == nullptr) usage();
    return cmd_aggregate(*path);
  }
  if (cmd == "chrome") {
    const std::string* path = positional(0);
    if (path == nullptr) usage();
    const std::string* out = flag_value("-o");
    return cmd_chrome(*path, out != nullptr ? *out : "",
                      id_flag("--vm", fleet::kMaxVms - 1));
  }
  if (cmd == "diff") {
    const std::string* a = positional(0);
    const std::string* b = positional(1);
    if (a == nullptr || b == nullptr) usage();
    return cmd_diff(*a, *b);
  }
  if (cmd == "selftest") return cmd_selftest();
  usage();
}
