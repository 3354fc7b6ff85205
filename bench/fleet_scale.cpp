// Fleet economics: aggregate guest instructions per host second and
// resident host-frame footprint for an N-VM fleet running over one
// copy-on-write SharedImage, against the pre-fleet baseline where every VM
// assembles its own kernel and builds its own views from scratch.
//
// Two axes are measured:
//   compute   aggregate insns/sec for 8 VMs sharing the image (the better of
//             --jobs 1 and --jobs 8) vs 8 VMs at --jobs 1 rebuilding
//             everything per VM — the end-to-end cost an operator pays per
//             additional guest.
//   memory    resident frames (shared store pages + per-VM private frames)
//             for an 8-VM fleet vs a 1-VM fleet. COW holds the marginal
//             cost of a guest to its privately-dirtied pages.
// How the fleet scales with worker threads is hostbench's measurement
// (fleet64's traced `fleet.speedup_1to4`: warmed, repeated, with a spread),
// not this bench's.
//
// Usage: fleet_scale [--smoke] [--determinism-out DIR]
//   --smoke           tiny workload, no thresholds (CI / sanitizer tier)
//   --determinism-out DIR
//                     write the 8-VM report JSON + merged FCFL trace for
//                     jobs 1/4/8 into DIR (fleet-report-jobsJ.json /
//                     fleet-trace-jobsJ.fcfl)
//
// Every run (smoke included) re-asserts the fleet determinism gate: the
// 8-VM report JSON and merged FCFL trace must be byte-identical across
// jobs 1/4/8.
//
// Writes BENCH_fleet.json and exits non-zero (unless --smoke) if the
// shared-vs-rebuild aggregate speedup falls below 3.5x or 8 VMs cost more
// than 1.5x the resident frames of 1 VM. (The speedup gate was 4x before
// the thread-local page arena landed; the arena speeds the rebuild
// baseline's promotions too, so the ratio compressed while both absolute
// numbers improved.)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "harness/harness.hpp"

namespace {

struct Sample {
  double insns_per_sec = 0;
  fc::u64 insns = 0;
  double wall_seconds = 0;
  fc::u64 resident_frames = 0;
};

Sample measure(const fc::core::SharedImage& image,
               const fc::fleet::FleetOptions& options) {
  fc::fleet::FleetRunner runner(image, options);
  fc::fleet::FleetReport report = runner.run();
  Sample s;
  s.insns = report.total_instructions();
  s.wall_seconds = report.wall_seconds;
  s.resident_frames = report.resident_frames();
  if (s.wall_seconds > 0)
    s.insns_per_sec = static_cast<double>(s.insns) / s.wall_seconds;
  for (const fc::fleet::VmResult& vm : report.vms) {
    if (vm.fault) {
      std::fprintf(stderr, "FAULT in vm %u (%s)\n", vm.vm, vm.app.c_str());
      std::exit(1);
    }
  }
  return s;
}

/// Best of two runs: fleet wall times are milliseconds-scale, so one
/// scheduler hiccup would otherwise decide the headline ratios.
Sample measure2(const fc::core::SharedImage& image,
                const fc::fleet::FleetOptions& options) {
  Sample a = measure(image, options);
  Sample b = measure(image, options);
  return b.insns_per_sec > a.insns_per_sec ? b : a;
}

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return out.good();
}

/// Determinism gate: the merged report and FCFL trace must not depend on the
/// worker count or on which worker ran which VM. Returns true when jobs 1/4/8
/// produce byte-identical bytes (and writes them to `out_dir` if set).
bool determinism_gate(const fc::core::SharedImage& image, bool smoke,
                      const std::string& out_dir) {
  fc::fleet::FleetOptions options;
  options.vms = 8;
  options.iterations = smoke ? 1 : 2;
  options.capture_traces = true;
  options.trace_capacity = 1u << 12;
  std::string ref_json;
  std::vector<fc::u8> ref_trace;
  bool ok = true;
  for (fc::u32 jobs : {1u, 4u, 8u}) {
    options.jobs = jobs;
    fc::fleet::FleetRunner runner(image, options);
    fc::fleet::FleetReport report = runner.run();
    std::string json = report.to_json();
    std::vector<fc::u8> trace = report.merged_trace();
    if (!out_dir.empty()) {
      std::string stem = out_dir + "/fleet-report-jobs" + std::to_string(jobs);
      write_file(stem + ".json", json.data(), json.size());
      std::string tstem = out_dir + "/fleet-trace-jobs" + std::to_string(jobs);
      write_file(tstem + ".fcfl", trace.data(), trace.size());
    }
    if (jobs == 1) {
      ref_json = std::move(json);
      ref_trace = std::move(trace);
    } else if (json != ref_json || trace != ref_trace) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: jobs=%u report/trace diverges "
                   "from jobs=1\n",
                   jobs);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fc;
  bool smoke = false;
  std::string determinism_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--determinism-out") == 0 &&
               i + 1 < argc) {
      determinism_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fleet_scale [--smoke] [--determinism-out DIR]\n");
      return 2;
    }
  }
  // Smoke keeps CI latency bounded: small image, one iteration.
  const u32 iterations = smoke ? 1 : 2;

  // Setup outside the timed region: profiles + one template capture. The
  // full run carries all 12 Table I views — the realistic fleet image, and
  // the workload whose per-VM rebuild cost COW sharing deletes.
  harness::SharedImageOptions img_options;
  if (smoke) img_options.apps = {"gzip", "bash"};
  img_options.profile_iterations = smoke ? 4 : 8;
  auto image = harness::build_shared_image(img_options);
  std::printf("Fleet economics — COW shared image vs per-VM rebuild\n");
  std::printf("(shared image: %u store pages, %zu views%s)\n\n",
              image->store.page_count(), image->views.size(),
              smoke ? ", SMOKE" : "");

  fleet::FleetOptions base;
  base.vms = 8;
  base.iterations = iterations;

  fleet::FleetOptions rebuild = base;  // the pre-fleet world
  rebuild.jobs = 1;
  rebuild.share_image = false;

  fleet::FleetOptions shared1 = base;
  shared1.jobs = 1;

  fleet::FleetOptions shared8 = base;
  shared8.jobs = 8;

  Sample s_rebuild = measure2(*image, rebuild);
  Sample s_shared1 = measure2(*image, shared1);
  Sample s_shared8 = measure2(*image, shared8);

  fleet::FleetOptions one_vm = shared1;
  one_vm.vms = 1;
  Sample s_one = measure(*image, one_vm);

  std::printf("%-34s %14s %10s %12s\n", "configuration", "insns/sec",
              "wall (s)", "frames");
  std::printf("%s\n", std::string(74, '-').c_str());
  auto row = [](const char* name, const Sample& s) {
    std::printf("%-34s %14.0f %10.2f %12llu\n", name, s.insns_per_sec,
                s.wall_seconds, (unsigned long long)s.resident_frames);
  };
  row("8 VMs, rebuild per VM, jobs=1", s_rebuild);
  row("8 VMs, shared image,  jobs=1", s_shared1);
  row("8 VMs, shared image,  jobs=8", s_shared8);
  row("1 VM,  shared image", s_one);

  // The fleet runner picks its worker count; credit the best configuration
  // (on a single-core host extra workers only add scheduling overhead, on
  // multi-core hosts jobs=8 wins).
  const double best_shared =
      std::max(s_shared1.insns_per_sec, s_shared8.insns_per_sec);
  const double speedup =
      s_rebuild.insns_per_sec > 0 ? best_shared / s_rebuild.insns_per_sec : 0;
  const double mem_ratio =
      s_one.resident_frames > 0
          ? static_cast<double>(s_shared8.resident_frames) /
                static_cast<double>(s_one.resident_frames)
          : 0;
  std::printf("%s\n", std::string(74, '-').c_str());
  std::printf("aggregate speedup (best shared jobs vs rebuild jobs=1): %.2fx\n",
              speedup);
  std::printf("memory ratio      (8 VMs vs 1 VM resident frames):   %.2fx\n",
              mem_ratio);

  // Determinism gate: scheduling must never cost byte-identical
  // reports/traces across worker counts.
  const bool deterministic = determinism_gate(*image, smoke, determinism_out);
  std::printf("\ndeterminism gate (jobs 1/4/8 report+trace): %s\n",
              deterministic ? "OK" : "FAILED");

  std::ostringstream json;
  json << "{\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"vms\": 8,\n"
       << "  \"iterations\": " << iterations << ",\n"
       << "  \"shared_store_pages\": " << image->store.page_count() << ",\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"rebuild_jobs1_insns_per_sec\": %.0f,\n"
      "  \"shared_jobs1_insns_per_sec\": %.0f,\n"
      "  \"shared_jobs8_insns_per_sec\": %.0f,\n"
      "  \"aggregate_speedup\": %.3f,\n",
      s_rebuild.insns_per_sec, s_shared1.insns_per_sec,
      s_shared8.insns_per_sec, speedup);
  json << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"resident_frames_1vm\": %llu,\n"
      "  \"resident_frames_8vm\": %llu,\n"
      "  \"resident_frames_8vm_rebuild\": %llu,\n"
      "  \"memory_ratio_8v1\": %.3f,\n",
      (unsigned long long)s_one.resident_frames,
      (unsigned long long)s_shared8.resident_frames,
      (unsigned long long)s_rebuild.resident_frames, mem_ratio);
  json << buf;
  json << "  \"deterministic_across_jobs\": "
       << (deterministic ? "true" : "false") << "\n}\n";
  std::ofstream("BENCH_fleet.json") << json.str();

  if (smoke) {
    std::printf("\nsmoke run: thresholds not enforced%s\n",
                deterministic ? "" : " (but the determinism gate FAILED)");
    return deterministic ? 0 : 1;
  }
  const bool speed_ok = speedup >= 3.5;
  const bool mem_ok = mem_ratio > 0 && mem_ratio <= 1.5;
  std::printf("\nthreshold (speedup >= 3.5x):        %s\n",
              speed_ok ? "OK" : "FAILED");
  std::printf("threshold (memory <= 1.5x):         %s\n",
              mem_ok ? "OK" : "FAILED");
  return speed_ok && mem_ok && deterministic ? 0 : 1;
}
