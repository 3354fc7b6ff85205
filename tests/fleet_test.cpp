// Fleet tests: COW frame-sharing semantics (store dedup, same-value write
// suppression, promotion), the shared-image byte-equivalence regression
// (a clone VM rehydrated from a SharedImage is byte-identical to a VM that
// assembled everything from scratch), COW/block-cache isolation across VMs
// (one VM's recovery promotes only its own frames and bumps only its own
// generations), the FCFL merged-trace container round trip, and the fleet
// determinism contract (merged report and trace byte-identical at jobs
// 1/4/8).
#include <gtest/gtest.h>

#include <cstring>

#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "mem/shared_frames.hpp"
#include "obs/trace.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::fleet {
namespace {

/// One small two-app image per process: building it profiles the apps and
/// boots a template, which dominates this suite's runtime.
const core::SharedImage& test_image() {
  static std::unique_ptr<core::SharedImage> image = [] {
    harness::SharedImageOptions options;
    options.apps = {"gzip", "top"};
    options.profile_iterations = 5;
    return harness::build_shared_image(options);
  }();
  return *image;
}

// ---------------------------------------------------------------------------
// COW primitives.
// ---------------------------------------------------------------------------

TEST(SharedFrameStore, DedupsIdenticalPages) {
  mem::SharedFrameStore store;
  std::vector<u8> a(kPageSize, 0xAA);
  std::vector<u8> b(kPageSize, 0xBB);
  u32 ida = store.add_page(a);
  EXPECT_EQ(store.add_page(a), ida);  // identical bytes → same id
  u32 idb = store.add_page(b);
  EXPECT_NE(idb, ida);
  EXPECT_EQ(store.page_count(), 2u);
  store.freeze();
  EXPECT_EQ(std::memcmp(store.page_data(ida), a.data(), kPageSize), 0);
}

TEST(CowHostMemory, SameValueWritesAreSuppressedDivergentWritesPromote) {
  mem::SharedFrameStore store;
  std::vector<u8> page(kPageSize, 0x55);
  u32 id = store.add_page(page);
  store.freeze();

  mem::HostMemory host;
  host.attach_store(&store);
  HostFrame f = host.adopt_shared(id);
  ASSERT_TRUE(host.is_shared(f));

  // Same-value writes leave the frame shared (a clone replaying its boot).
  host.write8(f, 100, 0x55);
  host.write32(f, 200, 0x55555555u);
  EXPECT_TRUE(host.is_shared(f));
  EXPECT_EQ(host.cow_suppressed_writes(), 2u);
  EXPECT_EQ(host.cow_promotions(), 0u);

  // First divergent write promotes; bytes and frame number are preserved.
  host.write8(f, 100, 0x66);
  EXPECT_TRUE(host.is_private(f));
  EXPECT_EQ(host.cow_promotions(), 1u);
  EXPECT_EQ(host.read8(f, 100), 0x66);
  EXPECT_EQ(host.read8(f, 101), 0x55);  // rest of the page copied over
  // The store page itself is untouched.
  EXPECT_EQ(store.page_data(id)[100], 0x55);

  // Zero-backed frames materialize on first non-zero write only.
  HostFrame z = host.alloc_frame();
  EXPECT_TRUE(host.is_zero_backed(z));
  host.write8(z, 0, 0);  // zero into zero: suppressed
  EXPECT_TRUE(host.is_zero_backed(z));
  host.write8(z, 0, 7);
  EXPECT_TRUE(host.is_private(z));
  host.zero_frame(z);
  EXPECT_TRUE(host.is_zero_backed(z));
  EXPECT_EQ(host.read8(z, 0), 0);
}

// ---------------------------------------------------------------------------
// Shared-image rehydration: byte equivalence with a from-scratch build.
// ---------------------------------------------------------------------------

TEST(SharedImage, CloneIsByteIdenticalToFreshBuild) {
  const core::SharedImage& image = test_image();

  harness::GuestSystem fresh({}, harness::GuestSystem::FreshBoot{});
  core::FaceChangeEngine fresh_engine(fresh.hv(), fresh.os().kernel());
  fresh_engine.enable();
  for (const core::SharedView& sv : image.views)
    fresh_engine.load_view(sv.config);

  harness::GuestSystem clone({}, image);
  core::FaceChangeEngine clone_engine(clone.hv(), clone.os().kernel());
  clone_engine.enable();
  clone_engine.adopt_shared_views(image);

  const mem::HostMemory& fh = fresh.hv().machine().host();
  const mem::HostMemory& ch = clone.hv().machine().host();
  ASSERT_EQ(fh.frame_count(), ch.frame_count());
  u32 diverged = 0;
  for (HostFrame f = 0; f < fh.frame_count(); ++f) {
    const mem::HostMemory& cfh = fh;
    const mem::HostMemory& cch = ch;
    if (std::memcmp(cfh.frame(f).data(), cch.frame(f).data(), kPageSize) != 0)
      ++diverged;
  }
  EXPECT_EQ(diverged, 0u);
  // Most of the clone's frames never left the shared store.
  EXPECT_GT(ch.frame_count() - ch.private_frame_count(),
            ch.frame_count() / 2);
}

TEST(SharedImage, CloneRunsAppIdenticallyToFreshBuild) {
  const core::SharedImage& image = test_image();
  auto run = [&](bool shared) {
    std::unique_ptr<harness::GuestSystem> sys;
    if (shared) {
      sys = std::make_unique<harness::GuestSystem>(os::OsConfig{}, image);
    } else {
      sys = std::make_unique<harness::GuestSystem>(
          os::OsConfig{}, harness::GuestSystem::FreshBoot{});
    }
    core::FaceChangeEngine engine(sys->hv(), sys->os().kernel());
    engine.enable();
    if (shared) {
      engine.adopt_shared_views(image);
    } else {
      for (const core::SharedView& sv : image.views)
        engine.load_view(sv.config);
      if (!image.audit.empty()) engine.install_static_audit(image.audit);
    }
    engine.bind("gzip", 1);
    apps::AppScenario scenario = apps::make_app("gzip", 3);
    u32 pid = sys->os().spawn("gzip", scenario.model);
    scenario.install_environment(sys->os());
    EXPECT_NE(sys->run_until_exit(pid, 300'000'000ull),
              hv::RunOutcome::kGuestFault);
    return std::pair<u64, u64>(sys->vcpu().instructions_retired(),
                               engine.recovery_stats().recoveries);
  };
  auto [fresh_insns, fresh_recoveries] = run(false);
  auto [clone_insns, clone_recoveries] = run(true);
  EXPECT_EQ(fresh_insns, clone_insns);
  EXPECT_EQ(fresh_recoveries, clone_recoveries);
  EXPECT_GT(clone_insns, 0u);
}

// ---------------------------------------------------------------------------
// COW ↔ block cache: cross-VM isolation.
// ---------------------------------------------------------------------------

TEST(CowBlockCache, RecoveryInOneVmDoesNotTouchAnotherVmsFramesOrBlocks) {
  const core::SharedImage& image = test_image();

  // `view_app` selects which app's view the process is bound to; binding A
  // to the *other* app's view guarantees UD2 traps → recoveries → writes
  // into COW-shared shadow pages.
  auto make_vm = [&](const std::string& app, const std::string& view_app) {
    struct Vm {
      std::unique_ptr<harness::GuestSystem> sys;
      std::unique_ptr<core::FaceChangeEngine> engine;
      u32 pid = 0;
    };
    Vm vm;
    vm.sys = std::make_unique<harness::GuestSystem>(os::OsConfig{}, image);
    vm.engine = std::make_unique<core::FaceChangeEngine>(
        vm.sys->hv(), vm.sys->os().kernel());
    vm.engine->enable();
    vm.engine->adopt_shared_views(image);
    u32 view_id = 0;
    for (u32 i = 0; i < image.views.size(); ++i)
      if (image.views[i].config.app_name == view_app) view_id = i + 1;
    vm.engine->bind(app, view_id);
    apps::AppScenario scenario = apps::make_app(app, 3);
    vm.pid = vm.sys->os().spawn(app, scenario.model);
    scenario.install_environment(vm.sys->os());
    return vm;
  };

  auto a = make_vm("gzip", "top");
  auto b = make_vm("gzip", "gzip");
  auto control = make_vm("gzip", "gzip");

  // B runs long enough to warm its block cache and touch its views.
  a.sys->hv();  // (A untouched so far)
  b.sys->run_for(2'000'000);
  control.sys->run_for(2'000'000);

  const mem::HostMemory& bh = b.sys->hv().machine().host();
  const u32 frames = bh.frame_count();
  std::vector<u32> b_gen(frames);
  std::vector<u8> b_shared(frames);
  for (HostFrame f = 0; f < frames; ++f) {
    b_gen[f] = b.sys->vcpu().block_cache().frame_generation(f);
    b_shared[f] = bh.is_shared(f) ? 1 : 0;
  }

  // A runs to completion: its recoveries rewrite UD2 shadow pages, which
  // are COW-shared with B.
  ASSERT_NE(a.sys->run_until_exit(a.pid, 300'000'000ull),
            hv::RunOutcome::kGuestFault);
  const mem::HostMemory& ah = a.sys->hv().machine().host();
  EXPECT_GT(a.engine->recovery_stats().recoveries, 0u);
  EXPECT_GT(ah.cow_promotions(), 0u);

  // Every frame A promoted that B still shares: untouched in B — same
  // bytes as the store page, same (zero) block-cache generation delta.
  u32 checked = 0;
  for (HostFrame f = 0; f < frames; ++f) {
    if (!ah.is_private(f) || b_shared[f] == 0) continue;
    ASSERT_TRUE(bh.is_shared(f)) << "frame " << f << " unshared in B";
    EXPECT_EQ(b.sys->vcpu().block_cache().frame_generation(f), b_gen[f])
        << "A's recovery bumped B's generation for frame " << f;
    EXPECT_EQ(std::memcmp(bh.frame(f).data(),
                          image.store.page_data(bh.shared_backing(f)),
                          kPageSize),
              0);
    ++checked;
  }
  EXPECT_GT(checked, 0u);  // the scenario really exercised shared frames

  // B finishes exactly as the control VM that never shared time with A.
  ASSERT_NE(b.sys->run_until_exit(b.pid, 300'000'000ull),
            hv::RunOutcome::kGuestFault);
  ASSERT_NE(control.sys->run_until_exit(control.pid, 300'000'000ull),
            hv::RunOutcome::kGuestFault);
  EXPECT_EQ(b.sys->vcpu().instructions_retired(),
            control.sys->vcpu().instructions_retired());
  EXPECT_EQ(b.engine->recovery_stats().recoveries,
            control.engine->recovery_stats().recoveries);
}

// ---------------------------------------------------------------------------
// FCFL container round trip.
// ---------------------------------------------------------------------------

TEST(FleetTrace, ContainerRoundTrips) {
  FleetReport report;
  report.vms.resize(3);
  report.vms[0].vm = 0;
  report.vms[0].trace = {1, 2, 3, 4};
  report.vms[1].vm = 1;  // empty trace stays representable
  report.vms[2].vm = 2;
  report.vms[2].trace = {9, 8};

  std::vector<u8> merged = report.merged_trace();
  ASSERT_TRUE(is_fleet_trace(merged));
  std::vector<std::pair<u32, std::vector<u8>>> streams;
  ASSERT_TRUE(parse_fleet_trace(merged, &streams));
  ASSERT_EQ(streams.size(), 3u);
  EXPECT_EQ(streams[0].first, 0u);
  EXPECT_EQ(streams[0].second, (std::vector<u8>{1, 2, 3, 4}));
  EXPECT_TRUE(streams[1].second.empty());
  EXPECT_EQ(streams[2].second, (std::vector<u8>{9, 8}));

  // Truncation is detected, not misparsed.
  merged.pop_back();
  EXPECT_FALSE(parse_fleet_trace(merged, &streams));
  EXPECT_FALSE(is_fleet_trace({1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------------

TEST(FleetScheduler, UnevenFleetMatchesSerialRunByteForByte) {
  const core::SharedImage& image = test_image();
  FleetOptions options;
  // 13 VMs of uneven length over 5 workers: the workers finish at different
  // times and claim different numbers of VMs, yet every VM must run exactly
  // once and the report must not depend on who ran what.
  options.vms = 13;
  options.jobs = 5;
  options.iteration_mix = {2, 1, 1};
  FleetReport parallel = FleetRunner(image, options).run();
  ASSERT_EQ(parallel.vms.size(), 13u);
  for (u32 i = 0; i < 13; ++i) {
    EXPECT_EQ(parallel.vms[i].vm, i) << "vm " << i << " never ran";
    EXPECT_GT(parallel.vms[i].instructions, 0u);
  }
  EXPECT_EQ(parallel.steals, 0u);
  options.jobs = 1;
  FleetReport serial = FleetRunner(image, options).run();
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

// ---------------------------------------------------------------------------
// Report JSON hygiene.
// ---------------------------------------------------------------------------

TEST(FleetReport, JsonEscapesAppStrings) {
  FleetReport report;
  report.vms.resize(1);
  report.vms[0].vm = 0;
  report.vms[0].app = "ev\"il\\app\nname";
  std::string json = report.to_json();
  // The raw quote/backslash/newline must not reach the JSON unescaped.
  EXPECT_NE(json.find("\"app\":\"ev\\\"il\\\\app\\nname\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Recorder quarantine: inline VM runs must not leak into the caller's ring.
// ---------------------------------------------------------------------------

TEST(FleetRecorder, CallerRecorderSurvivesInlineVmRuns) {
  const core::SharedImage& image = test_image();
  obs::Recorder& rec = obs::recorder();
  Cycles fake_clock = 42;  // a clock the test owns (never dangles)
  rec.set_clock(&fake_clock);
  rec.set_cycles_per_second(123);
  rec.set_capacity(1u << 8);
  rec.start();
  rec.emit(obs::EventKind::kTaskSpawn, 0, 0, 7, 0, 0, 0);
  const std::size_t events_before = rec.size();
  ASSERT_EQ(events_before, 1u);
  // A histogram already in this thread's metrics registry (the caller's, or
  // one an earlier VM on this worker created) is not the VMs' business.
  obs::metrics().observe("test.caller_histogram", 7);

  // jobs=1 runs both VMs on THIS thread; without the quarantine their boot
  // and runtime events would land in (and overflow) the caller's ring.
  FleetOptions options;
  options.vms = 2;
  options.jobs = 1;
  options.iterations = 1;
  options.capture_traces = false;
  FleetReport report = FleetRunner(image, options).run();
  for (const VmResult& vm : report.vms) {
    EXPECT_GT(vm.instructions, 0u);
    EXPECT_TRUE(vm.trace.empty());
    EXPECT_EQ(vm.metrics_json.find("test.caller_histogram"), std::string::npos)
        << "vm " << vm.vm;
  }
  const obs::Histogram* caller_hist =
      obs::metrics().find_histogram("test.caller_histogram");
  ASSERT_NE(caller_hist, nullptr);  // the caller's registry comes back
  EXPECT_EQ(caller_hist->count, 1u);

  EXPECT_TRUE(rec.capturing());          // capture resumed...
  EXPECT_EQ(rec.size(), events_before);  // ...with no fleet events absorbed
  EXPECT_EQ(rec.clock(), &fake_clock);   // not left at a destroyed vCPU
  EXPECT_EQ(rec.cycles_per_second(), 123u);
  EXPECT_EQ(rec.capacity(), 1u << 8);

  // Still usable afterwards: the next caller event records normally.
  rec.emit(obs::EventKind::kTaskSpawn, 0, 0, 8, 0, 0, 0);
  EXPECT_EQ(rec.size(), events_before + 1);
  EXPECT_EQ(rec.snapshot().back().when, 42u);

  // capture_traces=true repurposes the ring for the VMs but must still hand
  // the caller's configuration (clock, rate, capacity, enablement) back.
  options.capture_traces = true;
  options.trace_capacity = 1u << 12;
  report = FleetRunner(image, options).run();
  for (const VmResult& vm : report.vms) EXPECT_FALSE(vm.trace.empty());
  EXPECT_TRUE(rec.capturing());
  EXPECT_EQ(rec.clock(), &fake_clock);
  EXPECT_EQ(rec.cycles_per_second(), 123u);
  EXPECT_EQ(rec.capacity(), 1u << 8);

  rec.stop();
  rec.clear();
  rec.set_clock(nullptr);
  rec.set_cycles_per_second(100'000'000);
  rec.set_capacity(obs::Recorder::kDefaultCapacity);
}

// ---------------------------------------------------------------------------
// Fleet determinism: jobs must not change the merged report or trace.
// ---------------------------------------------------------------------------

TEST(FleetDeterminism, ReportAndTraceByteIdenticalAcrossJobs) {
  const core::SharedImage& image = test_image();

  auto run = [&](u32 jobs) {
    FleetOptions options;
    options.vms = 8;
    options.jobs = jobs;
    options.iterations = 2;
    options.capture_traces = true;
    options.trace_capacity = 1u << 12;
    FleetRunner runner(image, options);
    FleetReport report = runner.run();
    for (const VmResult& vm : report.vms) {
      EXPECT_FALSE(vm.fault) << "vm " << vm.vm;
      EXPECT_GT(vm.instructions, 0u) << "vm " << vm.vm;
    }
    EXPECT_EQ(report.shared_store_pages, image.store.page_count());
    return std::pair<std::string, std::vector<u8>>(report.to_json(),
                                                   report.merged_trace());
  };

  auto [json1, trace1] = run(1);
  auto [json4, trace4] = run(4);
  auto [json8, trace8] = run(8);

  EXPECT_EQ(json1, json4);
  EXPECT_EQ(json1, json8);
  EXPECT_EQ(trace1, trace4);
  EXPECT_EQ(trace1, trace8);
  EXPECT_FALSE(trace1.empty());
  EXPECT_NE(json1.find("\"vms\":8"), std::string::npos);
}

}  // namespace
}  // namespace fc::fleet
