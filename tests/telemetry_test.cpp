// Telemetry-plane tests: Histogram percentile extraction and merge edge
// cases, SampleProfile symbolization / merge / deterministic exports, the
// vCPU's cycle-driven sample trigger (fires on period boundaries, carries
// multi-period weights across time jumps, never perturbs the instruction
// stream), engine attachment (profile + time series off one trigger), the
// TimelineRollup's exact across-VM percentiles, and the fleet determinism
// contract for the merged telemetry outputs (byte-identical JSON at jobs
// 1/2/4 and across repeated runs).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "vcpu/vcpu.hpp"

namespace fc {
namespace {

// ---------------------------------------------------------------------------
// Histogram percentiles (obs/metrics.hpp).
// ---------------------------------------------------------------------------

TEST(HistogramPercentile, EmptyHistogramReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(HistogramPercentile, SingleBucketClampsToObservedRange) {
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.record(100);
  // Every percentile of a single-valued distribution is that value: the
  // bucket upper bound (127) clamps to the recorded max.
  EXPECT_EQ(h.p50(), 100u);
  EXPECT_EQ(h.p90(), 100u);
  EXPECT_EQ(h.p99(), 100u);
  EXPECT_EQ(h.percentile(100), 100u);
}

TEST(HistogramPercentile, SpreadDistributionIsMonotone) {
  obs::Histogram h;
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  // Nearest-rank p50 of 1..1000 is 500, reported as its bucket upper
  // bound (511); power-of-two buckets bound the error by 2x.
  EXPECT_GE(h.p50(), 500u);
  EXPECT_LE(h.p50(), 1000u);
  // p > 100 clamps rather than reading past the distribution.
  EXPECT_EQ(h.percentile(200), h.percentile(100));
}

TEST(HistogramPercentile, SaturatedTopBucketClampsToObservedRange) {
  obs::Histogram h;
  h.record(~0ull);  // both land in the saturated last bucket (48 buckets)
  h.record(~0ull - 1);
  // The bucket's nominal upper bound (2^47 - 1) undershoots the recorded
  // range, so the answer clamps to the observed min — never a garbage
  // power of two, and never an overflowed zero.
  EXPECT_EQ(h.p50(), ~0ull - 1);
  EXPECT_EQ(h.p99(), ~0ull - 1);
  EXPECT_GE(h.percentile(100), h.percentile(1));
}

TEST(HistogramPercentile, MergePreservesPercentiles) {
  obs::Histogram a, b;
  for (u64 v = 1; v <= 100; ++v) a.record(v);
  for (u64 v = 10'000; v <= 10'100; ++v) b.record(v);
  obs::Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count, a.count + b.count);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 10'100u);
  // Half the mass sits at ~100, half at ~10k: p99 must land in b's range.
  EXPECT_GE(merged.p99(), 10'000u);
  // Merging an empty histogram is identity.
  obs::Histogram empty;
  obs::Histogram same = merged;
  same.merge(empty);
  EXPECT_EQ(same.p50(), merged.p50());
  EXPECT_EQ(same.count, merged.count);
}

// ---------------------------------------------------------------------------
// SampleProfile (obs/profiler.hpp).
// ---------------------------------------------------------------------------

TEST(SampleProfile, SymbolizesAgainstRegisteredRanges) {
  obs::SampleProfile p;
  p.set_period(1000);
  p.set_kernel_floor(0x1000);
  p.add_function("alpha", 0x1000, 0x100);
  p.add_function("beta", 0x1100, 0x100);
  p.record(0x1010, obs::kSampleTierInterp, 0, 1);
  p.record(0x10FF, obs::kSampleTierBlock, 0, 2);
  p.record(0x1100, obs::kSampleTierBlock, 1, 4);
  p.record(0x500, obs::kSampleTierInterp, 0, 1);   // below floor → [user]
  p.record(0x9000, obs::kSampleTierBlock, 0, 8);   // unclaimed → [unknown]
  EXPECT_EQ(p.total_weight(), 16u);

  std::vector<obs::SampleProfile::Bucket> buckets = p.buckets();
  ASSERT_EQ(buckets.size(), 5u);
  // Deterministic order: (view, tier, name).
  EXPECT_EQ(buckets[0].func, "[user]");
  EXPECT_EQ(buckets[0].samples, 1u);
  EXPECT_EQ(buckets[1].func, "alpha");
  EXPECT_EQ(buckets[1].samples, 1u);
  EXPECT_EQ(buckets[2].func, "[unknown]");
  EXPECT_EQ(buckets[2].samples, 8u);
  EXPECT_EQ(buckets[3].func, "alpha");  // 0x10FF still inside alpha
  EXPECT_EQ(buckets[3].samples, 2u);
  EXPECT_EQ(buckets[4].view, 1u);
  EXPECT_EQ(buckets[4].func, "beta");
  EXPECT_EQ(buckets[4].samples, 4u);

  EXPECT_EQ(p.view_weights()[0], 12u);
  EXPECT_EQ(p.view_weights()[1], 4u);
  EXPECT_EQ(p.tier_weights()[obs::kSampleTierInterp], 2u);
  EXPECT_EQ(p.tier_weights()[obs::kSampleTierBlock], 14u);
}

TEST(SampleProfile, MergeMatchesByNameNotByTableOrder) {
  // Same two functions registered in opposite order: merge must still
  // combine buckets exactly (name-keyed, not index-keyed).
  obs::SampleProfile a, b;
  a.set_period(100);
  a.add_function("f1", 0x1000, 0x100);
  a.add_function("f2", 0x2000, 0x100);
  b.set_period(100);
  b.add_function("f2", 0x2000, 0x100);
  b.add_function("f1", 0x1000, 0x100);
  a.record(0x1000, 0, 0, 3);
  b.record(0x1000, 0, 0, 5);
  b.record(0x2000, 0, 0, 7);
  a.merge(b);
  EXPECT_EQ(a.total_weight(), 15u);
  std::vector<obs::SampleProfile::Bucket> buckets = a.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].func, "f1");
  EXPECT_EQ(buckets[0].samples, 8u);
  EXPECT_EQ(buckets[1].func, "f2");
  EXPECT_EQ(buckets[1].samples, 7u);
}

TEST(SampleProfile, CollapsedAndJsonAreDeterministic) {
  auto build = [] {
    obs::SampleProfile p;
    p.set_period(4096);
    p.add_function("do_work", 0x1000, 0x40);
    p.record(0x1000, obs::kSampleTierInterp, 2, 10);
    p.record(0x1004, obs::kSampleTierBlock, 0, 1);
    return p;
  };
  obs::SampleProfile p = build(), q = build();
  EXPECT_EQ(p.to_json(), q.to_json());
  EXPECT_EQ(p.collapsed(), q.collapsed());
  // Collapsed lines are "view_<v>;<tier>;<func> <weight>".
  EXPECT_NE(p.collapsed().find("view_2;interp;do_work 10"), std::string::npos);
  EXPECT_NE(p.to_json().find("\"period\":4096"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeries + TimelineRollup (obs/timeseries.hpp).
// ---------------------------------------------------------------------------

TEST(TimelineRollup, ExactPercentilesAcrossVms) {
  std::vector<u64> sorted = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(obs::sorted_percentile(sorted, 50), 50u);
  EXPECT_EQ(obs::sorted_percentile(sorted, 90), 90u);
  EXPECT_EQ(obs::sorted_percentile(sorted, 99), 100u);
  EXPECT_EQ(obs::sorted_percentile(sorted, 0), 10u);
  EXPECT_EQ(obs::sorted_percentile({}, 50), 0u);

  // Rollup is input-order independent and aligns rows by interval index.
  std::vector<obs::TimeSeries> vms(3);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    vms[i].configure(1000, {"a", "b"});
    vms[i].append(1, 1000 + i, {u64{10} * (i + 1), u64{5}});
  }
  vms[0].append(2, 2000, {7, 9});  // only VM 0 reaches interval 2

  obs::TimelineRollup fwd = obs::TimelineRollup::build(
      {&vms[0], &vms[1], &vms[2]});
  obs::TimelineRollup rev = obs::TimelineRollup::build(
      {&vms[2], &vms[1], &vms[0]});
  EXPECT_EQ(fwd.to_json(), rev.to_json());

  ASSERT_EQ(fwd.intervals().size(), 2u);
  const obs::RollupCell& a = fwd.intervals()[0].cells[0];
  EXPECT_EQ(a.n, 3u);
  EXPECT_EQ(a.sum, 60u);
  EXPECT_EQ(a.min, 10u);
  EXPECT_EQ(a.max, 30u);
  EXPECT_EQ(a.p50, 20u);
  const obs::TimelineRollup::IntervalStats& tail = fwd.intervals()[1];
  EXPECT_EQ(tail.index, 2u);
  EXPECT_EQ(tail.cells[0].n, 1u);
  EXPECT_EQ(tail.cells[0].p99, 7u);

  EXPECT_FALSE(fwd.render_column("a", 10).empty());
  EXPECT_TRUE(fwd.render_column("nonexistent", 10).empty());
}

// ---------------------------------------------------------------------------
// vCPU sample trigger.
// ---------------------------------------------------------------------------

struct CountingSink final : public cpu::SampleSink {
  u64 fires = 0;
  u64 weight = 0;
  Cycles last_at = 0;
  void on_sample(Cycles now, GVirt, u8 tier, u64 periods) override {
    ++fires;
    weight += periods;
    last_at = now;
    EXPECT_LE(tier, cpu::kTierBlock);
    EXPECT_GE(periods, 1u);
  }
};

TEST(VcpuSampling, WeightAccountsForEveryElapsedPeriod) {
  harness::GuestSystem sys;
  CountingSink sink;
  const Cycles period = 4096;
  sys.vcpu().set_sample_sink(&sink, period);
  sys.os().spawn("gzip", apps::make_app("gzip", 2).model);
  sys.run_for(3'000'000);
  ASSERT_GT(sink.fires, 0u);
  // Weights make attribution cycle-proportional: the total weight must
  // cover every whole period the run crossed, even when one instruction
  // jumps simulated time by many periods (HLT idle, KSVC charges) — that
  // is exactly when fires < weight.
  EXPECT_LE(sink.fires, sink.weight);
  EXPECT_GE(sink.weight, (sink.last_at / period));
  sys.vcpu().set_sample_sink(nullptr, 0);
  u64 fires_before = sink.fires;
  sys.run_for(500'000);
  EXPECT_EQ(sink.fires, fires_before) << "detached sink must never fire";
}

TEST(VcpuSampling, SamplingDoesNotPerturbTheRun) {
  auto run = [](bool sampled) {
    harness::GuestSystem sys;
    CountingSink sink;
    if (sampled) sys.vcpu().set_sample_sink(&sink, 8192);
    sys.os().spawn("top", apps::make_app("top", 2).model);
    sys.run_for(2'000'000);
    return sys.vcpu().instructions_retired();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Engine attachment.
// ---------------------------------------------------------------------------

std::string run_engine_scenario(std::string* timeline_json) {
  harness::profile_all_apps();
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  core::FaceChangeEngine::TelemetryOptions topt;
  topt.sample_period = 4096;
  topt.timeline_interval = 500'000;
  topt.queue_depth = [&sys] {
    return static_cast<u64>(sys.os().events().size());
  };
  engine.attach_telemetry(topt);

  for (const char* app : {"gzip", "top"}) {
    engine.bind(app, engine.load_view(harness::profile_of(app)));
    apps::AppScenario scenario = apps::make_app(app, 2);
    sys.os().spawn(app, scenario.model);
    scenario.install_environment(sys.os());
  }
  sys.run_for(4'000'000);

  EXPECT_TRUE(engine.telemetry_attached());
  EXPECT_GT(engine.profile().total_weight(), 0u);
  EXPECT_FALSE(engine.timeline().empty());
  EXPECT_EQ(engine.timeline().columns(),
            core::FaceChangeEngine::timeline_columns());
  if (timeline_json != nullptr) *timeline_json = engine.timeline().to_json();
  return engine.profile().to_json();
}

TEST(EngineTelemetry, CapturesProfileAndTimelineDeterministically) {
  std::string timeline1, timeline2;
  std::string profile1 = run_engine_scenario(&timeline1);
  std::string profile2 = run_engine_scenario(&timeline2);
  EXPECT_EQ(profile1, profile2) << "profile JSON must be run-invariant";
  EXPECT_EQ(timeline1, timeline2) << "timeline JSON must be run-invariant";
  // The profile attributes real kernel symbols, not just fallbacks.
  EXPECT_NE(profile1.find("cpu_idle"), std::string::npos);
  // Snapshot rows carry the full schema width.
  EXPECT_NE(timeline1.find("\"interval\":500000"), std::string::npos);
}

TEST(EngineTelemetry, DetachStopsCaptureAndZeroPeriodMeansOff) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  engine.attach_telemetry();
  EXPECT_TRUE(engine.telemetry_attached());
  engine.detach_telemetry();
  EXPECT_FALSE(engine.telemetry_attached());
  EXPECT_EQ(sys.vcpu().sample_sink(), nullptr);
  core::FaceChangeEngine::TelemetryOptions off;
  off.sample_period = 0;
  engine.attach_telemetry(off);
  EXPECT_FALSE(engine.telemetry_attached());
}

// ---------------------------------------------------------------------------
// Fleet telemetry determinism.
// ---------------------------------------------------------------------------

const core::SharedImage& test_image() {
  static std::unique_ptr<core::SharedImage> image = [] {
    harness::SharedImageOptions options;
    options.apps = {"gzip", "top"};
    options.profile_iterations = 5;
    return harness::build_shared_image(options);
  }();
  return *image;
}

fleet::FleetReport run_fleet(u32 jobs) {
  fleet::FleetOptions options;
  options.vms = 6;
  options.jobs = jobs;
  options.iterations = 2;
  options.run_budget = 4'000'000;
  options.capture_telemetry = true;
  options.sample_period = 4096;
  options.timeline_interval = 500'000;
  fleet::FleetRunner runner(test_image(), options);
  return runner.run();
}

TEST(FleetTelemetry, MergedOutputsAreJobsInvariantAndRepeatable) {
  fleet::FleetReport r1 = run_fleet(1);
  fleet::FleetReport r2 = run_fleet(2);
  fleet::FleetReport r4 = run_fleet(4);
  fleet::FleetReport again = run_fleet(4);

  std::string profile1 = r1.merged_profile().to_json();
  ASSERT_GT(r1.merged_profile().total_weight(), 0u);
  EXPECT_EQ(profile1, r2.merged_profile().to_json());
  EXPECT_EQ(profile1, r4.merged_profile().to_json());
  EXPECT_EQ(profile1, again.merged_profile().to_json());

  std::string timeline1 = r1.timeline_json();
  EXPECT_EQ(timeline1, r2.timeline_json());
  EXPECT_EQ(timeline1, r4.timeline_json());
  EXPECT_EQ(timeline1, again.timeline_json());

  // Per-VM capture landed: every VM has rows and sample weight.
  for (const fleet::VmResult& vm : r1.vms) {
    EXPECT_GT(vm.profile.total_weight(), 0u) << "vm " << vm.vm;
    EXPECT_FALSE(vm.timeline.empty()) << "vm " << vm.vm;
  }
  // The rollup covers all 6 VMs at the first interval.
  std::vector<const obs::TimeSeries*> series;
  for (const fleet::VmResult& vm : r1.vms) series.push_back(&vm.timeline);
  obs::TimelineRollup rollup = obs::TimelineRollup::build(series);
  ASSERT_FALSE(rollup.empty());
  EXPECT_EQ(rollup.intervals().front().cells[0].n, 6u);
}

TEST(FleetTelemetry, TelemetryOffLeavesResultsEmpty) {
  fleet::FleetOptions options;
  options.vms = 2;
  options.jobs = 1;
  options.iterations = 1;
  options.run_budget = 1'000'000;
  fleet::FleetRunner runner(test_image(), options);
  fleet::FleetReport report = runner.run();
  for (const fleet::VmResult& vm : report.vms) {
    EXPECT_EQ(vm.profile.total_weight(), 0u);
    EXPECT_TRUE(vm.timeline.empty());
  }
  EXPECT_EQ(report.merged_profile().total_weight(), 0u);
}

}  // namespace
}  // namespace fc
