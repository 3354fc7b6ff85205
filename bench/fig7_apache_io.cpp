// Figure 7: I/O Performance Results for the Apache Web Server.
//
// httperf methodology (§IV-B2): drive the server at request rates from 5 to
// 60 req/s (100 connections per point) and report the ratio of achieved
// throughput with FACE-CHANGE enabled (Apache bound to its profiled view)
// to the baseline. Below the saturation knee the ratio stays ≈1.0; past it,
// the per-request trapping/view-switch cost shows up as degradation.
//
// Both arms deliver IO through the virtio data plane at its default
// (parity) tuning: one interrupt per packet or disk completion, no DMA
// charge. The figure's ratio is FC / baseline, same workload definition
// (ubench::run_http_workload) in both arms.
#include <cstdio>

#include "ubench_models.hpp"

int main() {
  using namespace fc;
  std::printf("Figure 7 — Apache I/O throughput ratio (FACE-CHANGE / baseline)\n\n");
  harness::profile_all_apps();  // warm the apache profile

  std::printf("%8s %14s %14s %8s\n", "rate", "baseline", "face-change",
              "ratio");
  std::printf("%s\n", std::string(50, '-').c_str());

  double min_ratio = 1.0;
  double low_rate_ratio_sum = 0.0;
  int low_rate_points = 0;
  bool degrades_at_top = false;
  for (u32 rate = 5; rate <= 60; rate += 5) {
    double base = ubench::run_httperf(rate, ubench::HttperfOptions{});
    ubench::HttperfOptions fc_opt;
    fc_opt.face_change = true;
    double with_fc = ubench::run_httperf(rate, fc_opt);
    double ratio = base > 0 ? with_fc / base : 0.0;
    min_ratio = std::min(min_ratio, ratio);
    if (rate <= 40) {
      low_rate_ratio_sum += ratio;
      ++low_rate_points;
    }
    if (rate >= 55 && ratio < 0.99) degrades_at_top = true;
    std::printf("%5u/s %11.1f/s %11.1f/s   %5.3f\n", rate, base, with_fc,
                ratio);
  }
  std::printf("%s\n", std::string(50, '-').c_str());

  double low_mean = low_rate_ratio_sum / low_rate_points;
  std::printf(
      "\nmean ratio at ≤40 req/s: %.3f (paper: ≈1.0 below the threshold)\n",
      low_mean);
  std::printf("degradation appears near the top of the range: %s (paper: "
              "threshold ≈55 req/s)\n",
              degrades_at_top ? "YES" : "no");
  bool ok = low_mean > 0.97 && degrades_at_top;
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
