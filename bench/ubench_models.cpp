#include "ubench_models.hpp"

#include "support/check.hpp"

namespace fc::ubench {

namespace {

using os::AppAction;
using os::AppModel;
using os::OsRuntime;

AppAction sys(u32 nr, u32 b = 0, u32 c = 0, u32 d = 0, Cycles comp = 120) {
  return AppAction::syscall(nr, b, c, d, comp);
}

/// Pure-compute loops (Dhrystone/Whetstone equivalents).
class ComputeModel : public AppModel {
 public:
  explicit ComputeModel(Cycles per_unit) : per_unit_(per_unit) {}
  AppAction next(u32, OsRuntime& osr, u32) override {
    osr.bump_responses();
    return AppAction::compute_only(per_unit_);
  }
 private:
  Cycles per_unit_;
};

/// getpid in a tight loop (System Call Overhead).
class SyscallModel : public AppModel {
 public:
  AppAction next(u32, OsRuntime& osr, u32) override {
    osr.bump_responses();
    return sys(abi::kSysGetpid, 0, 0, 0, 60);
  }
};

/// Single-process pipe write+read (Pipe Throughput).
class PipeThroughputModel : public AppModel {
 public:
  AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysPipe);
      case 1:
        rfd_ = last & 0xFFFF;
        wfd_ = last >> 16;
        ++phase_;
        return sys(abi::kSysWrite, wfd_, 512);
      case 2: phase_ = 1 + 2; return sys(abi::kSysRead, rfd_, 512);
      default:
        osr.bump_responses();
        phase_ = 2;
        return sys(abi::kSysWrite, wfd_, 512);
    }
  }
 private:
  int phase_ = 0;
  u32 rfd_ = 0, wfd_ = 0;
};

/// Two processes ping-ponging on a pair of pipes (Pipe-based Context
/// Switching — the subtest FACE-CHANGE degrades most).
struct PingPongPipes {
  u32 p1r = 0, p1w = 0, p2r = 0, p2w = 0;
};

class PingPongChild : public AppModel {
 public:
  explicit PingPongChild(std::shared_ptr<PingPongPipes> pipes)
      : pipes_(std::move(pipes)) {}
  AppAction next(u32, OsRuntime&, u32) override {
    if (phase_ == 0) {
      phase_ = 1;
      return sys(abi::kSysRead, pipes_->p1r, 4096);  // drain
    }
    phase_ = 0;
    return sys(abi::kSysWrite, pipes_->p2w, 64);
  }
 private:
  std::shared_ptr<PingPongPipes> pipes_;
  int phase_ = 0;
};

class PingPongParent : public AppModel {
 public:
  PingPongParent() : pipes_(std::make_shared<PingPongPipes>()) {}
  AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysPipe);
      case 1:
        pipes_->p1r = last & 0xFFFF;
        pipes_->p1w = last >> 16;
        ++phase_;
        return sys(abi::kSysPipe);
      case 2:
        pipes_->p2r = last & 0xFFFF;
        pipes_->p2w = last >> 16;
        ++phase_;
        return sys(abi::kSysFork);
      case 3: ++phase_; return sys(abi::kSysWrite, pipes_->p1w, 64);
      default:
        if (phase_ == 4) {
          phase_ = 3;
          osr.bump_responses();
          return sys(abi::kSysRead, pipes_->p2r, 4096);  // drain
        }
        FC_UNREACHABLE();
    }
  }
  std::shared_ptr<AppModel> fork_child() override {
    return std::make_shared<PingPongChild>(pipes_);
  }
 private:
  std::shared_ptr<PingPongPipes> pipes_;
  int phase_ = 0;
};

/// fork + immediate child exit + wait (Process Creation).
class ProcCreateModel : public AppModel {
 public:
  AppAction next(u32, OsRuntime& osr, u32) override {
    if (phase_ == 0) {
      phase_ = 1;
      return sys(abi::kSysFork);
    }
    phase_ = 0;
    osr.bump_responses();
    return sys(abi::kSysWait4, 0xFFFFFFFF);
  }
 private:
  int phase_ = 0;
};

/// fork + execve(sh) + wait (Execl Throughput).
class ExeclModel : public AppModel {
 public:
  AppAction next(u32, OsRuntime& osr, u32) override {
    if (phase_ == 0) {
      phase_ = 1;
      return sys(abi::kSysFork);
    }
    phase_ = 0;
    osr.bump_responses();
    return sys(abi::kSysWait4, 0xFFFFFFFF);
  }
  std::shared_ptr<AppModel> fork_child() override;
 private:
  int phase_ = 0;
};

class ExecShChild : public AppModel {
 public:
  AppAction next(u32, OsRuntime& osr, u32) override {
    return sys(abi::kSysExecve, osr.binary_id("sh"));
  }
};

std::shared_ptr<AppModel> ExeclModel::fork_child() {
  return std::make_shared<ExecShChild>();
}

/// read(file) + write(file) (File Copy).
class FileCopyModel : public AppModel {
 public:
  AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysOpen, os::kPathDataFile, 0);
      case 1: in_ = last; ++phase_; return sys(abi::kSysOpen, os::kPathLogFile, 1);
      case 2: out_ = last; ++phase_; return sys(abi::kSysRead, in_, 4096);
      default:
        if (phase_ == 3) {
          phase_ = 4;
          return sys(abi::kSysWrite, out_, 4096);
        }
        phase_ = 3;
        osr.bump_responses();
        return sys(abi::kSysRead, in_, 4096);
    }
  }
 private:
  int phase_ = 0;
  u32 in_ = 0, out_ = 0;
};

/// pipe + fork + exec + wait (Shell Scripts).
class ShellModel : public AppModel {
 public:
  AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysPipe);
      case 1:
        rfd_ = last & 0xFFFF;
        wfd_ = last >> 16;
        ++phase_;
        return sys(abi::kSysFork);
      case 2: ++phase_; return sys(abi::kSysWrite, wfd_, 128);
      case 3: ++phase_; return sys(abi::kSysRead, rfd_, 4096);
      case 4:
        ++phase_;
        osr.bump_responses();
        return sys(abi::kSysWait4, 0xFFFFFFFF);
      case 5:
        phase_ = 2;
        return sys(abi::kSysFork);
      default:
        FC_UNREACHABLE();
    }
  }
  std::shared_ptr<AppModel> fork_child() override {
    return std::make_shared<ExecShChild>();
  }
 private:
  int phase_ = 0;
  u32 rfd_ = 0, wfd_ = 0;
};

}  // namespace

std::vector<Subtest> unixbench_suite() {
  return {
      {"Dhrystone", [] { return std::make_shared<ComputeModel>(4000); }},
      {"Whetstone", [] { return std::make_shared<ComputeModel>(9000); }},
      {"Execl Throughput", [] { return std::make_shared<ExeclModel>(); },
       /*needs_binaries=*/true},
      {"File Copy", [] { return std::make_shared<FileCopyModel>(); }},
      {"Pipe Throughput", [] { return std::make_shared<PipeThroughputModel>(); }},
      {"Pipe-based Context Switching",
       [] { return std::make_shared<PingPongParent>(); }},
      {"Process Creation", [] { return std::make_shared<ProcCreateModel>(); }},
      {"Shell Scripts", [] { return std::make_shared<ShellModel>(); },
       /*needs_binaries=*/true},
      {"System Call Overhead", [] { return std::make_shared<SyscallModel>(); }},
  };
}

MeasureResult measure_subtest(const Subtest& subtest,
                              const MeasureOptions& options) {
  harness::GuestSystem sys;
  std::unique_ptr<core::FaceChangeEngine> engine;
  if (options.face_change) {
    engine = std::make_unique<core::FaceChangeEngine>(
        sys.hv(), sys.os().kernel(), options.engine);
    engine->enable();
    const auto& configs = harness::profile_all_apps();
    for (u32 i = 0; i < options.loaded_views && i < configs.size(); ++i) {
      // gzip is excluded in the paper's Figure 6 (footnote 5).
      if (configs[i].app_name == "gzip") continue;
      u32 id = engine->load_view(configs[i]);
      engine->bind(configs[i].app_name, id);
    }
    if (options.bind_benchmark_view) {
      // Ablations that exercise view switching on the hot path: profile the
      // benchmark itself (in a separate session — layouts are identical)
      // and bind it to its own view.
      core::KernelViewConfig cfg = [&] {
        harness::GuestSystem profile_sys;
        core::Profiler profiler(profile_sys.hv(), profile_sys.os().kernel());
        profiler.add_target("ubench");
        profiler.attach();
        if (subtest.needs_binaries)
          apps::register_utility_binaries(profile_sys.os());
        profile_sys.os().spawn("ubench", subtest.factory());
        profile_sys.run_for(options.warmup_cycles * 4);
        profiler.detach();
        return profiler.export_config("ubench");
      }();
      u32 id = engine->load_view(cfg);
      engine->bind("ubench", id);
    }
  }

  if (subtest.needs_binaries) apps::register_utility_binaries(sys.os());
  sys.os().spawn("ubench", subtest.factory());
  sys.run_for(options.warmup_cycles);

  u64 ops0 = sys.os().counters().responses_completed;
  Cycles c0 = sys.vcpu().cycles();
  sys.run_for(options.measure_cycles);
  u64 ops1 = sys.os().counters().responses_completed;
  Cycles c1 = sys.vcpu().cycles();

  MeasureResult result;
  const double seconds =
      static_cast<double>(c1 - c0) /
      static_cast<double>(sys.vcpu().perf_model().cycles_per_second);
  result.ops_per_second = static_cast<double>(ops1 - ops0) / seconds;
  if (engine) {
    result.context_switch_traps = engine->stats().context_switch_traps;
    result.view_switches = engine->stats().view_switches();
    result.recoveries = engine->recovery_stats().recoveries;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Figure 7: httperf against the Apache-style server.
// ---------------------------------------------------------------------------

namespace {

class HttpServerModel : public os::AppModel {
 public:
  explicit HttpServerModel(Cycles per_request_compute)
      : compute_(per_request_compute) {}
  os::AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysSocket, 2, 1);
      case 1: lsock_ = last; ++phase_; return sys(abi::kSysBind, lsock_, 80);
      case 2: ++phase_; return sys(abi::kSysListen, lsock_);
      case 3: ++phase_; return sys(abi::kSysOpen, os::kPathLogFile, 1);
      case 4: log_ = last; ++phase_; return sys(abi::kSysPoll, lsock_, 1);
      case 5: ++phase_; return sys(abi::kSysAccept, lsock_);
      case 6: conn_ = last; ++phase_; return sys(abi::kSysRead, conn_, 1024);
      case 7: ++phase_; return sys(abi::kSysOpen, os::kPathIndexHtml, 0);
      case 8: file_ = last; ++phase_; return sys(abi::kSysRead, file_, 16384);
      case 9: ++phase_; return sys(abi::kSysClose, file_);
      case 10:
        ++phase_;
        // Page generation: the per-request CPU cost.
        return os::AppAction{abi::kSysWrite, conn_, 16384, 0, compute_};
      case 11: ++phase_; return sys(abi::kSysWrite, log_, 128);  // access log
      case 12:
        osr.bump_responses();
        phase_ = 4;
        return sys(abi::kSysClose, conn_);
      default:
        FC_UNREACHABLE();
    }
  }
 private:
  Cycles compute_;
  int phase_ = 0;
  u32 lsock_ = 0, conn_ = 0, file_ = 0, log_ = 0, segments_ = 0;
};

}  // namespace

std::shared_ptr<os::AppModel> make_http_server(Cycles per_request_compute) {
  return std::make_shared<HttpServerModel>(per_request_compute);
}

namespace {

/// See make_udp_compute: bind a UDP port, then spin compute units. The
/// socket is never read — its queue only exists to attract NIC interrupts.
class UdpComputeModel : public AppModel {
 public:
  UdpComputeModel(u16 port, Cycles per_unit)
      : port_(port), per_unit_(per_unit) {}
  AppAction next(u32 last, OsRuntime& osr, u32) override {
    switch (phase_) {
      case 0: ++phase_; return sys(abi::kSysSocket, 2, 0);
      case 1: sock_ = last; ++phase_; return sys(abi::kSysBind, sock_, port_);
      default:
        osr.bump_responses();
        return AppAction::compute_only(per_unit_);
    }
  }

 private:
  u16 port_;
  Cycles per_unit_;
  int phase_ = 0;
  u32 sock_ = 0;
};

}  // namespace

std::shared_ptr<os::AppModel> make_udp_compute(u16 port, Cycles per_unit) {
  return std::make_shared<UdpComputeModel>(port, per_unit);
}

OpenLoopStats run_http_workload(harness::GuestSystem& sys,
                                double rate_per_second, u32 total_requests,
                                Cycles per_request_compute) {
  sys.os().spawn("apache", make_http_server(per_request_compute));
  sys.run_for(2'000'000);  // server reaches accept()

  std::vector<Cycles> completions;
  sys.os().set_response_log(&completions);
  const u64 cps = sys.vcpu().perf_model().cycles_per_second;
  const Cycles gap =
      static_cast<Cycles>(static_cast<double>(cps) / rate_per_second);
  const Cycles start = sys.vcpu().cycles() + 1'000'000;
  for (u32 i = 0; i < total_requests; ++i)
    sys.os().schedule_connection(start + i * gap, 80, 512);

  const u64 ops0 = sys.os().counters().responses_completed;
  const Cycles c0 = sys.vcpu().cycles();
  const Cycles deadline =
      start + static_cast<Cycles>(total_requests) * gap + 4ull * cps;
  sys.hv().run([&] {
    return sys.os().counters().responses_completed - ops0 >= total_requests ||
           sys.vcpu().cycles() >= deadline;
  });
  sys.os().set_response_log(nullptr);

  OpenLoopStats stats;
  stats.offered = total_requests;
  stats.served = sys.os().counters().responses_completed - ops0;
  stats.seconds = static_cast<double>(sys.vcpu().cycles() - c0) /
                  static_cast<double>(cps);
  stats.achieved_rps =
      stats.seconds > 0 ? static_cast<double>(stats.served) / stats.seconds : 0;
  stats.latencies.reserve(completions.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const Cycles arrival = start + static_cast<Cycles>(i) * gap;
    stats.latencies.push_back(completions[i] > arrival ? completions[i] - arrival
                                                       : 0);
  }
  return stats;
}

double run_httperf(double rate_per_second, const HttperfOptions& options) {
  harness::GuestSystem sys;
  std::unique_ptr<core::FaceChangeEngine> engine;
  if (options.face_change) {
    engine = std::make_unique<core::FaceChangeEngine>(
        sys.hv(), sys.os().kernel(), options.engine);
    engine->enable();
    u32 id = engine->load_view(harness::profile_of("apache"));
    engine->bind("apache", id);
  }
  OpenLoopStats stats = run_http_workload(
      sys, rate_per_second, options.total_requests, options.per_request_compute);
  return stats.achieved_rps;
}

}  // namespace fc::ubench
