// fclint — static lint over the FACE-CHANGE kernel views.
//
// Boots a guest (deterministic kernel layout), decodes the whole kernel
// image plus loaded modules into a call graph, profiles the Table I
// applications, and lints every view:
//
//   fclint [lint] [-n iter] [--baseline FILE] [--update-baseline FILE] [app..]
//       lint each app's view: unknown ranges (errors), dead members, live
//       0B 0F hazards, page-crossing functions, UD2-fill gaps (errors).
//       With --baseline, hazard sites not listed in FILE are errors too.
//   fclint graph                  whole-kernel call-graph statistics
//   fclint hazards                every static 0B 0F hazard site
//   fclint probe [--json FILE] [app..]
//       run the boundary probe for each app's view and classify every trap
//       (closure-predicted / profile-gap / true hazard). Fails on any
//       unexplained trap or an incomplete probe run.
//   fclint data [--json FILE]
//       data-view write integrity: benign 12-app run under the armed
//       monitor (must be violation-free) plus the data-only rootkit
//       positive controls (must be detected).
//
// Exit status: 0 clean, 1 lint errors / new hazards / probe-gate failures,
// 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/closure.hpp"
#include "analysis/hazards.hpp"
#include "analysis/lint.hpp"
#include "harness/harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/hexdump.hpp"
#include "support/logging.hpp"

using namespace fc;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fclint [command] [flags]\n"
      "  lint [-n iterations] [--baseline FILE] [--update-baseline FILE]\n"
      "       [app...]        lint app views (default: all 12 apps)\n"
      "  graph                call-graph statistics\n"
      "  hazards              list every static 0B 0F hazard site\n"
      "  probe [--json FILE] [app...]\n"
      "                       boundary probe + trap classification\n"
      "  data [--json FILE]   data-view write monitor gate\n"
      "flags: --json FILE (lint/probe/data: machine-readable report),\n"
      "       --log-level LEVEL (or FC_LOG_LEVEL env), --trace-out FILE\n"
      "       (record the profiling runs; writes Chrome trace JSON)\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch; break;
    }
  }
  return out;
}

/// Function-relative key for a finding address ("sys_read+0x12"), falling
/// back to the raw address outside any known function.
std::string relative_key(const analysis::CallGraph& graph, GVirt address) {
  const analysis::FuncNode* fn = graph.function_at(address);
  if (fn == nullptr) return hex32(address);
  std::ostringstream out;
  out << fn->name << "+0x" << std::hex << (address - fn->start);
  return out.str();
}

std::set<std::string> read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fclint: cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::set<std::string> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') keys.insert(line);
  }
  return keys;
}

int cmd_graph() {
  harness::GuestSystem sys;
  analysis::CallGraph graph = harness::build_call_graph(sys);
  analysis::CallGraph::Stats s = graph.stats();
  std::printf("functions:          %zu\n", s.functions);
  std::printf("direct calls:       %zu\n", s.direct_calls);
  std::printf("indirect sites:     %zu\n", s.indirect_sites);
  std::printf("unresolved targets: %zu\n", s.unresolved_targets);
  std::printf("page-crossing:      %zu\n", s.page_crossing);
  std::printf("decode failures:    %zu\n", s.decode_failures);
  std::printf("dispatch targets:   %zu\n",
              graph.dispatch_target_indices().size());
  return s.decode_failures == 0 ? 0 : 1;
}

int cmd_hazards() {
  harness::GuestSystem sys;
  analysis::CallGraph graph = harness::build_call_graph(sys);
  std::vector<analysis::HazardSite> sites =
      analysis::enumerate_hazard_sites(graph);
  for (const analysis::HazardSite& s : sites) {
    std::printf("%s  site %s ret %s\n", s.key(graph).c_str(),
                hex32(s.site).c_str(), hex32(s.ret).c_str());
  }
  std::printf("%zu hazard sites (odd return addresses: the 0B 0F "
              "instant-recovery cases)\n",
              sites.size());
  return 0;
}

int cmd_probe(const std::string& json_path,
              std::vector<std::string> apps) {
  if (apps.empty()) apps = apps::all_app_names();
  bool failed = false;
  std::vector<harness::ProbeRunResult> results;
  u64 traps = 0, predicted = 0, gaps = 0, unexplained = 0;
  for (const std::string& app : apps) {
    harness::ProbeRunResult r = harness::run_boundary_probe(app);
    std::printf(
        "%-10s probes %3zu  edges %3zu/%3zu  traps %5llu  predicted %5llu  "
        "profile-gap %3llu  unexplained %llu%s\n",
        r.app.c_str(), r.plan.calls.size(), r.plan.covered_edges,
        r.plan.boundary_edges, (unsigned long long)r.traps,
        (unsigned long long)r.predicted, (unsigned long long)r.profile_gap,
        (unsigned long long)r.unexplained,
        r.completed ? "" : "  [INCOMPLETE]");
    failed = failed || r.unexplained > 0 || !r.completed;
    traps += r.traps;
    predicted += r.predicted;
    gaps += r.profile_gap;
    unexplained += r.unexplained;
    results.push_back(std::move(r));
  }
  std::printf(
      "total: %llu traps = %llu closure-predicted + %llu profile-gap + "
      "%llu unexplained\n",
      (unsigned long long)traps, (unsigned long long)predicted,
      (unsigned long long)gaps, (unsigned long long)unexplained);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"apps\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const harness::ProbeRunResult& r = results[i];
      out << "    {\"app\": \"" << json_escape(r.app) << "\""
          << ", \"probes\": " << r.plan.calls.size()
          << ", \"boundary_edges\": " << r.plan.boundary_edges
          << ", \"covered_edges\": " << r.plan.covered_edges
          << ", \"traps\": " << r.traps << ", \"predicted\": " << r.predicted
          << ", \"profile_gap\": " << r.profile_gap
          << ", \"unexplained\": " << r.unexplained
          << ", \"completed\": " << (r.completed ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"totals\": {\"traps\": " << traps
        << ", \"predicted\": " << predicted << ", \"profile_gap\": " << gaps
        << ", \"unexplained\": " << unexplained << "}\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failed ? 1 : 0;
}

int cmd_data(const std::string& json_path) {
  harness::DataViewRunResult benign = harness::run_data_view_benign();
  bool failed = !benign.violations.empty();
  std::printf(
      "benign     writers %zu  checked %llu  whitelisted %llu  violations "
      "%llu%s\n",
      benign.whitelist_writers, (unsigned long long)benign.stats.writes_checked,
      (unsigned long long)benign.stats.whitelisted,
      (unsigned long long)benign.stats.violations,
      benign.violations.empty() ? "" : "  [FALSE POSITIVE]");

  struct AttackRow {
    harness::DataViewRunResult r;
    bool detected;
  };
  std::vector<AttackRow> rows;
  for (const auto& attack : attacks::make_data_only_attacks()) {
    harness::DataViewRunResult r = harness::run_data_view_attack(*attack);
    const bool detected = !r.violations.empty() && r.untrusted_static_writer;
    std::printf("%-18s violations %llu  static-writer %s  %s\n",
                r.name.c_str(), (unsigned long long)r.stats.violations,
                r.untrusted_static_writer ? "yes" : "no",
                detected ? "DETECTED" : "[MISSED]");
    failed = failed || !detected;
    rows.push_back({std::move(r), detected});
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"whitelist_writers\": " << benign.whitelist_writers
        << ",\n  \"benign\": {\"writes_checked\": "
        << benign.stats.writes_checked
        << ", \"whitelisted\": " << benign.stats.whitelisted
        << ", \"violations\": " << benign.stats.violations
        << "},\n  \"attacks\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"name\": \"" << json_escape(rows[i].r.name) << "\""
          << ", \"violations\": " << rows[i].r.stats.violations
          << ", \"untrusted_static_writer\": "
          << (rows[i].r.untrusted_static_writer ? "true" : "false")
          << ", \"detected\": " << (rows[i].detected ? "true" : "false")
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failed ? 1 : 0;
}

int cmd_lint(u32 iterations, const std::string& baseline_path,
             const std::string& update_path, const std::string& json_path,
             const std::vector<std::string>& only_apps) {
  harness::GuestSystem sys;
  analysis::CallGraph graph = harness::build_call_graph(sys);
  std::vector<analysis::HazardSite> hazards =
      analysis::enumerate_hazard_sites(graph);

  // Hazard baseline: symbolic keys survive layout changes; any key not in
  // the baseline is a *new* hazard an engineer must acknowledge.
  bool failed = false;
  if (!baseline_path.empty()) {
    std::set<std::string> known = read_baseline(baseline_path);
    std::size_t new_sites = 0;
    for (const analysis::HazardSite& s : hazards) {
      if (known.count(s.key(graph)) == 0) {
        std::printf("NEW hazard site: %s (ret %s)\n", s.key(graph).c_str(),
                    hex32(s.ret).c_str());
        ++new_sites;
        failed = true;
      }
    }
    std::printf("baseline: %zu known, %zu current, %zu new\n", known.size(),
                hazards.size(), new_sites);
  }
  if (!update_path.empty()) {
    std::set<std::string> keys;
    for (const analysis::HazardSite& s : hazards) keys.insert(s.key(graph));
    std::ofstream out(update_path);
    out << "# fclint hazard baseline: every statically-known 0B 0F call "
           "site,\n# as caller+offset->callee keys. Regenerate with\n"
           "# `fclint lint --update-baseline <file>`.\n";
    for (const std::string& key : keys) out << key << "\n";
    std::printf("wrote %s (%zu sites)\n", update_path.c_str(), keys.size());
  }

  // Build each app's view inside the engine so the UD2-gap check can see
  // the actual shadow frames.
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  std::vector<analysis::LintReport> reports;
  for (const core::KernelViewConfig& config :
       harness::profile_all_apps(iterations)) {
    if (!only_apps.empty() &&
        std::find(only_apps.begin(), only_apps.end(), config.app_name) ==
            only_apps.end()) {
      continue;
    }
    u32 id = engine.load_view(config);
    analysis::LintReport report =
        analysis::lint_view(graph, hazards, config, engine.view(id),
                            &sys.hv().machine().host());
    std::printf("%s\n", report.render().c_str());
    failed = failed || report.failed();
    reports.push_back(std::move(report));
  }
  if (!json_path.empty()) {
    // Findings are already in deterministic function-relative-key order
    // (lint_view sorts them), so the artifact diffs cleanly across runs.
    std::ofstream out(json_path);
    out << "{\n  \"apps\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const analysis::LintReport& report = reports[i];
      out << "    {\"app\": \"" << json_escape(report.app) << "\""
          << ", \"member_functions\": " << report.member_functions
          << ", \"findings\": [\n";
      for (std::size_t j = 0; j < report.findings.size(); ++j) {
        const analysis::LintFinding& f = report.findings[j];
        out << "      {\"kind\": \"" << analysis::lint_kind_name(f.kind)
            << "\", \"error\": " << (f.error ? "true" : "false")
            << ", \"key\": \"" << json_escape(relative_key(graph, f.address))
            << "\", \"address\": \"" << hex32(f.address) << "\""
            << ", \"detail\": \"" << json_escape(f.detail) << "\"}"
            << (j + 1 < report.findings.size() ? "," : "") << "\n";
      }
      out << "    ]}" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc > 1 ? argv[1] : "lint";
  int first = 2;
  if (cmd == "-n" || cmd.rfind("--", 0) == 0) {  // bare `fclint --flag ...`
    cmd = "lint";
    first = 1;
  }
  if (cmd == "graph") return cmd_graph();
  if (cmd == "hazards") return cmd_hazards();
  if (cmd != "lint" && cmd != "probe" && cmd != "data") usage();

  u32 iterations = 20;
  std::string baseline, update, trace_out, json_path;
  std::vector<std::string> apps;
  for (int i = first; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-n") && i + 1 < argc) {
      iterations = static_cast<u32>(
          count_arg("fclint", "-n", argv[++i], 1, 1'000'000));
    } else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc) {
      baseline = argv[++i];
    } else if (!std::strcmp(argv[i], "--update-baseline") && i + 1 < argc) {
      update = argv[++i];
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--trace-out") && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!std::strcmp(argv[i], "--log-level") && i + 1 < argc) {
      auto level = parse_log_level(argv[++i]);
      if (!level) {
        std::fprintf(stderr, "fclint: unknown log level '%s'\n", argv[i]);
        return 2;
      }
      set_log_level(*level);
    } else if (argv[i][0] == '-') {
      usage();
    } else {
      apps.emplace_back(argv[i]);
    }
  }
  if (!trace_out.empty()) obs::recorder().start();
  int rc = 0;
  if (cmd == "probe") {
    rc = cmd_probe(json_path, apps);
  } else if (cmd == "data") {
    rc = cmd_data(json_path);
  } else {
    rc = cmd_lint(iterations, baseline, update, json_path, apps);
  }
  if (!trace_out.empty()) {
    obs::recorder().stop();
    std::ofstream out(trace_out);
    out << obs::chrome_trace_json(obs::recorder());
    std::printf("wrote %s (%llu events)\n", trace_out.c_str(),
                static_cast<unsigned long long>(obs::recorder().size()));
  }
  return rc;
}
