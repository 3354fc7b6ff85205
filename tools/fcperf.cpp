// fcperf — perf-regression gate over the repo's bench/telemetry JSON.
//
//   fcperf check <baseline.json> <current.json> --rules RULES [--name LABEL]
//                [--verbose]
//       Flatten both JSON documents into dotted metric paths
//       (subtests[3].insns, metrics.counters.block_cache.insn_hits, ...),
//       match every path against the rules file, and fail (exit 1) when any
//       non-ignored metric violates its rule. Paths matched by a non-ignore
//       rule must exist in BOTH documents — a vanished or newly-appeared
//       gated metric is itself a regression (silently dropping a gate is
//       how perf rot ships).
//   fcperf diff <a.json> <b.json>
//       Flatten both documents and print the first dotted path (in path
//       order) whose value differs, with both values, and how many paths
//       differ. Numbers compare by their literal text, so it explains a
//       failed byte-exact `cmp` of two reports. Exit 0 when every value
//       matches, 1 when one differs.
//   fcperf selftest
//       In-process contract test: a doctored "current" document with an
//       injected regression must trip the gate, and the clean document must
//       pass. Wired into ctest as `perf_gate_selftest`; ci.sh's perf-gate
//       tier also injects a synthetic regression end-to-end.
//
// Rules file: one rule per line, first match wins, `#` comments.
//
//   ignore <pattern>        never check (wall-clock noise, labels)
//   exact <pattern>         byte-for-byte value equality (deterministic
//                           metrics: instruction counts, frame counts)
//   near <tol> <pattern>    |cur - base| <= tol * max(|base|, 1)
//   min <tol> <pattern>     cur >= base * (1 - tol)   (throughput-like:
//                           only a drop is a regression)
//   max <tol> <pattern>     cur <= base * (1 + tol)   (cost-like: only
//                           growth is a regression)
//
// `<tol>` is a fraction (0.10 = 10%). Patterns are glob-ish: `*` matches
// any run of characters (including `.` and digits), everything else is
// literal — `subtests[*].insns` gates every subtest's instruction count.
// Unmatched paths are ignored (and counted in the summary), so a rules
// file states its gates explicitly rather than inheriting every field a
// bench happens to emit.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------- JSON ----
// Minimal recursive-descent parser: just enough for the repo's own bench /
// telemetry exports (objects, arrays, numbers, strings, bools, null). On
// any syntax error the whole check fails — a gate that half-parses its
// input is worse than one that refuses it.

struct Leaf {
  enum Kind { kNumber, kString, kBool, kNull } kind = kNull;
  double num = 0.0;
  // kString text / kNumber literal text / kBool "true"/"false" / kNull "null"
  std::string str;

  bool operator==(const Leaf& other) const {
    if (kind != other.kind) return false;
    if (kind == kNumber) return num == other.num;
    return str == other.str;
  }
  /// The value as it reads in JSON (strings quoted, numbers verbatim).
  std::string literal() const {
    return kind == kString ? "\"" + str + "\"" : str;
  }
  std::string render() const {
    if (kind != kNumber) return str;
    char buf[64];
    if (num == static_cast<double>(static_cast<long long>(num)))
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(num));
    else
      std::snprintf(buf, sizeof buf, "%g", num);
    return buf;
  }
};

using FlatDoc = std::map<std::string, Leaf>;

class Parser {
 public:
  Parser(const std::string& text, FlatDoc* out) : text_(text), out_(out) {}

  bool parse() {
    skip_ws();
    if (!parse_value("")) return false;
    skip_ws();
    return pos_ == text_.size();
  }
  std::size_t error_offset() const { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool literal(const char* word) {
    std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u':
            // The repo's exporters never emit \u escapes; keep them
            // opaque rather than mis-decoding.
            if (pos_ + 4 > text_.size()) return false;
            out->append("\\u").append(text_, pos_, 4);
            pos_ += 4;
            break;
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_value(const std::string& path) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return parse_object(path);
    if (c == '[') return parse_array(path);
    if (c == '"') {
      Leaf leaf;
      leaf.kind = Leaf::kString;
      if (!parse_string(&leaf.str)) return false;
      emit(path, leaf);
      return true;
    }
    if (literal("true")) return emit_word(path, Leaf::kBool, "true", 1.0);
    if (literal("false")) return emit_word(path, Leaf::kBool, "false", 0.0);
    if (literal("null")) return emit_word(path, Leaf::kNull, "null", 0.0);
    // Number.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    double value = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    Leaf leaf;
    leaf.kind = Leaf::kNumber;
    leaf.num = value;
    leaf.str.assign(start, static_cast<std::size_t>(end - start));
    emit(path, leaf);
    return true;
  }

  bool parse_object(const std::string& path) {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      std::string child = path.empty() ? key : path + "." + key;
      if (!parse_value(child)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_array(const std::string& path) {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    std::size_t index = 0;
    while (true) {
      char idx[32];
      std::snprintf(idx, sizeof idx, "[%zu]", index++);
      if (!parse_value(path + idx)) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  void emit(const std::string& path, const Leaf& leaf) {
    (*out_)[path] = leaf;
  }
  bool emit_word(const std::string& path, Leaf::Kind kind, const char* word,
                 double num) {
    Leaf leaf;
    leaf.kind = kind;
    leaf.str = word;
    leaf.num = num;
    emit(path, leaf);
    return true;
  }

  const std::string& text_;
  FlatDoc* out_;
  std::size_t pos_ = 0;
};

bool flatten_json(const std::string& text, FlatDoc* out, std::string* error) {
  Parser parser(text, out);
  if (parser.parse()) return true;
  if (error != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "syntax error at offset %zu",
                  parser.error_offset());
    *error = buf;
  }
  return false;
}

// --------------------------------------------------------------- rules ----

struct Rule {
  enum Op { kIgnore, kExact, kNear, kMin, kMax } op = kIgnore;
  double tol = 0.0;
  std::string pattern;
};

/// `*` matches any run of characters; everything else literal.
bool glob_match(const std::string& pattern, const std::string& text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;  // remember; initially match zero characters
      star_t = t;
    } else if (p < pattern.size() && pattern[p] == text[t]) {
      ++p, ++t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool parse_rules(const std::string& text, std::vector<Rule>* out,
                 std::string* error) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  auto fail = [&](const char* why) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "rules line %zu: %s", line_no, why);
    *error = buf;
    return false;
  };
  while (start <= text.size()) {
    std::size_t eol = text.find('\n', start);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(start, eol - start);
    start = eol + 1;
    ++line_no;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::vector<std::string> words;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])))
        ++i;
      std::size_t w = i;
      while (i < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[i])))
        ++i;
      if (i > w) words.push_back(line.substr(w, i - w));
    }
    if (words.empty()) continue;
    Rule rule;
    if (words[0] == "ignore") rule.op = Rule::kIgnore;
    else if (words[0] == "exact") rule.op = Rule::kExact;
    else if (words[0] == "near") rule.op = Rule::kNear;
    else if (words[0] == "min") rule.op = Rule::kMin;
    else if (words[0] == "max") rule.op = Rule::kMax;
    else return fail("unknown op (want ignore/exact/near/min/max)");
    bool has_tol = rule.op == Rule::kNear || rule.op == Rule::kMin ||
                   rule.op == Rule::kMax;
    std::size_t want = has_tol ? 3u : 2u;
    if (words.size() != want) return fail("wrong word count");
    if (has_tol) {
      char* end = nullptr;
      rule.tol = std::strtod(words[1].c_str(), &end);
      if (end == nullptr || *end != '\0' || rule.tol < 0.0)
        return fail("bad tolerance");
    }
    rule.pattern = words.back();
    out->push_back(rule);
  }
  return true;
}

const Rule* match_rule(const std::vector<Rule>& rules,
                       const std::string& path) {
  for (const Rule& rule : rules)
    if (glob_match(rule.pattern, path)) return &rule;
  return nullptr;
}

// --------------------------------------------------------------- check ----

struct CheckStats {
  std::size_t checked = 0;
  std::size_t failed = 0;
  std::size_t ignored = 0;
  std::size_t unmatched = 0;
};

const char* op_name(Rule::Op op) {
  switch (op) {
    case Rule::kIgnore: return "ignore";
    case Rule::kExact: return "exact";
    case Rule::kNear: return "near";
    case Rule::kMin: return "min";
    case Rule::kMax: return "max";
  }
  return "?";
}

/// Visit the union of both documents' paths in map order (deterministic
/// output) with each side's leaf, nullptr where a side lacks the path.
template <typename Fn>
void for_each_path(const FlatDoc& a, const FlatDoc& b, Fn&& fn) {
  auto ai = a.begin();
  auto bi = b.begin();
  while (ai != a.end() || bi != b.end()) {
    if (bi == b.end() || (ai != a.end() && ai->first < bi->first)) {
      fn(ai->first, &ai->second, nullptr);
      ++ai;
    } else if (ai == a.end() || bi->first < ai->first) {
      fn(bi->first, nullptr, &bi->second);
      ++bi;
    } else {
      fn(ai->first, &ai->second, &bi->second);
      ++ai, ++bi;
    }
  }
}

/// Core gate: every union path matched by a non-ignore rule is checked.
CheckStats check_docs(const FlatDoc& baseline, const FlatDoc& current,
                      const std::vector<Rule>& rules, const char* label,
                      bool verbose) {
  CheckStats stats;
  auto report = [&](const std::string& path, const Rule& rule,
                    const char* verdict, const std::string& detail) {
    bool fail = std::strcmp(verdict, "ok") != 0;
    if (fail) ++stats.failed;
    if (!fail && !verbose) return;
    std::string rule_text = op_name(rule.op);
    if (rule.op == Rule::kNear || rule.op == Rule::kMin ||
        rule.op == Rule::kMax) {
      char tol[32];
      std::snprintf(tol, sizeof tol, " %g", rule.tol);
      rule_text += tol;
    }
    std::printf("%s %s: %s %s (%s)%s%s\n", fail ? "FAIL" : "  ok", label,
                path.c_str(), detail.c_str(), rule_text.c_str(),
                fail ? ": " : "", fail ? verdict : "");
  };

  for_each_path(baseline, current, [&](const std::string& path,
                                       const Leaf* base, const Leaf* cur) {
    const Rule* rule = match_rule(rules, path);
    if (rule == nullptr) {
      ++stats.unmatched;
      return;
    }
    if (rule->op == Rule::kIgnore) {
      ++stats.ignored;
      return;
    }
    ++stats.checked;
    if (base == nullptr) {
      report(path, *rule, "gated metric absent from baseline",
             "cur=" + cur->render());
      return;
    }
    if (cur == nullptr) {
      report(path, *rule, "gated metric vanished from current run",
             "base=" + base->render());
      return;
    }
    std::string detail = "base=" + base->render() + " cur=" + cur->render();
    if (base->kind != cur->kind) {
      report(path, *rule, "type changed", detail);
      return;
    }
    if (base->kind != Leaf::kNumber) {
      // Non-numeric leaves only support (and always get) exact equality.
      report(path, *rule, *base == *cur ? "ok" : "value changed", detail);
      return;
    }
    double b = base->num, c = cur->num;
    bool ok = false;
    switch (rule->op) {
      case Rule::kExact: ok = b == c; break;
      case Rule::kNear:
        ok = std::fabs(c - b) <= rule->tol * std::fmax(std::fabs(b), 1.0);
        break;
      case Rule::kMin: ok = c >= b * (1.0 - rule->tol); break;
      case Rule::kMax: ok = c <= b * (1.0 + rule->tol); break;
      case Rule::kIgnore: break;  // unreachable
    }
    report(path, *rule, ok ? "ok" : "regression", detail);
  });
  return stats;
}

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fcperf: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Read and flatten one JSON file; a syntax error is reported on stderr.
bool load_doc(const std::string& path, FlatDoc* out) {
  std::string error;
  if (flatten_json(read_file_or_die(path), out, &error)) return true;
  std::fprintf(stderr, "fcperf: %s: %s\n", path.c_str(), error.c_str());
  return false;
}

int cmd_check(const std::string& baseline_path,
              const std::string& current_path, const std::string& rules_path,
              const std::string& label, bool verbose) {
  std::string error;
  FlatDoc baseline, current;
  std::vector<Rule> rules;
  if (!load_doc(baseline_path, &baseline) || !load_doc(current_path, &current))
    return 2;
  if (!parse_rules(read_file_or_die(rules_path), &rules, &error)) {
    std::fprintf(stderr, "fcperf: %s: %s\n", rules_path.c_str(),
                 error.c_str());
    return 2;
  }
  const char* name = label.empty() ? current_path.c_str() : label.c_str();
  CheckStats stats = check_docs(baseline, current, rules, name, verbose);
  std::printf(
      "%s: %zu checked, %zu failed (%zu ignored, %zu unmatched paths)\n",
      name, stats.checked, stats.failed, stats.ignored, stats.unmatched);
  return stats.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- diff ----

struct Difference {
  std::size_t differing = 0;  // paths whose value differs or is one-sided
  std::size_t paths = 0;      // union of both documents' paths
  std::string path;           // the first differing path
  std::string a, b;           // its values as JSON literals, or "<absent>"
};

/// Value-level comparison of two flattened documents. Numbers compare by
/// literal text, not as doubles: 64-bit digests do not survive a double.
Difference diff_docs(const FlatDoc& a, const FlatDoc& b) {
  Difference d;
  for_each_path(a, b, [&](const std::string& path, const Leaf* la,
                          const Leaf* lb) {
    ++d.paths;
    if (la != nullptr && lb != nullptr && la->kind == lb->kind &&
        la->str == lb->str)
      return;
    if (d.differing++ != 0) return;
    d.path = path;
    d.a = la != nullptr ? la->literal() : "<absent>";
    d.b = lb != nullptr ? lb->literal() : "<absent>";
  });
  return d;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  FlatDoc a, b;
  if (!load_doc(path_a, &a) || !load_doc(path_b, &b)) return 2;
  Difference d = diff_docs(a, b);
  if (d.differing == 0) {
    std::printf("no value differs (%zu paths)\n", d.paths);
    return 0;
  }
  std::printf("first difference at %s:\n  a: %s\n  b: %s\n", d.path.c_str(),
              d.a.c_str(), d.b.c_str());
  std::printf("%zu of %zu paths differ\n", d.differing, d.paths);
  return 1;
}

// ------------------------------------------------------------- selftest ----

int cmd_selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "  ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  // Glob semantics.
  expect(glob_match("subtests[*].insns", "subtests[3].insns"),
         "glob matches array wildcard");
  expect(glob_match("metrics.counters.*", "metrics.counters.bc.hits"),
         "glob * spans dots");
  expect(!glob_match("subtests[*].insns", "subtests[3].name"),
         "glob rejects other field");
  expect(glob_match("*", "anything.at[0].all"), "bare * matches everything");

  const char* kBaseline =
      "{\"geomean\": 2.130, \"insns\": 311520000, \"wall\": 1.25,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}";
  const char* kRules =
      "# gate file for the selftest\n"
      "ignore wall\n"
      "min 0.10 geomean\n"
      "exact insns\n"
      "exact subtests[*].name\n"
      "min 0.20 subtests[*].rate\n";
  FlatDoc base;
  std::vector<Rule> rules;
  std::string error;
  expect(flatten_json(kBaseline, &base, &error), "baseline parses");
  expect(parse_rules(kRules, &rules, &error), "rules parse");
  expect(base.size() == 7, "baseline flattens to 7 leaves");

  auto run = [&](const char* json, const char* what,
                 std::size_t want_failed) {
    FlatDoc cur;
    std::string err;
    if (!flatten_json(json, &cur, &err)) {
      expect(false, what);
      return;
    }
    CheckStats stats = check_docs(base, cur, rules, "selftest", false);
    expect(stats.failed == want_failed, what);
  };

  // Identical document passes; wall-clock drift is ignored.
  run("{\"geomean\": 2.130, \"insns\": 311520000, \"wall\": 9.99,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}",
      "clean run passes the gate", 0);
  // Throughput inside tolerance passes, above baseline always passes.
  run("{\"geomean\": 1.95, \"insns\": 311520000, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 85.0},"
      " {\"name\": \"b\", \"rate\": 900.0}]}",
      "in-tolerance drift passes", 0);
  // Injected regression: geomean collapses below min 0.10.
  run("{\"geomean\": 1.50, \"insns\": 311520000, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}",
      "injected geomean regression trips the gate", 1);
  // Determinism break: an exact-gated counter moved.
  run("{\"geomean\": 2.130, \"insns\": 311520001, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}",
      "exact-counter drift trips the gate", 1);
  // A gated metric vanishing is a failure, not a silent skip.
  run("{\"geomean\": 2.130, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}",
      "vanished gated metric trips the gate", 1);
  // A new subtest appears: its gated fields are absent from baseline.
  run("{\"geomean\": 2.130, \"insns\": 311520000, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0},"
      " {\"name\": \"c\", \"rate\": 50.0}]}",
      "new gated subtest requires a baseline refresh", 2);
  // Renamed subtest: exact string gate catches it.
  run("{\"geomean\": 2.130, \"insns\": 311520000, \"wall\": 1.0,"
      " \"subtests\": [{\"name\": \"a2\", \"rate\": 100.0},"
      " {\"name\": \"b\", \"rate\": 200.0}]}",
      "renamed subtest trips the exact name gate", 1);

  // `diff` names the first differing path and both values, telling apart
  // 64-bit integers a double would conflate; identical documents match.
  FlatDoc left, right;
  expect(flatten_json("{\"vms\": [{\"digest\": 9007199254740993,"
                      " \"app\": \"gzip\"}], \"total\": 5}",
                      &left, &error) &&
             flatten_json("{\"vms\": [{\"digest\": 9007199254740992,"
                          " \"app\": \"gzip\"}], \"total\": 5}",
                          &right, &error),
         "diff inputs parse");
  Difference d = diff_docs(left, right);
  expect(d.differing == 1 && d.paths == 3 && d.path == "vms[0].digest" &&
             d.a == "9007199254740993" && d.b == "9007199254740992",
         "diff names the first differing path and both values");
  expect(diff_docs(left, left).differing == 0,
         "diff of identical documents finds nothing");

  if (failures == 0) std::printf("OK: perf gate selftest\n");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fcperf <command> [args]\n"
      "  check <baseline.json> <current.json> --rules <rules> "
      "[--name label] [--verbose]\n"
      "  diff <a.json> <b.json>\n"
      "  selftest\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string cmd = argv[1];
  if (cmd == "selftest") return cmd_selftest();
  if (cmd == "diff") {
    if (argc != 4) usage();
    return cmd_diff(argv[2], argv[3]);
  }
  if (cmd != "check") usage();

  std::vector<std::string> positional;
  std::string rules_path, label;
  bool verbose = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--rules") && i + 1 < argc) {
      rules_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--name") && i + 1 < argc) {
      label = argv[++i];
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() != 2 || rules_path.empty()) usage();
  return cmd_check(positional[0], positional[1], rules_path, label, verbose);
}
