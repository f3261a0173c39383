// Benchmark harness for the analysis service.
//
//   perfbench_harness gen --workload W --seed N --out FILE
//       Writes the workload's inputs for seed N as text.
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         [--inputs FILE] [--trace-out FILE]
//                         [--revision TEXT]
//       Runs the workload (inputs generated from the seed, or read from
//       FILE) and prints a provenance line and, last, the result record.
//
// Exit codes: 0 success, 1 a wrong answer, a failed op or a failed
// input, 2 usage, 3 not a Release build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/harness/common.h"
#include "perfbench/harness/inputs.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {
namespace {

// Each traced run also takes a short traced sample of the other
// workloads, so every per-layer metric appears in every traced record;
// a layer's own workload (BENCHMARK.json) runs it for the full time.
constexpr double kSliceSeconds = 2.0;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness gen --workload W --seed N --out FILE\n"
               "       perfbench_harness run --workload W --seed N --seconds S "
               "--trace 0|1 [--inputs FILE] [--trace-out FILE] "
               "[--revision TEXT]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

RunResult RunWorkload(const std::string& w, const InputSource& source,
                      const RunConfig& cfg) {
  if (w == "small_checks") return RunSmallChecks(source, cfg);
  if (w == "repeat_checks") return RunRepeatChecks(source, cfg);
  if (w == "heavy_checks") return RunHeavyChecks(source, cfg);
  return RunSessions(source, cfg);
}

InputSource GeneratedInputs(const std::string& w, uint64_t seed) {
  return [w, seed](Inputs* in, std::string* err) {
    *in = Inputs();
    return ParseInputText(GenerateInputText(w, seed), in, err);
  };
}

InputSource FrozenInputs(const std::string& w, const std::string& path) {
  return [w, path](Inputs* in, std::string* err) {
    std::string text;
    if (!ReadFile(path, &text)) {
      *err = "cannot read " + path;
      return false;
    }
    *in = Inputs();
    if (!ParseInputText(text, in, err)) return false;
    if (in->workload != w) {
      *err = path + " holds inputs of " + in->workload + ", not " + w;
      return false;
    }
    return true;
  };
}

int Run(const std::map<std::string, std::string>& args) {
  auto get = [&](const std::string& k, const std::string& def) {
    auto it = args.find(k);
    return it == args.end() ? def : it->second;
  };
  std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  build_type += "+asserts";
#endif
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "refusing to report from a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }
  std::string w = get("workload", "");
  bool known = false;
  for (const std::string& n : WorkloadNames()) known |= n == w;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    return 2;
  }
  RunConfig cfg;
  cfg.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
  cfg.seconds = std::strtod(get("seconds", "10").c_str(), nullptr);
  cfg.trace = get("trace", "0") == "1";
  cfg.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  if (cfg.seconds <= 0) return Usage();

  std::string inputs = get("inputs", "");
  InputSource source =
      inputs.empty() ? GeneratedInputs(w, cfg.seed) : FrozenInputs(w, inputs);

  std::printf(
      "# provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %zu, "
      "\"build_type\": %s, \"compiler\": %s, \"revision\": %s, "
      "\"inputs\": %s, \"trace\": %d}\n",
      JsonString(w).c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.nproc, JsonString(build_type).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(get("revision", "unknown")).c_str(),
      JsonString(inputs.empty() ? "generated" : inputs).c_str(),
      cfg.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult result = RunWorkload(w, source, cfg);
  std::vector<SpanRecord> spans = std::move(result.spans);
  if (cfg.trace) {
    std::set<std::string> have;
    for (const Metric& m : result.metrics) have.insert(m.name);
    for (const std::string& other : WorkloadNames()) {
      if (other == w) continue;
      RunConfig slice = cfg;
      slice.seconds = kSliceSeconds;
      slice.setups = 1;
      RunResult r = RunWorkload(other, GeneratedInputs(other, cfg.seed), slice);
      for (const Metric& m : r.metrics) {
        if (have.insert(m.name).second) result.metrics.push_back(m);
      }
      // The slice's ops and failures count like the workload's own.
      result.attempted += r.attempted;
      result.failed += r.failed;
      result.correct = result.correct && r.correct;
      for (const std::string& e : r.errors) {
        if (result.errors.size() < 20) result.errors.push_back(other + ": " + e);
      }
      spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    }
    std::map<std::string, SpanSummary> summary = SummarizeSpans(spans);
    std::fprintf(stderr, "%-34s %9s %12s %12s\n", "span", "count",
                 "median_us", "self_us");
    for (const auto& [name, s] : summary) {
      std::fprintf(stderr, "%-34s %9zu %12.2f %12.2f\n", name.c_str(), s.count,
                   s.median_us, s.median_self_us);
    }
    std::string out = get("trace-out", "");
    if (!out.empty() && !WriteTrace(spans, out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
    }
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "WRONG: %s\n", e.c_str());
  }

  std::string metrics;
  for (const Metric& m : result.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}

int Gen(const std::map<std::string, std::string>& args) {
  auto it = args.find("workload");
  auto seed = args.find("seed");
  auto out = args.find("out");
  if (it == args.end() || seed == args.end() || out == args.end()) {
    return Usage();
  }
  std::string text = GenerateInputText(
      it->second, std::strtoull(seed->second.c_str(), nullptr, 10));
  Inputs check;
  std::string err;
  if (!ParseInputText(text, &check, &err)) {
    std::fprintf(stderr, "generated inputs do not read back: %s\n", err.c_str());
    return 1;
  }
  std::ofstream f(out->second, std::ios::binary);
  f << text;
  return f ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::Usage();
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return perfbench::Usage();
    }
    args[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  std::string mode = argv[1];
  if (mode == "gen") return perfbench::Gen(args);
  if (mode == "run") return perfbench::Run(args);
  return perfbench::Usage();
}
