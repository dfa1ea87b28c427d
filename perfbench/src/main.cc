// Repository benchmark: one command, three workloads.
//
//   perfbench --workload <serve_unique|serve_repeat|train_dtdbd>
//             --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]
//
// The untraced run (--trace 0) measures the end-to-end metrics; the traced
// run (--trace 1) records spans, switches on op profiling, runs the
// per-layer probes, and writes perfbench/out/<workload>-seed<n>.trace.json
// plus a per-layer table next to it. Either way the last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using perfbench::MetricSpec;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_unique|serve_repeat|train_dtdbd> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt-reference]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corrupt-reference") {
      options->corrupt_reference = true;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      options->workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      options->seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options->seconds = std::atoi(v);
      have_seconds = true;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return false;
      }
      options->trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

// Prints the last-line JSON with exactly the catalogue's metrics.
void PrintResultLine(const perfbench::Result& result,
                     const std::vector<MetricSpec>& specs) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics.find(specs[i].name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    line += (i == 0 ? "\"" : ", \"") + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string FormatTable(const perfbench::Result& result,
                        const std::vector<MetricSpec>& specs) {
  std::string table;
  char buf[160];
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      std::snprintf(buf, sizeof(buf), "  %-36s %14s  %s\n", spec.name.c_str(),
                    "-", spec.unit.c_str());
    } else {
      std::snprintf(buf, sizeof(buf), "  %-36s %14.6g  %s\n",
                    spec.name.c_str(), it->second, spec.unit.c_str());
    }
    table += buf;
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  const bool serve_unique = options.workload == "serve_unique";
  const bool serve_repeat = options.workload == "serve_repeat";
  const bool train = options.workload == "train_dtdbd";
  if (!serve_unique && !serve_repeat && !train) {
    return Usage("unknown workload");
  }
  const std::vector<std::string> tuning = perfbench::TuningVariablesSet();
  if (!tuning.empty()) {
    std::string names;
    for (const std::string& n : tuning) names += " " + n;
    std::fprintf(stderr,
                 "perfbench: refusing to run: tuning variable(s) set:%s. Each "
                 "changes the program being measured; unset them.\n",
                 names.c_str());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  auto fingerprint = perfbench::HostFingerprint();
  std::printf("host:");
  for (const auto& [key, value] : fingerprint) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  perfbench::SpanRecorder spans(options.trace);
  perfbench::Result result;
  {
    perfbench::ScopedSpan workload_span(&spans, "workload", 0);
    result = train ? perfbench::RunTrain(options, &spans)
                   : perfbench::RunServe(options, serve_repeat, &spans);
  }
  result.metrics["peak_rss_mb"] = perfbench::PeakRssMb();
  result.metrics["fail_frac"] =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  if (result.attempted < 1) result.Fail("nothing was attempted");
  for (const std::string& problem : result.problems) {
    std::printf("INCORRECT: %s\n", problem.c_str());
  }

  const auto& specs = options.trace ? perfbench::PerLayerMetrics()
                                    : perfbench::EndToEndMetrics();
  const std::string table = FormatTable(result, specs);
  std::printf("%s metrics (attempted %lld, failed %lld, correct %s):\n%s",
              options.trace ? "per-layer" : "end-to-end",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct ? "yes" : "no", table.c_str());
  if (options.trace) {
    mkdir(perfbench::kOutDir, 0755);
    const std::string stem = std::string(perfbench::kOutDir) + "/" +
                             options.workload + "-seed" +
                             std::to_string(options.seed);
    fingerprint.emplace_back("workload", options.workload);
    fingerprint.emplace_back("seed", std::to_string(options.seed));
    const bool wrote_trace =
        spans.WriteChromeTrace(stem + ".trace.json", fingerprint);
    FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w");
    if (f != nullptr) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
    std::printf("trace: %zu spans -> %s.trace.json%s\n", spans.size(),
                stem.c_str(), wrote_trace ? "" : " (write FAILED)");
  }
  PrintResultLine(result, specs);
  return 0;
}
