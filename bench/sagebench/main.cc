// sagebench <workload> [--seed=N] [--seconds=S] [--trace=0|1] [--smoke]
//           [--out-dir=DIR]
//
// Runs one workload in this process and prints every metric as
// "<workload> <metric> <value> <unit>", then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. The untraced run
// reports the end-to-end metrics, the traced run (--trace=1) the per-layer
// ones. Exits 1 when any output disagrees with its oracle or its earlier
// runs, 2 on bad arguments.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "measure.h"
#include "util/strings.h"

namespace sagebench {
namespace {

using Runner = Report (*)(const Options&);

const std::map<std::string, Runner>& Workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"traverse", &RunTraverse},
      {"traverse-mt", &RunTraverseMt},
      {"serve-bfs", &RunServeBfs},
      {"serve-mixed", &RunServeMixed},
  };
  return kWorkloads;
}

/// Matches "--name=value".
bool TakeFlag(const std::string& arg, const std::string& name,
              std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    char* end = nullptr;
    if (TakeFlag(arg, "seed", &value)) {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (TakeFlag(arg, "seconds", &value)) {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (TakeFlag(arg, "trace", &value)) {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (TakeFlag(arg, "out-dir", &value)) {
      options->out_dir = value;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg.rfind("--", 0) != 0 && options->workload.empty()) {
      options->workload = arg;
    } else {
      return false;
    }
  }
  return Workloads().count(options->workload) > 0;
}

std::string JsonNumber(double v) {
  std::string out;
  sage::util::AppendF(&out, "%.17g", v);
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: sagebench <workload> [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--smoke] [--out-dir=DIR]\nworkloads:");
    for (const auto& [name, runner] : Workloads()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  Report report = Workloads().at(options.workload)(options);

  const bool trace = options.trace;
  const std::vector<MetricSpec>& specs =
      trace ? LayerMetrics() : EndToEndMetrics();
  std::map<std::string, Metric>& metrics =
      trace ? report.layer : report.end_to_end;
  for (const MetricSpec& spec : specs) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      // A per-layer metric of a layer this workload does not exercise.
      if (trace) metrics[spec.name] = Metric{0.0, spec.unit, "not exercised"};
      else report.Fail(std::string("end-to-end metric missing: ") + spec.name);
    } else if (!std::isfinite(it->second.value) ||
               (!trace && !(it->second.value > 0))) {
      report.Fail(std::string("metric ") + spec.name + " is not positive");
      it->second.value = 0.0;
    }
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");

  report.facts.insert(
      report.facts.begin(),
      {{"nproc", std::to_string(std::thread::hardware_concurrency())},
       {"build_type", SAGEBENCH_BUILD_TYPE},
       {"compiler", SAGEBENCH_COMPILER},
       {"git_rev", Env("SAGEBENCH_REV", "unknown")},
       {"seed", std::to_string(options.seed)},
       {"seconds", JsonNumber(options.seconds)},
       {"smoke", options.smoke ? "1" : "0"}});
  for (const auto& [key, value] : report.facts) {
    std::printf("# %s %s %s\n", options.workload.c_str(), key.c_str(),
                value.c_str());
  }
  for (const MetricSpec& spec : specs) {
    const Metric& m = metrics.at(spec.name);
    std::printf("%s %s %.6g %s%s%s\n", options.workload.c_str(), spec.name,
                m.value, m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
  if (!report.correct) {
    std::fprintf(stderr, "sagebench: %s: INCORRECT: %s\n",
                 options.workload.c_str(), report.error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Metric& m = metrics.at(spec.name);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";

  // A copy with the fingerprint, for compare.py.
  std::string saved = "{\"workload\": " + JsonString(options.workload);
  for (const auto& [key, value] : report.facts) {
    saved += ", " + JsonString(key) + ": " + JsonString(value);
  }
  saved += ", \"trace\": " + std::string(trace ? "true" : "false") +
           ", \"result\": " + json + "}\n";
  const auto stamp =
      std::chrono::system_clock::now().time_since_epoch().count();
  const std::string path = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (trace ? "1" : "0") + "-" + std::to_string(stamp) +
                           ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(saved.c_str(), f);
    std::fclose(f);
  }

  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace sagebench

int main(int argc, char** argv) { return sagebench::Main(argc, argv); }
