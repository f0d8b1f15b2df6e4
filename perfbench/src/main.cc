// gkeys performance benchmark, one workload per process:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Prints readable `info` / `metric` lines, then as its last line the JSON
// result object: {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics, a traced run the per-layer
// ones and writes its spans as Chrome trace-event JSON into the output
// directory (default .bench_build). Usually started through
// perfbench/run.py, which builds this binary first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench.h"

namespace {

using namespace gkeys::perfbench;

/// The metrics one run reports, in print order.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Prints each metric as a readable line, then the one-line JSON result
  /// object (always the last line of stdout).
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char num[40];
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      line += i ? ", \"" : "\"";
      line += gkeys::JsonEscaped(m.name) + "\": {\"value\": " + num +
              ", \"unit\": \"" + gkeys::JsonEscaped(m.unit) + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload match_dbpedia|session_dbpedia|"
               "ingest_powerlaw --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_build";
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0)) return Usage();
  WorkloadResult (*run)(const RunConfig&) = nullptr;
  if (workload == "match_dbpedia") run = RunMatchDbpedia;
  if (workload == "session_dbpedia") run = RunSessionDbpedia;
  if (workload == "ingest_powerlaw") run = RunIngestPowerlaw;
  if (run == nullptr) return Usage();

  namespace fs = std::filesystem;
  cfg.work_dir = out_dir + "/work-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", cfg.work_dir.c_str());
    return 1;
  }
  Tracer::Get().set_enabled(cfg.trace);
  WorkloadResult result = run(cfg);
  Tracer::Get().set_enabled(false);
  fs::remove_all(cfg.work_dir, ec);

  if (cfg.trace) {
    const std::string path = out_dir + "/trace-" + workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    if (!Tracer::Get().WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("info trace written to %s\n", path.c_str());
  }

  // Report exactly the table's metrics. An end-to-end metric is never
  // legitimately absent or zero; a per-layer metric the workload does not
  // exercise reads 0.
  std::set<std::string> known;
  Report report;
  bool complete = true;
  auto emit = [&](const MetricDef& def, bool required) {
    known.insert(def.name);
    auto it = result.metrics.find(def.name);
    if (required && (it == result.metrics.end() || !(it->second > 0))) {
      std::fprintf(stderr, "%s: end-to-end metric %s missing or zero\n",
                   workload.c_str(), def.name);
      complete = false;
    }
    report.Add(def.name, it == result.metrics.end() ? 0.0 : it->second,
               def.unit);
  };
  if (cfg.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
    if (workload == "ingest_powerlaw") {
      for (const MetricDef& def : kIngestPerLayer) emit(def, false);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  for (const auto& [name, value] : result.metrics) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "%s: metric %s is not in this run's table\n",
                   workload.c_str(), name.c_str());
      return 1;
    }
  }
  if (!complete) return 1;
  report.Print(result.correct, result.tally.attempted, result.tally.failed);
  return 0;
}
