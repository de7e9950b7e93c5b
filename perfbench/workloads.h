// The benchmark's workloads and the metric names they report.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double start_s = 0.0;  // steady-clock seconds at process spawn
  std::string designs_dir = "perfbench/designs";
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // printed beside the value, e.g. the sample count
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  double pace = 1.0;  // the untraced run's PaceFactor

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  const Metric* Find(const std::string& name) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first timed operation.
  virtual bool SetUp(std::string* error) = 0;
  // Measures for Options::seconds and checks every output.
  virtual RunResult Run() = 0;
  // Releases what SetUp acquired; idempotent.
  virtual void TearDown() = 0;
  // Traced runs: derives the per-layer metrics from the recorded spans.
  virtual void ReportLayers(const SpanRecorder& recorder, RunResult* result) = 0;
};

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

// The metric names of an untraced and a traced run, in report order; they
// match BENCHMARK.json's end_to_end and per_layer lists.
std::vector<std::string> EndToEndMetricNames();
std::vector<std::string> PerLayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
