// The repository's end-to-end benchmark program.
//
//   perfbench --workload table1_sweep|spec_heavy|serve_mixed --seed N
//             --seconds S --trace 0|1 [--t0 T] [--setup-only]
//             [--designs DIR] [--out DIR]
//
// Runs one workload in this process for S seconds of measurement, checks
// every output, and prints a human-readable metric table followed by one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 records spans around every
// layer call and reports the per-layer metrics instead (and writes the
// spans as Chrome trace-event JSON under --out). perfbench/run.py builds
// this binary and is the documented entry point; see perfbench/README.md.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--t0 T] [--setup-only] "
               "[--designs DIR] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  const double entry = MonotonicSeconds();
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool setup_only = false;
  double t0 = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = next();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(next());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = next();
        if (t != "0" && t != "1") Usage("--trace wants 0 or 1");
        opts.trace = t == "1";
        have_trace = true;
      } else if (arg == "--t0") {
        t0 = std::stod(next());
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else if (arg == "--designs") {
        opts.designs_dir = next();
      } else if (arg == "--out") {
        opts.out_dir = next();
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opts.seconds > 0.0)) Usage("--seconds must be > 0");
  // Set-up is timed from the moment the parent spawned this process when
  // it says so, else from main().
  opts.start_s = t0 > 0.0 ? t0 : entry;

  std::unique_ptr<Workload> workload = MakeWorkload(opts);
  if (workload == nullptr) Usage("unknown workload " + opts.workload);

  std::string error;
  if (!workload->SetUp(&error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const double setup_s = MonotonicSeconds() - opts.start_s;
  if (setup_only) {
    workload->TearDown();
    std::printf("{\"setup_s\": %s}\n", FormatValue(setup_s).c_str());
    return 0;
  }

  SpanRecorder recorder;
  if (opts.trace) g_recorder = &recorder;
  RunResult result = workload->Run();
  workload->TearDown();

  if (opts.trace) {
    workload->ReportLayers(recorder, &result);
    const std::string path = opts.out_dir + "/trace_" + opts.workload + "_" +
                             std::to_string(opts.seed) + ".json";
    if (recorder.WriteChromeTrace(path, 200000)) {
      result.notes.push_back("spans: " + std::to_string(recorder.size()) +
                             " recorded, Chrome trace written to " + path);
    }
  } else {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // This process's own set-up; run.py reports the median of it and the
    // set-ups of its probe processes.
    // This process's own set-up at the run's reference pace; run.py scales
    // its probe processes' set-ups by the same factor, printed as a note.
    result.Add("setup_s", setup_s / result.pace, "s", "raw " + FormatValue(setup_s) + " s");
    result.notes.push_back("pace_factor " + FormatValue(result.pace));
    result.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  }

  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  const std::vector<std::string> order =
      opts.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  bool first = true;
  for (const std::string& name : order) {
    const Metric* m = result.Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name.c_str());
      return 1;
    }
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            FormatValue(m->value) + ", \"unit\": \"" + m->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
