// Checks the statistics and pace helpers and the span recorder's
// self-time accounting against hand-computed values. Exits non-zero on the
// first mismatch; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pace.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestQuantiles() {
  using perfbench::Quantile;
  // Sorted: 1 2 3 4 5 6 7 8 9 10 (shuffled on input).
  const std::vector<double> ten = {7, 3, 10, 1, 5, 9, 2, 8, 4, 6};
  ExpectNear(Quantile(ten, 0.0), 1.0, "q0");
  ExpectNear(Quantile(ten, 1.0), 10.0, "q1");
  // h = 9 * 0.5 = 4.5 -> 5 + 0.5 * (6 - 5)
  ExpectNear(Quantile(ten, 0.5), 5.5, "p50 of 1..10");
  // h = 9 * 0.9 = 8.1 -> 9 + 0.1 * (10 - 9)
  ExpectNear(Quantile(ten, 0.9), 9.1, "p90 of 1..10");
  // h = 9 * 0.25 = 2.25 -> 3 + 0.25 * (4 - 3)
  ExpectNear(Quantile(ten, 0.25), 3.25, "p25 of 1..10");
  // Odd count: the middle sample exactly.
  ExpectNear(perfbench::Median({4.0, 1.0, 100.0}), 4.0, "median of 3");
  // h = 3 * 0.9 = 2.7 -> 20 + 0.7 * (40 - 20)
  ExpectNear(Quantile({10, 40, 20, 0}, 0.9), 34.0, "p90 of 4");
  ExpectNear(Quantile({42.0}, 0.9), 42.0, "single sample");
  ExpectNear(Quantile({}, 0.5), 0.0, "empty");
}

void TestMeans() {
  ExpectNear(perfbench::Geomean({1.0, 4.0, 16.0}), 4.0, "geomean 1,4,16");
  ExpectNear(perfbench::Geomean({2.0, 8.0}), 4.0, "geomean 2,8");
  ExpectNear(perfbench::Geomean({5.0}), 5.0, "geomean single");
  ExpectNear(perfbench::Mean({1.0, 2.0, 6.0}), 3.0, "mean");
  bool threw = false;
  try {
    perfbench::Geomean({1.0, 0.0});
  } catch (const std::exception&) {
    threw = true;
  }
  Expect(threw, "geomean rejects 0");
}

void TestTypeMeans() {
  // Type 1 takes 1, 2, 3 and 6 s, mean 3 s; type 0 takes 10 s twice.
  const std::vector<perfbench::OpSample> ops = {{0, 1, 1}, {1, 11, 0}, {11, 13, 1},
                                                {13, 16, 1}, {16, 26, 0}, {26, 32, 1}};
  const std::vector<double> means = perfbench::TypeMeans(ops);
  Expect(means.size() == 2, "one mean per type");
  ExpectNear(means[0], 10000, "type 0 mean");
  ExpectNear(means[1], 3000, "type 1 mean");
}

void TestPace() {
  ExpectNear(perfbench::PaceFactor({3 * perfbench::kReferencePaceMs, perfbench::kReferencePaceMs,
                                    2 * perfbench::kReferencePaceMs}),
             2.0, "pace factor is the median over the reference");
  ExpectNear(perfbench::PaceFactor({}), 1.0, "no samples, no scaling");
  Expect(perfbench::RunReferenceKernel() > 0.0, "reference computation takes time");
}

void TestSpanSelfTime() {
  // op [0,100us) with children a [10,40) and b [50,90); b has child c
  // [60,70). Self times: op 30, a 30, b 30, c 10.
  perfbench::SpanRecorder rec;
  const int op = rec.Add("explore.cell", 0, 100000, -1, 1);
  rec.Add("suite.build", 10000, 40000, op, 1);
  const int b = rec.Add("sched.schedule", 50000, 90000, op, 1);
  rec.Add("sim.stg_sim", 60000, 70000, b, 1);
  const perfbench::LayerTable table = rec.Layers({"explore.cell"});
  ExpectNear(table.op_ns, 100000, "op time");
  ExpectNear(table.self_ns.at("explore"), 30000, "explore self");
  ExpectNear(table.self_ns.at("suite"), 30000, "suite self");
  ExpectNear(table.self_ns.at("sched"), 30000, "sched self");
  ExpectNear(table.self_ns.at("sim"), 10000, "sim self");
  Expect(table.ops == 1, "one op root");
  const perfbench::SpanStat s = rec.Stat("sched.schedule");
  Expect(s.calls == 1, "one schedule call");
  ExpectNear(s.total_ns, 40000, "schedule total");
}

}  // namespace

int main() {
  TestQuantiles();
  TestMeans();
  TestTypeMeans();
  TestPace();
  TestSpanSelfTime();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
