// Exact summary statistics over a benchmark's own raw samples.
//
// Every percentile and geometric mean the benchmark reports comes from
// these helpers applied to client-side samples kept in full — never from a
// bucketed server histogram.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation between
// closest ranks: position h = (n - 1) * q into the sorted samples, value
// x[floor(h)] + (h - floor(h)) * (x[floor(h) + 1] - x[floor(h)]). This is
// numpy's default and Python's statistics.quantiles(method="inclusive").
// Returns 0 for an empty sample set.
double Quantile(std::vector<double> samples, double q);

double Median(const std::vector<double>& samples);

// exp(mean(log x)); every sample must be > 0. Returns 0 for an empty set.
double Geomean(const std::vector<double>& samples);

double Mean(const std::vector<double>& samples);

double Sum(const std::vector<double>& samples);

// One timed operation: its start and end in seconds on one clock, and its
// type (which cell or request it is, up to its inputs).
struct OpSample {
  double start_s = 0.0;
  double end_s = 0.0;
  int type = 0;
};

// The mean latency in ms of each type's operations, in type order.
std::vector<double> TypeMeans(const std::vector<OpSample>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
