#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * q;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double Geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : samples) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean of a non-positive sample");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Sum(samples) / static_cast<double>(samples.size());
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double x : samples) total += x;
  return total;
}

std::vector<double> TypeMeans(const std::vector<OpSample>& ops) {
  std::map<int, std::vector<double>> by_type;
  for (const OpSample& op : ops) by_type[op.type].push_back((op.end_s - op.start_s) * 1e3);
  std::vector<double> means;
  for (const auto& [type, ms] : by_type) means.push_back(Mean(ms));
  return means;
}

}  // namespace perfbench
