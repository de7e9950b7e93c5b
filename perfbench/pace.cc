#include "pace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "stats.h"

namespace perfbench {
namespace {

// Keeps the compiler from dropping the reference computation.
volatile std::uint64_t g_sink = 0;

std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

double RunReferenceKernel() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> keys(1 << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = Mix(i + 1);
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::uint32_t i = 0; i < 20000; ++i) table[keys[(i * 7919u) % keys.size()]] = i;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < 60000; ++i) {
    const auto it = table.find(keys[(i * 104729u) % keys.size()]);
    if (it != table.end()) acc += it->second;
  }
  std::string text;
  for (std::size_t i = 0; i < 2000; ++i) {
    text += std::to_string(keys[i] % 1000);
    if (text.size() > 4000) text.clear();
  }
  g_sink = g_sink + acc + text.size();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

double PaceFactor(const std::vector<double>& reference_ms) {
  return reference_ms.empty() ? 1.0 : Median(reference_ms) / kReferencePaceMs;
}

}  // namespace perfbench
