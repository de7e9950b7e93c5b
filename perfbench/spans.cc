#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

namespace perfbench {
namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

thread_local int t_current = -1;
thread_local std::uint64_t t_op = 0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanRecorder* g_recorder = nullptr;

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) {}

std::int64_t SpanRecorder::Now() const { return SteadyNs() - origin_ns_; }

int SpanRecorder::Add(const std::string& name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent, std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, op, ThreadIndex()});
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::Open(const std::string& name, int parent, std::uint64_t op) {
  return Add(name, Now(), -1, parent, op);
}

void SpanRecorder::Close(int index) {
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

SpanStat SpanRecorder::Stat(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStat stat;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_ns < 0) continue;
    ++stat.calls;
    stat.total_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return stat;
}

LayerTable SpanRecorder::Layers(const std::set<std::string>& op_roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = spans_.size();
  // Parents precede their children, so one forward pass finds each span's
  // root and one more sums child time per parent.
  std::vector<int> root(n);
  std::vector<double> child_ns(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    root[i] = s.parent < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  LayerTable table;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (op_roots.count(spans_[static_cast<std::size_t>(root[i])].name) == 0) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent < 0) {
      ++table.ops;
      table.op_ns += dur;
    }
    table.self_ns[LayerOf(s.name)] += dur - child_ns[i];
  }
  return table;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    std::size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::size_t written = 0;
  for (std::size_t i = 0; i < spans_.size() && written < max_events; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}\n",
                 written == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                 JsonEscape(LayerOf(s.name)).c_str(), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.tid, i, s.parent,
                 static_cast<unsigned long long>(s.op));
    ++written;
  }
  std::fprintf(f, "],\"otherData\":{\"spans\":%zu,\"written\":%zu}}\n",
               spans_.size(), written);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t op) {
  if (g_recorder == nullptr) return;
  saved_parent_ = t_current;
  saved_op_ = t_op;
  if (op != 0) t_op = op;
  index_ = g_recorder->Open(name, t_current, t_op);
  t_current = index_;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  g_recorder->Close(index_);
  t_current = saved_parent_;
  t_op = saved_op_;
}

}  // namespace perfbench
