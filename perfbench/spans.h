// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from outside:
// name ("<layer>.<what>", e.g. "sched.schedule"), start, end, parent span,
// and the id of the benchmark operation it belongs to. Spans nest per
// thread (ScopedSpan keeps a thread-local parent stack), so a layer's self
// time is its span time minus its child spans' time. Spans are written out
// as Chrome trace-event JSON ("X" complete events), the plain-text format
// chrome://tracing and Perfetto open, so in-program spans can later be
// merged into the same file.
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder, -1 for a root
  std::uint64_t op = 0;
  int tid = 0;
};

struct SpanStat {
  std::int64_t calls = 0;
  double total_ns = 0.0;
  double mean_ms() const { return calls == 0 ? 0.0 : total_ns / calls / 1e6; }
};

// Self time per layer under a chosen set of operation roots.
struct LayerTable {
  std::int64_t ops = 0;   // root spans counted as operations
  double op_ns = 0.0;     // their summed duration
  std::map<std::string, double> self_ns;  // layer -> self time inside ops
};

// The layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& span_name);

class SpanRecorder {
 public:
  SpanRecorder();

  // Nanoseconds since the recorder was created (steady clock).
  std::int64_t Now() const;

  // Appends a finished span; returns its index. Thread-safe.
  int Add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t op);

  // Opens a span that ScopedSpan closes; returns its index. Thread-safe.
  int Open(const std::string& name, int parent, std::uint64_t op);
  void Close(int index);

  std::size_t size() const;

  SpanStat Stat(const std::string& name) const;

  // Self time per layer, summed over the spans below every root whose name
  // is in `op_roots` (roots of other names — probes, reference work — are
  // left out of the table).
  LayerTable Layers(const std::set<std::string>& op_roots) const;

  // Writes the spans as a Chrome trace-event JSON file, at most
  // `max_events` of them; returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path, std::size_t max_events) const;

 private:
  const std::int64_t origin_ns_;
  mutable std::mutex mu_;
  std::deque<Span> spans_;
};

// The recorder of the traced run; null in untraced runs, where ScopedSpan
// does nothing.
extern SpanRecorder* g_recorder;

// Times the enclosing scope as a span, nested under the thread's innermost
// open span. `op` == 0 inherits the parent's operation id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_ = -1;
  int saved_parent_ = -1;
  std::uint64_t saved_op_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
