#include "workloads.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <mutex>
#include <sstream>
#include <thread>

#include "adapt/profile.h"
#include "base/hashing.h"
#include "base/thread_pool.h"
#include "cell.h"
#include "explore/explore.h"
#include "io/artifact_store.h"
#include "pace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// The layers whose calls nest inside an explore cell; the share table
// splits cell time among them.
const std::vector<std::string> kCellLayers = {"explore", "suite", "mem", "sched",
                                              "analysis", "sim", "rtl"};

// Spans whose mean per-call time is reported as "<span>_ms".
const std::vector<std::string> kTimedSpans = {
    "suite.build",  "sim.profile",     "sim.stg_sim",     "sim.golden",
    "sched.schedule", "mem.relax",     "lang.compile",    "analysis.markov",
    "analysis.bounds", "rtl.area",     "explore.cell",    "io.encode",
    "io.decode",    "io.store_put",    "io.store_get",    "serve.submit",
    "serve.wait",   "adapt.report"};

// Sums of the ScheduleStats of every traced Schedule() call.
struct SchedTotals {
  std::mutex mu;
  std::int64_t runs = 0;
  double successor_ns = 0, cofactor_ns = 0, closure_ns = 0, select_ns = 0, gc_ns = 0;
  double states = 0, closure_hits = 0, candidates = 0, speculative = 0,
         squashed = 0, bdd_ops = 0, bdd_nodes = 0;

  void Add(const ws::ExploreRun& run) {
    if (!run.ok) return;
    std::lock_guard<std::mutex> lock(mu);
    const ws::ScheduleStats& s = run.stats;
    ++runs;
    successor_ns += static_cast<double>(s.phase.successor_ns);
    cofactor_ns += static_cast<double>(s.phase.cofactor_ns);
    closure_ns += static_cast<double>(s.phase.closure_ns);
    select_ns += static_cast<double>(s.phase.select_ns);
    gc_ns += static_cast<double>(s.phase.gc_ns);
    states += s.states_created;
    closure_hits += s.closure_hits;
    candidates += static_cast<double>(s.candidates_generated);
    speculative += s.speculative_ops;
    squashed += s.squashed_ops;
    bdd_ops += static_cast<double>(s.bdd_ops);
    bdd_nodes += static_cast<double>(s.bdd_nodes);
  }

  void Report(RunResult* r) const {
    const double n = runs == 0 ? 1.0 : static_cast<double>(runs);
    r->Add("sched.successor_ms", successor_ns / n / 1e6, "ms");
    r->Add("sched.cofactor_ms", cofactor_ns / n / 1e6, "ms");
    r->Add("sched.closure_ms", closure_ns / n / 1e6, "ms");
    r->Add("sched.select_ms", select_ns / n / 1e6, "ms");
    r->Add("sched.gc_ms", gc_ns / n / 1e6, "ms");
    r->Add("sched.states_created", states / n, "count");
    r->Add("sched.closure_hits", closure_hits / n, "count");
    r->Add("sched.closure_hit_ratio",
           states + closure_hits == 0 ? 0.0 : closure_hits / (states + closure_hits),
           "ratio");
    r->Add("sched.candidates", candidates / n, "count");
    r->Add("sched.speculative_ops", speculative / n, "count");
    r->Add("sched.squash_ratio", speculative == 0 ? 0.0 : squashed / speculative,
           "ratio");
    r->Add("sched.bdd_ops", bdd_ops / n, "count");
    r->Add("sched.bdd_nodes", bdd_nodes / n, "count");
  }
};

// Geomean of E.N.C., total work states and geomean of area over a fixed,
// seed-determined set of runs: the schedule-quality guard.
void ReportQuality(const std::vector<const ws::ExploreRun*>& runs, RunResult* r) {
  std::vector<double> enc, area;
  double states = 0.0;
  for (const ws::ExploreRun* run : runs) {
    if (!run->ok) continue;
    enc.push_back(run->enc_sim);
    if (run->area > 0.0) area.push_back(run->area);
    states += static_cast<double>(run->states);
  }
  r->Add("enc_sim_geomean", Geomean(enc), "cycles", Count(enc.size()));
  r->Add("states_total", states, "count", Count(runs.size()));
  r->Add("area_geomean", Geomean(area), "area", Count(area.size()));
}

// The rate and latency metrics, scaled to the reference pace (pace.h):
// the rate of every timed operation over `busy_s`, the wall time of the
// timed window minus the reference computations run in it if they held up
// the operations, and the p50 and p90 of `latency_ms`. The raw figures go
// into the notes.
void ReportRates(const std::vector<OpSample>& ops, double busy_s,
                 const std::vector<double>& latency_ms, const std::string& latency_of,
                 const std::vector<double>& pace_ms, RunResult* r) {
  const double rate = static_cast<double>(ops.size()) / busy_s;
  const double p50 = Quantile(latency_ms, 0.5), p90 = Quantile(latency_ms, 0.9);
  const double pace = PaceFactor(pace_ms);
  r->pace = pace;
  char scaled[64];
  std::snprintf(scaled, sizeof(scaled), "at the reference pace (x%.4f)", pace);
  r->Add("ops_per_s", rate * pace, "1/s", "n=" + std::to_string(ops.size()) + ", " + scaled);
  const std::string detail = latency_of + " n=" + std::to_string(latency_ms.size()) + ", " + scaled;
  r->Add("op_ms_p50", p50 / pace, "ms", detail);
  r->Add("op_ms_p90", p90 / pace, "ms", detail);
  r->notes.push_back("raw: ops_per_s " + std::to_string(rate) + ", p50 " + std::to_string(p50) +
                     " ms, p90 " + std::to_string(p90) + " ms; reference computation median " +
                     std::to_string(Median(pace_ms)) + " ms over " +
                     std::to_string(pace_ms.size()) + " runs");
}

// Every operation's raw latency in ms.
std::vector<double> Latencies(const std::vector<OpSample>& ops) {
  std::vector<double> ms;
  for (const OpSample& op : ops) ms.push_back((op.end_s - op.start_s) * 1e3);
  return ms;
}

// Per-layer metrics every workload reports from its spans.
void ReportCommonLayers(const SpanRecorder& rec, const SchedTotals& sched,
                        RunResult* r) {
  for (const std::string& span : kTimedSpans) {
    const SpanStat s = rec.Stat(span);
    r->Add(span + "_ms", s.mean_ms(), "ms", Count(static_cast<std::size_t>(s.calls)));
  }
  const SpanStat cells = rec.Stat("explore.cell");
  const SpanStat traces = rec.Stat("sim.stg_sim");
  r->Add("sim.traces",
         cells.calls == 0 ? 0.0 : static_cast<double>(traces.calls) / cells.calls,
         "count", "per cell");
  sched.Report(r);
  const LayerTable table = rec.Layers({"explore.cell"});
  for (const std::string& layer : kCellLayers) {
    const auto it = table.self_ns.find(layer);
    const double self = it == table.self_ns.end() ? 0.0 : it->second;
    if (layer == "explore") {
      // The cell's own time outside every layer call; the other layers'
      // self times equal their *_ms spans times calls.
      r->Add("explore.self_ms", table.ops == 0 ? 0.0 : self / table.ops / 1e6, "ms",
             Count(static_cast<std::size_t>(table.ops)));
    }
    r->Add(layer + ".share_pct", table.op_ns == 0 ? 0.0 : 100.0 * self / table.op_ns,
           "%");
  }
}

// Both rates at the reference pace of their own phase, so a change of the
// host's speed between the phases does not read as tracing overhead.
void ReportTraceOverhead(double untraced_ops_per_s, double traced_ops_per_s,
                         RunResult* r) {
  r->Add("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s");
  r->Add("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
  r->Add("trace.overhead_pct",
         untraced_ops_per_s == 0
             ? 0.0
             : 100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
         "%");
}

std::unique_ptr<ws::ArtifactStore> OpenStore(const std::string& dir,
                                             std::string* error) {
  ws::ArtifactStoreOptions options;
  options.dir = dir;
  ws::Result<std::unique_ptr<ws::ArtifactStore>> store =
      ws::ArtifactStore::Open(options);
  if (!store.ok()) {
    *error = store.error();
    return nullptr;
  }
  return std::move(*store);
}

std::string PrivateDir(const Options& o, const std::string& what) {
  return o.out_dir + "/" + what + "-" + std::to_string(::getpid());
}

// --- Sweeps: table1_sweep and spec_heavy ----------------------------------

constexpr int kSpecHeavyStimuli = 128;

// The stimulus seed of input set k of a run with seed `seed`.
std::uint64_t InputSeed(std::uint64_t seed, int k) {
  return 1998 + 1000 * seed + static_cast<std::uint64_t>(k);
}

struct SweepCell {
  const ws::ExploreSpec* spec;
  ws::ExploreCell cell;
};

// A cell's result kept to compare later runs of the same cell against. The
// STG itself is dropped, keeping peak RSS the workload's; its digest stays.
struct Reference {
  ws::ExploreRun run;
  std::string canonical;
  std::size_t stg = 0;

  explicit Reference(ws::ExploreRun r)
      : run(std::move(r)), canonical(Canonical(run)), stg(StgDigest(run)) {
    run.stg = ws::Stg{""};
  }
  bool Matches(const ws::ExploreRun& other) const {
    return Canonical(other) == canonical && StgDigest(other) == stg;
  }
};

class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(Options o) : o_(std::move(o)) {}

  bool SetUp(std::string* error) override {
    if (o_.workload == "table1_sweep") {
      // The paper's Table 1 method: every suite row plus fig4 in all three
      // modes, 50 Gaussian traces per cell, area on.
      quality_sets_ = 8;
      ws::ExploreSpec& spec = templates_.emplace_back();
      spec.num_stimuli = 50;
      spec.measure_area = true;
      for (const char* name : {"barcode", "gcd", "test1", "tlc", "findmin", "fig4"}) {
        spec.designs.push_back({name, ""});
      }
      spec.modes = {ws::SpeculationMode::kWavesched, ws::SpeculationMode::kSinglePath,
                    ws::SpeculationMode::kWaveschedSpec};
    } else {
      // Scheduler-bound: ~1k-state STGs from memory speculation, plus two
      // inline sources.
      quality_sets_ = 4;
      ws::ExploreSpec& mem = templates_.emplace_back();
      mem.num_stimuli = kSpecHeavyStimuli;
      mem.measure_area = true;
      mem.base_options.mem_spec = true;
      for (const char* name : {"histogram", "sieve", "sparse_accum"}) {
        mem.designs.push_back({name, ""});
      }
      mem.modes = {ws::SpeculationMode::kSinglePath, ws::SpeculationMode::kWaveschedSpec};
      // popcount runs in single-path mode only: in spec mode it exhausts
      // the state cap after minutes.
      const std::pair<const char*, ws::SpeculationMode> inline_cells[] = {
          {"gcd", ws::SpeculationMode::kWaveschedSpec},
          {"popcount", ws::SpeculationMode::kSinglePath}};
      for (const auto& [name, mode] : inline_cells) {
        ws::DesignSpec design{name, ""};
        const std::string path = o_.designs_dir + "/" + name + ".beh";
        if (!ReadFile(path, &design.source)) {
          *error = "cannot read " + path;
          return false;
        }
        ws::ExploreSpec& spec = templates_.emplace_back(templates_.front());
        spec.designs = {design};
        spec.modes = {mode};
      }
    }
    if (o_.trace) {
      probe_store_dir_ = PrivateDir(o_, "probe-store");
      probe_store_ = OpenStore(probe_store_dir_, error);
      if (probe_store_ == nullptr) return false;
    }
    return true;
  }

  RunResult Run() override {
    RunResult r;
    // Untraced passes: RunExploreCell per cell, timed from outside. Pass p
    // draws fresh inputs, set InputSeed(seed, p), so the timings average
    // over many draws. The first quality_sets_ passes are fixed for the
    // seed: their results are the quality metrics and the reference later
    // runs of the same cells must reproduce. Every pass starts with the
    // reference computation that gauges the host's pace. A traced run
    // spends a third of its time here, for the untraced rate of the
    // overhead figure, and the rest on traced passes.
    const double untraced_s = o_.trace ? o_.seconds / 3.0 : o_.seconds;
    std::vector<Reference> reference;  // cell i of quality set k at k * set_size + i
    std::vector<OpSample> ops;    // typed by the cell's index in its pass
    std::vector<double> pace_ms;  // the reference computation, once per pass
    const Clock::time_point start = Clock::now();
    int pass = 0;
    do {
      pace_ms.push_back(RunReferenceKernel());
      std::deque<ws::ExploreSpec> specs;
      const std::vector<SweepCell> cells = Cells(pass, &specs);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const double t = SecondsSince(start);
        ws::ExploreRun run = ws::RunExploreCell(*cells[i].spec, cells[i].cell);
        ops.push_back({t, SecondsSince(start), static_cast<int>(i)});
        ++r.attempted;
        if (!run.ok) {
          ++r.failed;
          r.notes.push_back("cell " + run.design + " failed: " + run.error);
        }
        if (pass < quality_sets_) reference.emplace_back(std::move(run));
      }
      ++pass;
    } while (SecondsSince(start) < untraced_s || pass < quality_sets_);
    const double wall_s = SecondsSince(start);
    const std::size_t set_size = reference.size() / static_cast<std::size_t>(quality_sets_);
    r.notes.push_back("cells: " + std::to_string(ops.size()) + " timed in " +
                      std::to_string(pass) + " passes, one input set each, " +
                      std::to_string(wall_s) + " s");

    if (!o_.trace) {
      // Determinism: the first input set once more, untimed.
      std::deque<ws::ExploreSpec> specs;
      const std::vector<SweepCell> cells = Cells(0, &specs);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        ++r.attempted;
        if (!reference[i].Matches(ws::RunExploreCell(*cells[i].spec, cells[i].cell))) {
          ++r.failed;
          r.notes.push_back("cell " + reference[i].run.design + " changed between runs");
        }
      }
      std::vector<const ws::ExploreRun*> quality;
      for (const Reference& ref : reference) quality.push_back(&ref.run);
      ReportRates(ops, wall_s - Sum(pace_ms) / 1e3, TypeMeans(ops), "cell-type means,",
                  pace_ms, &r);
      ReportQuality(quality, &r);
      return r;
    }

    // Traced passes cycle over the quality sets through TracedCell; each
    // cell is compared with its untraced result and checked trace by trace
    // against the interpreter. The layer probes run outside the cell spans.
    const Clock::time_point traced_start = Clock::now();
    std::vector<double> traced_pace_ms;
    double traced_busy_s = 0.0;
    std::int64_t traced_ops = 0;
    std::uint64_t op = 0;
    pass = 0;
    do {
      traced_pace_ms.push_back(RunReferenceKernel());
      std::deque<ws::ExploreSpec> specs;
      const int k = pass % quality_sets_;
      const std::vector<SweepCell> cells = Cells(k, &specs);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell& c = cells[i];
        ++op;
        int mismatches = 0;
        const Clock::time_point t = Clock::now();
        const ws::ExploreRun run = TracedCell(*c.spec, c.cell, op, &mismatches);
        traced_busy_s += SecondsSince(t);
        ++traced_ops;
        ++r.attempted;
        sched_.Add(run);
        if (mismatches != 0 || !reference[k * set_size + i].Matches(run)) {
          ++r.failed;
          r.notes.push_back("traced cell " + run.design + " disagrees (" +
                            std::to_string(mismatches) + " trace mismatches)");
        }
        ProbeBuildLayers(*c.spec, c.cell, op);
        if (!ProbeIo(run, probe_store_.get(), op)) {
          ++r.failed;
          r.notes.push_back("artifact round trip of " + run.design + " failed");
        }
      }
      ++pass;
    } while (SecondsSince(traced_start) < o_.seconds - untraced_s);
    double untraced_busy_s = 0.0;
    for (const OpSample& o : ops) untraced_busy_s += o.end_s - o.start_s;
    ReportTraceOverhead(
        static_cast<double>(ops.size()) / untraced_busy_s * PaceFactor(pace_ms),
        static_cast<double>(traced_ops) / traced_busy_s * PaceFactor(traced_pace_ms), &r);
    r.notes.push_back("traced cells: " + std::to_string(traced_ops));
    return r;
  }

  void TearDown() override {
    probe_store_.reset();
    if (!probe_store_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(probe_store_dir_, ec);
      probe_store_dir_.clear();
    }
  }

  void ReportLayers(const SpanRecorder& rec, RunResult* r) override {
    ReportCommonLayers(rec, sched_, r);
    for (const char* name : {"serve.hit_ms_p50", "serve.miss_ms_p50"}) r->Add(name, 0, "ms");
    for (const char* name : {"serve.hits", "serve.misses", "serve.coalesced",
                             "serve.sched_runs", "adapt.swaps"}) {
      r->Add(name, 0, "count");
    }
    r->Add("serve.cache_hit_ratio", 0, "ratio");
  }

 private:
  // The cells of input set k: every template's grid at stimulus seed
  // InputSeed(seed, k). `specs` owns the specs the cells point into.
  std::vector<SweepCell> Cells(int k, std::deque<ws::ExploreSpec>* specs) const {
    std::vector<SweepCell> cells;
    for (const ws::ExploreSpec& t : templates_) {
      ws::ExploreSpec& spec = specs->emplace_back(t);
      spec.seed = InputSeed(o_.seed, k);
      for (const ws::ExploreCell& c : ws::ExpandExploreGrid(spec)) cells.push_back({&spec, c});
    }
    return cells;
  }

  const Options o_;
  std::vector<ws::ExploreSpec> templates_;
  int quality_sets_ = 1;
  std::string probe_store_dir_;
  std::unique_ptr<ws::ArtifactStore> probe_store_;
  SchedTotals sched_;
};

// --- serve_mixed -----------------------------------------------------------

constexpr int kServeStimuli = 20;
constexpr int kClients = 2;

struct PlanItem {
  enum Kind { kCold, kHot, kProfile } kind = kCold;
  ws::CellRequest request;
  int hot = -1;  // index into the hot set (kHot, kProfile)
};

struct Reply {
  std::string key;        // EncodeCellRequest bytes
  std::string canonical;  // Canonical(run)
  ws::ExploreRun run;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(Options o) : o_(std::move(o)) {}

  bool SetUp(std::string* error) override {
    std::vector<ws::DesignSpec> inline_designs;
    for (const char* name : {"gcd", "findmin"}) {
      ws::DesignSpec design{std::string(name) + ".beh", ""};
      const std::string path = o_.designs_dir + "/" + name + ".beh";
      if (!ReadFile(path, &design.source)) {
        *error = "cannot read " + path;
        return false;
      }
      inline_designs.push_back(design);
    }
    pool_ = {{"gcd", ""}, {"barcode", ""}, {"test1", ""}, {"findmin", ""},
             {"fig4", ""}, {"tlc", ""}, inline_designs[0], inline_designs[1]};
    // The hot set: six fixed cells, the same for every run seed; the seed
    // varies the cold cells and the order. A hit's cost depends on its
    // cell's stimuli (the daemon builds the design before its cache
    // lookup), so per-seed hot stimuli would shift op_ms_p50 from seed to
    // seed. The first two also receive PROFILE reports, so the adapt lane
    // may swap their artifacts.
    const std::pair<ws::DesignSpec, ws::SpeculationMode> hot[] = {
        {{"barcode", ""}, ws::SpeculationMode::kSinglePath},
        {{"gcd", ""}, ws::SpeculationMode::kWaveschedSpec},
        {{"test1", ""}, ws::SpeculationMode::kWaveschedSpec},
        {{"findmin", ""}, ws::SpeculationMode::kWavesched},
        {inline_designs[0], ws::SpeculationMode::kWaveschedSpec},
        {inline_designs[1], ws::SpeculationMode::kSinglePath}};
    for (const auto& [design, mode] : hot) {
      hot_.push_back(MakeRequest(design, mode, 1998));
    }
    for (int i = 0; i < kProfiled; ++i) {
      const ws::CellRequest& req = hot_[static_cast<std::size_t>(i)];
      ws::Result<ws::Benchmark> b = ws::BuildExploreDesign(req.design, req.ToSpec());
      if (!b.ok()) {
        *error = b.error();
        return false;
      }
      profiles_.push_back(ws::ProfileFromInterp(b->graph, b->stimuli));
    }

    std::error_code ec;
    std::filesystem::create_directories(o_.out_dir, ec);
    store_dir_ = PrivateDir(o_, "store");
    socket_path_ = PrivateDir(o_, "ws") + ".sock";
    ws::ServerOptions options;
    options.unix_path = socket_path_;
    options.shards = 2;
    options.workers = 2;
    options.store_dir = store_dir_;
    server_ = std::make_unique<ws::ServeServer>(options);
    if (const ws::Status s = server_->Start(); !s.ok()) {
      *error = "server start: " + s.message();
      return false;
    }
    for (int i = 0; i < kClients; ++i) {
      ws::Result<ws::ServeClient> client = ws::ServeClient::Connect("unix:" + socket_path_);
      if (!client.ok()) {
        *error = "connect: " + client.error();
        return false;
      }
      clients_.push_back(std::move(*client));
    }
    return true;
  }

  RunResult Run() override {
    RunResult r;
    // A traced run measures its first third untraced for the overhead
    // figure; spans are on for the rest.
    const double untraced_s = o_.trace ? o_.seconds / 3.0 : o_.seconds;
    SpanRecorder* recorder = g_recorder;
    g_recorder = nullptr;
    const Phase untraced = RunPhase(untraced_s, &r);
    Phase traced;
    if (o_.trace) {
      g_recorder = recorder;
      traced = RunPhase(o_.seconds - untraced_s, &r);
    }

    ws::MetricsRegistry& m = server_->metrics();
    hits_ = m.counter("serve.cache_hits")->value();
    misses_ = m.counter("serve.cache_misses")->value();
    coalesced_ = m.counter("serve.coalesced")->value();
    sched_runs_ = m.counter("serve.sched_runs")->value();
    swaps_ = m.counter("serve.adapt_swaps")->value();
    clients_.clear();
    server_->Stop();

    if (!o_.trace) {
      ReportRates(untraced.ops, untraced.wall_s, Latencies(untraced.ops), "all ops,",
                  untraced.pace_ms, &r);
    } else {
      ReportTraceOverhead(
          untraced.ops.size() / untraced.wall_s * PaceFactor(untraced.pace_ms),
          traced.ops.size() / traced.wall_s * PaceFactor(traced.pace_ms), &r);
    }
    Verify(&r);
    return r;
  }

  void TearDown() override {
    clients_.clear();
    if (server_ != nullptr) {
      server_->Stop();
      server_.reset();
    }
    ref_store_.reset();
    std::error_code ec;
    for (const std::string& path : {store_dir_, socket_path_, ref_store_dir_}) {
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  }

  void ReportLayers(const SpanRecorder& rec, RunResult* r) override {
    ReportCommonLayers(rec, sched_, r);
    r->Add("serve.hit_ms_p50", Quantile(hit_ms_, 0.5), "ms", Count(hit_ms_.size()));
    r->Add("serve.miss_ms_p50", Quantile(miss_ms_, 0.5), "ms", Count(miss_ms_.size()));
    r->Add("serve.hits", static_cast<double>(hit_ms_.size()), "count");
    r->Add("serve.misses", static_cast<double>(miss_ms_.size()), "count");
    r->Add("serve.coalesced", static_cast<double>(coalesced_), "count");
    r->Add("serve.sched_runs", static_cast<double>(sched_runs_), "count");
    r->Add("adapt.swaps", static_cast<double>(swaps_), "count");
    r->Add("serve.cache_hit_ratio",
           hits_ + misses_ == 0 ? 0.0
                                : static_cast<double>(hits_) / static_cast<double>(hits_ + misses_),
           "ratio");
  }

 private:
  static constexpr int kProfiled = 2;
  // Plan cycles: kCycle operations, kCold cold cells and kHot hot repeats,
  // the rest PROFILE reports. Hits and reports take ~1-3 ms, cold cells
  // ~1-50 ms; with 55% cold the median operation lies among the cold
  // cells, not on the edge between the two groups, where it would jump.
  static constexpr int kCycle = 20, kCold = 11, kHot = 7;
  // 24 cycles walk design x mode (24 combinations) 11 times and the six
  // hot cells 28 times: the cold cells that count toward quality.
  static constexpr int kQualityCycles = 24;

  struct Phase {
    std::vector<OpSample> ops;
    std::vector<double> pace_ms;  // the reference computation, once per cycle
    double wall_s = 0.0;
  };

  ws::CellRequest MakeRequest(const ws::DesignSpec& design, ws::SpeculationMode mode,
                              std::uint64_t seed) const {
    ws::ExploreSpec spec;
    spec.designs = {design};
    spec.modes = {mode};
    spec.num_stimuli = kServeStimuli;
    spec.seed = seed;
    spec.measure_area = true;
    return ws::MakeCellRequest(spec, ws::ExpandExploreGrid(spec).front());
  }

  // One past the last plan index whose cold cell counts toward quality.
  std::uint64_t QualityPlanEnd() const { return hot_.size() + kQualityCycles * kCycle; }

  // The i-th operation of the seed's request stream: the hot set once in
  // order, then cycles of kCycle operations with a fixed mix — 11 cold
  // cells (distinct seeds, walking design x mode), 7 hot repeats and 2
  // PROFILE reports on the profiled hot cells — in a seed-shuffled order.
  PlanItem Plan(std::uint64_t i) const {
    static const ws::SpeculationMode kModes[] = {ws::SpeculationMode::kWavesched,
                                                 ws::SpeculationMode::kSinglePath,
                                                 ws::SpeculationMode::kWaveschedSpec};
    PlanItem item;
    if (i < hot_.size()) {
      item.kind = PlanItem::kHot;
      item.hot = static_cast<int>(i);
      item.request = hot_[i];
      return item;
    }
    const std::uint64_t j = i - hot_.size();
    const std::uint64_t cycle = j / kCycle;
    // Fisher-Yates over the cycle's slots, keyed on (seed, cycle).
    int slots[kCycle];
    for (int k = 0; k < kCycle; ++k) slots[k] = k;
    std::uint64_t state = ws::SplitMix64(o_.seed * 0x9e3779b97f4a7c15ull ^ cycle);
    for (int k = kCycle - 1; k > 0; --k) {
      state = ws::SplitMix64(state);
      std::swap(slots[k], slots[state % static_cast<std::uint64_t>(k + 1)]);
    }
    const int slot = slots[j % kCycle];
    if (slot < kCold) {
      const std::uint64_t combo = (cycle * kCold + slot + o_.seed) % (pool_.size() * 3);
      item.kind = PlanItem::kCold;
      item.request = MakeRequest(pool_[combo % pool_.size()], kModes[combo / pool_.size()],
                                 1998 + 1000000 * (o_.seed + 1) + i);
    } else if (slot < kCold + kHot) {
      item.kind = PlanItem::kHot;
      item.hot = static_cast<int>((cycle * kHot + slot - kCold) % hot_.size());
      item.request = hot_[static_cast<std::size_t>(item.hot)];
    } else {
      item.kind = PlanItem::kProfile;
      item.hot = slot - kCold - kHot;
      item.request = hot_[static_cast<std::size_t>(item.hot)];
    }
    return item;
  }

  // Closed loop: each client takes the next plan item, waits for its reply,
  // and repeats until the phase's time is up.
  Phase RunPhase(double seconds, RunResult* r) {
    Phase phase;
    std::mutex mu;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (ws::ServeClient& client : clients_) {
      threads.emplace_back([&, client_ptr = &client] {
        std::vector<OpSample> ops;
        std::vector<double> pace_ms, hit_ms, miss_ms;
        std::vector<Reply> replies;
        std::int64_t attempted = 0, failed = 0;
        std::vector<std::string> notes;
        for (;;) {
          // Past the time limit, only the quality cells still to be served
          // keep a client going.
          const std::uint64_t i = next_.fetch_add(1);
          if (SecondsSince(start) >= seconds && i >= QualityPlanEnd()) break;
          // The client that draws a cycle's first item runs the reference
          // computation first; the other client's request runs meanwhile.
          if (i % kCycle == 0) pace_ms.push_back(RunReferenceKernel());
          const PlanItem item = Plan(i);
          ++attempted;
          const double t = SecondsSince(start);
          if (item.kind == PlanItem::kProfile) {
            ScopedSpan span("adapt.report", i + 1);
            ws::Result<std::string> ack = client_ptr->ReportProfile(
                item.request, profiles_[static_cast<std::size_t>(item.hot)]);
            if (!ack.ok()) {
              ++failed;
              notes.push_back("PROFILE failed: " + ack.error());
            }
            ops.push_back({t, SecondsSince(start)});
            continue;
          }
          std::optional<ws::Result<ws::ScheduleArtifact>> art;
          {
            ScopedSpan span("serve.request", i + 1);
            std::optional<ws::Result<ws::Ticket>> ticket;
            {
              ScopedSpan submit("serve.submit");
              ticket.emplace(client_ptr->Submit(item.request));
            }
            if (ticket->ok()) {
              ScopedSpan wait("serve.wait");
              art.emplace(client_ptr->Wait(**ticket));
            } else {
              art.emplace(ticket->status());
            }
          }
          ops.push_back({t, SecondsSince(start)});
          const double dt = (ops.back().end_s - t) * 1e3;
          if (!art->ok() || !(*art)->run.ok) {
            ++failed;
            notes.push_back("request " + item.request.design.name + " failed: " +
                            (art->ok() ? (*art)->run.error : art->error()));
            continue;
          }
          ((*art)->cache_hit ? hit_ms : miss_ms).push_back(dt);
          if (item.kind == PlanItem::kHot && item.hot < kProfiled) continue;
          replies.push_back(Reply{ws::EncodeCellRequest(item.request),
                                  Canonical((*art)->run), std::move((*art)->run)});
        }
        std::lock_guard<std::mutex> lock(mu);
        phase.ops.insert(phase.ops.end(), ops.begin(), ops.end());
        phase.pace_ms.insert(phase.pace_ms.end(), pace_ms.begin(), pace_ms.end());
        hit_ms_.insert(hit_ms_.end(), hit_ms.begin(), hit_ms.end());
        miss_ms_.insert(miss_ms_.end(), miss_ms.begin(), miss_ms.end());
        for (Reply& reply : replies) replies_.push_back(std::move(reply));
        r->attempted += attempted;
        r->failed += failed;
        for (std::string& note : notes) r->notes.push_back(std::move(note));
      });
    }
    for (std::thread& t : threads) t.join();
    phase.wall_s = SecondsSince(start);
    return phase;
  }

  // Every reply of a never-profiled cell must equal an in-process
  // RunExploreCell of the same request (TracedCell in traced runs) in
  // canonical form.
  void Verify(RunResult* r) {
    std::map<std::string, std::vector<const Reply*>> by_key;
    for (const Reply& reply : replies_) by_key[reply.key].push_back(&reply);
    std::vector<const std::vector<const Reply*>*> groups;
    for (const auto& [key, group] : by_key) groups.push_back(&group);
    std::vector<std::string> want(groups.size());
    std::vector<int> mismatched(groups.size(), 0);
    std::string error;
    if (o_.trace) {
      ref_store_dir_ = PrivateDir(o_, "probe-store");
      ref_store_ = OpenStore(ref_store_dir_, &error);
    }
    std::atomic<int> io_failures{0};
    {
      ws::ThreadPool pool(3);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        pool.Submit([&, g] {
          const ws::Result<ws::CellRequest> req =
              ws::DecodeCellRequest(groups[g]->front()->key);
          const ws::ExploreSpec spec = req->ToSpec();
          const ws::ExploreCell cell = req->ToCell();
          const std::uint64_t op = 1000000 + g;
          if (!o_.trace) {
            want[g] = Canonical(ws::RunExploreCell(spec, cell));
            return;
          }
          const ws::ExploreRun run = TracedCell(spec, cell, op, &mismatched[g]);
          sched_.Add(run);
          want[g] = Canonical(run);
          if (g < 32) ProbeBuildLayers(spec, cell, op);
          if (ref_store_ == nullptr || !ProbeIo(run, ref_store_.get(), op)) ++io_failures;
        });
      }
      pool.Wait();
    }
    std::size_t checked = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const Reply* reply : *groups[g]) {
        ++checked;
        if (reply->canonical != want[g] || mismatched[g] != 0) {
          ++r->failed;
          r->notes.push_back("reply for " + reply->run.design +
                             " differs from the in-process result");
        }
      }
    }
    if (io_failures != 0) {
      r->failed += io_failures;
      r->notes.push_back("artifact round trips failed: " + std::to_string(io_failures.load()));
    }
    r->notes.push_back("verified " + std::to_string(checked) + " replies over " +
                       std::to_string(groups.size()) + " distinct cells");

    // Quality over the unprofiled hot cells and the cold cells of the first
    // kQualityCycles plan cycles (eleven walks over design x mode): the same
    // cells in every run of a seed.
    if (o_.trace) return;
    std::vector<ws::CellRequest> fixed(hot_.begin() + kProfiled, hot_.end());
    for (std::uint64_t i = hot_.size(); i < QualityPlanEnd(); ++i) {
      const PlanItem item = Plan(i);
      if (item.kind == PlanItem::kCold) fixed.push_back(item.request);
    }
    std::vector<const ws::ExploreRun*> quality;
    for (const ws::CellRequest& req : fixed) {
      const auto it = by_key.find(ws::EncodeCellRequest(req));
      if (it == by_key.end()) {
        ++r->failed;
        r->notes.push_back("cell " + req.design.name + " was never served");
        continue;
      }
      quality.push_back(&it->second.front()->run);
    }
    ReportQuality(quality, r);
  }

  const Options o_;
  std::vector<ws::DesignSpec> pool_;
  std::vector<ws::CellRequest> hot_;
  std::vector<ws::BranchProfile> profiles_;
  std::string store_dir_, socket_path_, ref_store_dir_;
  std::unique_ptr<ws::ServeServer> server_;
  std::vector<ws::ServeClient> clients_;
  std::unique_ptr<ws::ArtifactStore> ref_store_;
  std::atomic<std::uint64_t> next_{0};
  std::deque<Reply> replies_;
  std::vector<double> hit_ms_, miss_ms_;
  std::int64_t hits_ = 0, misses_ = 0, coalesced_ = 0, sched_runs_ = 0, swaps_ = 0;
  SchedTotals sched_;
};

}  // namespace

void RunResult::Add(const std::string& name, double value, const std::string& unit,
                    const std::string& detail) {
  metrics.push_back(Metric{name, value, unit, detail});
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "table1_sweep" || options.workload == "spec_heavy") {
    return std::make_unique<SweepWorkload>(options);
  }
  if (options.workload == "serve_mixed") return std::make_unique<ServeWorkload>(options);
  return nullptr;
}

std::vector<std::string> EndToEndMetricNames() {
  return {"setup_s",         "ops_per_s",    "op_ms_p50",    "op_ms_p90",
          "enc_sim_geomean", "states_total", "area_geomean", "peak_rss_mb"};
}

std::vector<std::string> PerLayerMetricNames() {
  std::vector<std::string> names;
  for (const std::string& span : kTimedSpans) names.push_back(span + "_ms");
  names.push_back("sim.traces");
  for (const char* s :
       {"successor_ms", "cofactor_ms", "closure_ms", "select_ms", "gc_ms",
        "states_created", "closure_hits", "closure_hit_ratio", "candidates",
        "speculative_ops", "squash_ratio", "bdd_ops", "bdd_nodes"}) {
    names.push_back(std::string("sched.") + s);
  }
  names.push_back("explore.self_ms");
  for (const std::string& layer : kCellLayers) names.push_back(layer + ".share_pct");
  for (const char* s : {"serve.hit_ms_p50", "serve.miss_ms_p50", "serve.hits",
                        "serve.misses", "serve.cache_hit_ratio", "serve.coalesced",
                        "serve.sched_runs", "adapt.swaps", "trace.untraced_ops_per_s",
                        "trace.traced_ops_per_s", "trace.overhead_pct"}) {
    names.push_back(s);
  }
  return names;
}

}  // namespace perfbench
