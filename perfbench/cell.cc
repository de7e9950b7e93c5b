#include "cell.h"

#include <functional>
#include <optional>
#include <utility>

#include "analysis/metrics.h"
#include "base/status.h"
#include "explore/run_codec.h"
#include "io/codec.h"
#include "io/artifact_store.h"
#include "lang/lower.h"
#include "mem/disambig.h"
#include "rtl/rtl.h"
#include "sim/interpreter.h"
#include "sim/stg_sim.h"
#include "spans.h"

namespace perfbench {

std::string Canonical(const ws::ExploreRun& run) {
  ws::ExploreRun copy = run;
  copy.wall_ms = 0.0;
  copy.stats.phase = ws::SchedulePhaseTimes{};
  return ws::EncodeRunBody(copy);
}

std::size_t StgDigest(const ws::ExploreRun& run) {
  return std::hash<std::string>{}(ws::EncodeStg(run.stg));
}

ws::ExploreRun TracedCell(const ws::ExploreSpec& spec,
                          const ws::ExploreCell& cell, std::uint64_t op,
                          int* trace_mismatches) {
  ScopedSpan cell_span("explore.cell", op);
  ws::ExploreRun run;
  run.design = cell.design.name;
  run.mode = cell.mode;
  run.policy = cell.policy;
  run.mem_spec = cell.mem_spec;
  run.allocation = cell.alloc.label;
  run.clock = cell.clock.label;

  std::optional<ws::Result<ws::Benchmark>> bench;
  {
    ScopedSpan span("suite.build");
    bench.emplace(ws::BuildExploreDesign(cell.design, spec));
  }
  if (!bench->ok()) {
    run.error = bench->error();
    run.error_code = bench->status().code();
    return run;
  }
  const ws::Benchmark& b = **bench;
  ws::Result<ws::Allocation> allocation = ws::BuildExploreAllocation(b, cell.alloc);
  if (!allocation.ok()) {
    run.error = allocation.error();
    run.error_code = allocation.status().code();
    return run;
  }
  const ws::ScheduleRequest request =
      ws::MakeCellScheduleRequest(spec, b, *allocation, cell);

  // The activation predicate RunBenchmarkCell uses: analyses run against
  // the relaxed graph whenever the scheduler saw one.
  std::optional<ws::MemSpecResult> relaxed;
  const ws::Cdfg* graph = &b.graph;
  if (request.options.mem_spec &&
      request.options.mode != ws::SpeculationMode::kWavesched) {
    ScopedSpan span("mem.relax");
    ws::MemSpecResult r = ws::ApplyMemSpec(b.graph);
    if (r.lsq.active()) {
      relaxed = std::move(r);
      graph = &relaxed->graph;
    }
  }

  std::optional<ws::Result<ws::ScheduleReport>> report;
  {
    ScopedSpan span("sched.schedule");
    report.emplace(ws::Schedule(request));
  }
  if (!report->ok()) {
    run.error = report->error();
    run.error_code = report->status().code();
    return run;
  }
  const ws::Stg& stg = (*report)->stg;
  run.stats = (*report)->stats;
  run.states = stg.num_work_states();
  run.op_initiations = stg.num_op_initiations();
  run.worst_case_budget = b.worst_case_budget;
  try {
    {
      ScopedSpan span("analysis.markov");
      run.enc_markov = ws::ExpectedCycles(stg, *graph);
    }
    {
      ScopedSpan span("analysis.bounds");
      run.best_case = ws::BestCaseCycles(stg);
      run.worst_case = ws::WorstCaseCycles(stg, b.worst_case_budget);
    }
    if (spec.measure_sim_enc) {
      // MeasureExpectedCycles, split so each simulator is timed on its own
      // and every trace's outputs are compared here rather than trusted.
      double total = 0.0;
      for (const ws::Stimulus& s : b.stimuli) {
        std::optional<ws::StgSimResult> sim;
        {
          ScopedSpan span("sim.stg_sim");
          sim.emplace(ws::SimulateStg(stg, *graph, s));
        }
        std::optional<ws::InterpResult> golden;
        {
          ScopedSpan span("sim.golden");
          golden.emplace(ws::Interpret(*graph, s));
        }
        for (const auto& [out, value] : golden->outputs) {
          const auto it = sim->outputs.find(out);
          if (it == sim->outputs.end() || it->second != value) {
            ++*trace_mismatches;
            break;
          }
        }
        total += static_cast<double>(sim->cycles);
      }
      run.enc_sim = total / static_cast<double>(b.stimuli.size());
    }
    if (spec.measure_area) {
      ScopedSpan span("rtl.area");
      run.area = ws::EstimateArea(stg, *graph, b.library, b.stimuli.at(0),
                                  ws::AreaModel{}, &*allocation)
                     .total;
    }
  } catch (const ws::Error& e) {
    run.error = std::string("analysis: ") + e.what();
    run.error_code = ws::StatusCode::kInternal;
    return run;
  }
  run.stg = std::move((**report).stg);
  run.ok = true;
  return run;
}

void ProbeBuildLayers(const ws::ExploreSpec& spec, const ws::ExploreCell& cell,
                      std::uint64_t op) {
  if (!cell.design.source.empty()) {
    ScopedSpan span("lang.compile", op);
    (void)ws::CompileBehavioral(cell.design.name, cell.design.source);
  }
  ws::Result<ws::Benchmark> bench = ws::BuildExploreDesign(cell.design, spec);
  if (!bench.ok()) return;
  ws::Cdfg copy = bench->graph;
  ScopedSpan span("sim.profile", op);
  (void)ws::ProfileBranchProbabilities(copy, bench->stimuli);
}

bool ProbeIo(const ws::ExploreRun& run, ws::ArtifactStore* store,
             std::uint64_t op) {
  std::string bytes;
  {
    ScopedSpan span("io.encode", op);
    bytes = ws::EncodeRunArtifact(run);
  }
  std::optional<ws::Result<ws::ExploreRun>> decoded;
  {
    ScopedSpan span("io.decode", op);
    decoded.emplace(ws::DecodeRunArtifact(bytes));
  }
  const std::string want = Canonical(run);
  bool ok = decoded->ok() && Canonical(**decoded) == want;
  const ws::Fp128 key{op * 0x9e3779b97f4a7c15ull + 1, op};
  {
    ScopedSpan span("io.store_put", op);
    ok = store->Put(key, bytes).ok() && ok;
  }
  std::optional<std::string> back;
  {
    ScopedSpan span("io.store_get", op);
    back = store->Get(key);
  }
  return ok && back.has_value() && *back == bytes;
}

}  // namespace perfbench
