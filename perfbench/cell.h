// One explore cell, run through the same public calls RunExploreCell makes
// but timed one layer at a time from outside, plus the canonical form the
// benchmark compares runs by.
#ifndef PERFBENCH_CELL_H
#define PERFBENCH_CELL_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "explore/explore.h"

namespace ws {
class ArtifactStore;
}

namespace perfbench {

// EncodeRunBody of `run` with its timing fields (wall time, scheduler phase
// times) zeroed. It covers the run's identity, quality metrics (E.N.C.,
// states, cycles, area) and scheduler counters, but not the STG itself:
// equal strings mean equal summaries. A served reply carries no STG, so
// this is all the serve check can compare.
std::string Canonical(const ws::ExploreRun& run);

// A digest of EncodeStg(run.stg), for comparing the schedules themselves
// without keeping them.
std::size_t StgDigest(const ws::ExploreRun& run);

// Mirrors RunExploreCell (minus the artifact store) under spans:
// suite.build, mem.relax, sched.schedule, analysis.markov, analysis.bounds,
// sim.stg_sim + sim.golden per trace (their outputs compared on every
// trace), rtl.area, all nested in an explore.cell root span. The run keeps
// its STG, as RunExploreCell's does. Adds to
// `*trace_mismatches` each trace whose STG outputs differ from Interpret's.
ws::ExploreRun TracedCell(const ws::ExploreSpec& spec,
                          const ws::ExploreCell& cell, std::uint64_t op,
                          int* trace_mismatches);

// Out-of-operation probes for layers that run inside other calls and so
// cannot be timed from outside: ProfileBranchProbabilities on a copy of the
// built graph (sim.profile, which runs inside suite.build) and
// CompileBehavioral on inline sources (lang.compile, likewise). Each probe
// is its own root span.
void ProbeBuildLayers(const ws::ExploreSpec& spec, const ws::ExploreCell& cell,
                      std::uint64_t op);

// Round-trips `run` through the artifact codec (io.encode, io.decode) and
// the store (io.store_put, io.store_get) as root spans; returns false when
// a round trip does not reproduce the run's canonical bytes.
bool ProbeIo(const ws::ExploreRun& run, ws::ArtifactStore* store,
             std::uint64_t op);

}  // namespace perfbench

#endif  // PERFBENCH_CELL_H
