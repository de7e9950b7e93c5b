// Host pace: how fast the machine runs right now.
//
// The benchmark shares its host with other machines' work, and over a run
// of 30 s the host can be a third slower or faster than over the next.
// Every end-to-end timing the benchmark reports is therefore scaled by the
// host's pace over the same run: the wall time of a fixed reference
// computation that belongs to the benchmark, so no change to the program
// under test alters its work. It hashes, sorts, probes a hash table and
// builds strings, the same kinds of work as the scheduler, simulator and
// builders. The workloads run it between their operations while they
// measure.
#ifndef PERFBENCH_PACE_H
#define PERFBENCH_PACE_H

#include <vector>

namespace perfbench {

// The reference computation's time in ms on the pace every reported timing
// is scaled to; about its time on the VM the baseline was recorded on.
constexpr double kReferencePaceMs = 10.0;

// Runs the reference computation once; returns its wall time in ms.
double RunReferenceKernel();

// The factor that turns a run's raw rates into rates at the reference pace
// (and divides its raw latencies likewise): the median of the run's
// reference times over kReferencePaceMs. 1 for no samples.
double PaceFactor(const std::vector<double>& reference_ms);

}  // namespace perfbench

#endif  // PERFBENCH_PACE_H
