// The four workloads. Each runs its set-up `config.setups` times
// (reporting the median as setup_s), then a closed-loop timed phase of
// `config.seconds`, then checks every answer outside the timed phase.
//
// Untraced runs report the end-to-end metrics. Traced runs spend the
// first half of the timed phase untraced and the second half traced,
// and report the per-layer metrics plus trace.overhead_pct, the
// difference in median op latency between the two halves.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness/common.h"
#include "perfbench/harness/inputs.h"

namespace perfbench {

/// Latency quantiles are reported as the median over this many
/// intervals of the timed phase (heavy_checks, with a few hundred ops
/// per run, uses one).
constexpr size_t kIntervals = 10;

/// Produces the workload's inputs: generates them from the seed, or
/// reads a frozen input file. Called once per set-up, so its cost is
/// part of setup_s.
using InputSource = std::function<bool(Inputs*, std::string* err)>;

RunResult RunSmallChecks(const InputSource& source, const RunConfig& config);
RunResult RunRepeatChecks(const InputSource& source, const RunConfig& config);
RunResult RunHeavyChecks(const InputSource& source, const RunConfig& config);
RunResult RunSessions(const InputSource& source, const RunConfig& config);

/// Runs body(client, stop) on `clients` threads, started together, for
/// `seconds`; returns the wall-clock seconds from the start until the
/// last client returned.
double RunClosedLoop(size_t clients, double seconds,
                     const std::function<void(size_t, const std::atomic<bool>&)>&
                         body);

/// A timed phase: `clients` closed-loop clients for `seconds`, each
/// recording into its own PhaseStats of `intervals` intervals.
/// body(client, stop, stats) runs ops until `stop`. Returns the merged
/// stats; `*wall_s` receives the phase's wall-clock length.
PhaseStats RunPhase(
    size_t clients, double seconds, size_t intervals,
    const std::function<void(size_t, const std::atomic<bool>&, PhaseStats*)>&
        body,
    double* wall_s);

/// Times `setup` `count` times and returns the median in seconds.
/// `teardown` runs untimed before each set-up and frees what the
/// previous one built, so its destruction is not timed as set-up.
double MedianSetupSeconds(int count, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// Appends the end-to-end metrics shared by every workload: the
/// latency quantiles are medians over the phase's intervals, the rates
/// cover the whole phase; `tail_q` is the workload's fixed tail
/// percentile.
void AddEndToEnd(RunResult* r, const PhaseStats& phase, double tail_q,
                 double wall_s, double decided_share, double setup_s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
