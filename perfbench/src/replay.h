#ifndef JURYOPT_PERFBENCH_REPLAY_H_
#define JURYOPT_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <vector>

#include "api/solve.h"
#include "harness.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// A no-cache context planned from the workload's pool with the first
/// `epoch` logged deltas applied (`churn` may be null at epoch 0): the
/// reference the byte-identity checks and the traced replay solve on. Its
/// data equals the served context's at `epoch`, reached by a fresh plan
/// instead of the delta path. Null (reason on stderr) on failure.
std::unique_ptr<jury::api::PoolPlanContext> MakeTwin(
    const std::vector<jury::Worker>& pool, const ChurnLog* churn,
    std::size_t epoch);

/// The byte-identity check: a seeded sample of `verify_samples` successful
/// replies is re-solved on a twin at the reply's epoch and compared with
/// `wall_seconds` zeroed (and `stats.cache_hit` dropped).
void CheckSampleAgainstTwin(const WorkloadSpec& spec, std::uint64_t seed,
                            const std::vector<const KeptReply*>& samples,
                            RequestStream* stream,
                            const std::vector<jury::Worker>& pool,
                            const ChurnLog* churn, CheckTally* checks);

struct ReplayResult {
  std::size_t requests = 0;
  /// Sum over requests of (round trip - the in-process solve of the same
  /// request on a context in the state the server's was in).
  double serve_overhead_seconds = 0.0;
  /// Sum over requests of the decomposed core/jq time that blocks the
  /// result (see `Decompose` in replay.cc).
  double blocking_seconds = 0.0;
  /// Sum of the re-estimates that are part of the solve (OPTJS only).
  double solve_reestimate_seconds = 0.0;
  double keys_expanded = 0.0;
  double keys_pruned = 0.0;
  /// Requests whose decomposition did not reproduce the report.
  std::size_t stale = 0;
};

/// The traced replay: `count` fresh requests, one connection, each through
/// parse -> cache lookup -> HTTP round trip -> `Solve` on the twin (as a
/// one-request `SubmitMany`, the server's call) -> the
/// decomposed core/jq calls -> serialise, with a span around every call.
ReplayResult Replay(Fixture& fixture, jury::api::PoolPlanContext* twin,
                    RequestStream* stream, const std::vector<jury::Worker>& pool,
                    std::size_t first_index, std::size_t count,
                    SpanRecorder* spans, CheckTally* checks);

}  // namespace perfbench

#endif  // JURYOPT_PERFBENCH_REPLAY_H_
