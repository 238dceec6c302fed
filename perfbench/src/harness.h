#ifndef JURYOPT_PERFBENCH_HARNESS_H_
#define JURYOPT_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/solve.h"
#include "serve/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Pass/fail tallies of the named correctness checks, printed per run.
class CheckTally {
 public:
  void Pass(const std::string& check) { counts_[check].first += 1; }
  /// Counts a failure and prints the first few details to stderr.
  void Fail(const std::string& check, const std::string& detail);
  void Declare(const std::string& check) { counts_[check]; }
  bool all_passed() const;
  /// `check <name>: <passed> passed, <failed> failed` lines.
  void Print() const;

 private:
  std::map<std::string, std::pair<std::size_t, std::size_t>> counts_;
  std::size_t details_printed_ = 0;
};

/// A `/solve` reply body bound as a `SolveReport`.
struct BoundReport {
  std::string error;  // empty when the body bound
  std::string solver;
  std::vector<std::size_t> selected;
  double jq = 0.0;
  double cost = 0.0;
  bool cache_hit = false;
  double evals_full = 0.0;
  double evals_incremental = 0.0;
  double moves_accepted = 0.0;
  double moves_attempted = 0.0;
  /// The document re-dumped with `wall_seconds` zeroed and
  /// `stats.cache_hit` dropped: equal for a solve and its cached copy.
  std::string normalized;
};

BoundReport BindReport(const std::string& body);

/// The reply-level check: the body binds, names the requested solver, and
/// selects distinct in-range workers whose cost (recomputed from the pool)
/// fits the budget, with 0 <= JQ <= 1. Returns "" or what failed.
std::string CheckReport(const BoundReport& report, const RequestInfo& request,
                        const std::vector<jury::Worker>& pool);

/// One set-up of a workload: its pool planned into a context, served by an
/// in-process `JuryServer` on an ephemeral loopback port, warm.
struct Fixture {
  Fixture() = default;
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::optional<jury::api::PoolPlanContext> context;
  std::optional<jury::serve::JuryServer> server;
  std::thread loop;
  int port = 0;
  double plan_seconds = 0.0;
  /// cache_hot: the set-up solve's reply, per catalogue request body.
  std::unordered_map<std::string, std::string> warm_replies;
};

struct SetUpConfig {
  const WorkloadSpec* spec = nullptr;
  RequestStream* stream = nullptr;
  std::size_t connections = 1;
  bool smoke = false;
  std::string out_dir;  // where pool_churn writes its snapshot
};

/// Builds a fixture: pool generation, snapshot write + load (pool_churn),
/// planning, server start and cache warm-up. Null (with the reason on
/// stderr) on failure.
std::unique_ptr<Fixture> SetUp(const SetUpConfig& config, int index,
                               SpanRecorder* spans);

/// Pool deltas applied to the served context during the run, in order;
/// the context's epoch is `applied.size()`.
struct ChurnLog {
  std::uint64_t seed = 0;
  const std::vector<jury::Worker>* pool = nullptr;
  std::vector<std::vector<jury::api::PoolDeltaUpdate>> applied;
  bool failed = false;
};

/// A successful reply kept for the byte-identity check after the phase.
struct KeptReply {
  std::size_t index = 0;  // position in the request stream
  std::size_t epoch = 0;  // pool epoch the request was sent at
  std::string body;
};

/// cache_hot: the reply a catalogue request must get, byte for byte, and
/// that reply bound.
struct HotReply {
  std::string bytes;
  BoundReport report;
};

/// What a load phase measured. Replies are checked and folded in as they
/// arrive, so the phase keeps one latency per reply and a bounded sample
/// of bodies, whatever the throughput.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> ok_latencies;  // seconds, send to last body byte
  double shortfall_sum = 0.0;        // of 1 - JQ over successful replies
  // Over successful replies that were solved (not cache hits):
  double solved = 0.0;
  double evals_full = 0.0;
  double evals_incremental = 0.0;
  double moves_accepted = 0.0;
  double moves_attempted = 0.0;
  double frontier_rounds = 0.0;  // greedy rounds of frontier requests
  std::vector<KeptReply> kept;

  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::map<std::string, double> stats_before;
  std::map<std::string, double> stats_after;
  std::size_t deltas_applied = 0;

  double StatDelta(const std::string& name) const;
};

struct PhaseConfig {
  const WorkloadSpec* spec = nullptr;
  RequestStream* stream = nullptr;
  const std::vector<jury::Worker>* pool = nullptr;  // for the reply checks
  std::uint64_t seed = 0;  // picks the kept replies
  std::size_t connections = 1;
  double seconds = 1.0;
  /// cache_hot: the expected reply per request body (null otherwise).
  const std::unordered_map<std::string, HotReply>* hot = nullptr;
  ChurnLog* churn = nullptr;  // pool_churn: deltas between rounds
  SpanRecorder* spans = nullptr;  // traced phase: one span per request
  CheckTally* checks = nullptr;

  bool churn_failed() const { return churn != nullptr && churn->failed; }
};

/// Closed-loop load: `connections` keep-alive connections, each sending its
/// next request only when the previous reply has fully arrived, until
/// `seconds` have passed; in-flight requests then complete. With churn,
/// every `round_size` requests the connections drain and one pool delta is
/// applied before the next round starts.
PhaseResult RunPhase(Fixture& fixture, const PhaseConfig& config);

/// `GET /stats` flattened to name -> value (registry counters and gauges,
/// plus `cache.*`). Empty on failure.
std::map<std::string, double> FetchStats(int port);

/// Process CPU seconds (user + system) and peak resident set in MiB.
double ProcessCpuSeconds();
double PeakRssMb();

/// Nearest-rank percentile: the ceil(q n)-th smallest value (q in (0, 1]).
double NearestRank(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // JURYOPT_PERFBENCH_HARNESS_H_
