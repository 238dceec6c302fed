#ifndef JURYOPT_PERFBENCH_WORKLOADS_H_
#define JURYOPT_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/solve.h"
#include "model/worker.h"

namespace perfbench {

/// The four traffic mixes. README.md gives the why of each.
enum class WorkloadKind { kOptjsCold, kSearchCold, kCacheHot, kPoolChurn };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  /// Client connections (capped at the host's core count).
  std::size_t connections;
  /// The fixed tail percentile `latency_tail_ms` reports: the highest of
  /// p90/p95/p99 that leaves at least ten samples beyond it in a run, except
  /// cache_hot, whose p99 (a few scheduler hiccups at a 0.3 ms median) moved
  /// 0.7-1.9 ms between identical runs on a shared 4-core host: it reports
  /// p95.
  double tail_quantile;
  /// Requests the traced run replays through the direct calls.
  std::size_t replay_requests;
  /// Replies re-solved in process for the byte-identity check.
  std::size_t verify_samples;
  /// pool_churn: requests per round between two pool deltas (0 = no churn).
  std::size_t round_size;
  /// pool_churn: re-estimated workers per delta.
  std::size_t delta_workers;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's worker pool. Fixed per workload — the seed varies only
/// the request stream and the pool deltas — and generated by the paper's
/// §6.1.1 recipe: quality ~ N(mu, sigma^2) truncated to [0.01, 0.99], cost
/// ~ N(0.05, 0.2^2) truncated at 0.01. `smoke` shrinks the churn pool.
std::vector<jury::Worker> MakePool(const WorkloadSpec& spec, bool smoke);

/// One generated `/solve` request.
struct RequestInfo {
  std::string body;  // SolveRequest JSON, the only thing the server sees
  std::string solver;
  double budget = 0.0;
  std::size_t frontier_k = 0;
};

/// The workload's request stream for one seed: request `i` is a pure
/// function of (workload, seed, i), generated lazily in blocks. Cold
/// streams draw budgets and priors stratified within each block (every
/// block covers each stratum once, in seeded order), so any prefix of the
/// stream has the same mix up to one block. Catalogue streams (cache_hot,
/// pool_churn) draw seeded positions in a catalogue that, like the pool,
/// is fixed per workload. Thread-safe.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                const std::vector<jury::Worker>& pool, bool smoke);

  RequestInfo Get(std::size_t i);
  /// The distinct requests the stream draws from (cache_hot, pool_churn);
  /// empty for the cold workloads, whose requests are all distinct.
  const std::vector<RequestInfo>& catalogue() const { return catalogue_; }

 private:
  /// Cold streams: the block's requests. Catalogue streams: the block's
  /// catalogue positions (`requests` stays empty).
  struct Block {
    std::vector<RequestInfo> requests;
    std::vector<std::uint32_t> entries;
  };
  Block MakeBlock(std::size_t block) const;
  std::size_t BlockLength() const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  double total_cost_ = 0.0;
  std::vector<RequestInfo> catalogue_;
  std::vector<double> zipf_cdf_;  // cache_hot popularity over catalogue ranks
  std::vector<std::size_t> rank_to_entry_;

  std::mutex mutex_;
  std::map<std::size_t, Block> blocks_;  // guarded by mutex_
};

/// The `round`-th pool delta: `workers` distinct workers with re-estimated
/// qualities (costs unchanged), seeded by (seed, round).
std::vector<jury::api::PoolDeltaUpdate> MakeDelta(
    std::uint64_t seed, std::size_t round, std::size_t workers,
    const std::vector<jury::Worker>& pool);

/// A well-mixed 64-bit hash of (a, b), for seeding derived streams.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench

#endif  // JURYOPT_PERFBENCH_WORKLOADS_H_
