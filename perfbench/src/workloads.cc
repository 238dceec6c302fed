#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace perfbench {
namespace {

using jury::Rng;
using jury::Worker;

// name, connections, tail quantile, replay, verify samples, round, delta
const WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kOptjsCold, "optjs_cold", 4, 0.95, 24, 16, 0, 0},
    {WorkloadKind::kSearchCold, "search_cold", 1, 0.99, 90, 48, 0, 0},
    {WorkloadKind::kCacheHot, "cache_hot", 4, 0.95, 64, 0, 0, 0},
    {WorkloadKind::kPoolChurn, "pool_churn", 4, 0.99, 48, 32, 128, 32},
};

constexpr std::size_t kStrata = 16;
constexpr std::uint64_t kPoolSeed = 20150323;  // bench_serving's pool seed
constexpr std::uint64_t kCatalogueSeed = 0xCA7A10C;
constexpr std::size_t kCatalogueBlock = 64;
constexpr std::size_t kBlocksKept = 8;

/// Budgets and priors of the 120-worker workloads: budget a share of the
/// pool's total cost, uniform in [2%, 25%]; alpha uniform in [0.3, 0.7].
constexpr double kBudgetShareLo = 0.02, kBudgetShareHi = 0.25;
constexpr double kAlphaLo = 0.3, kAlphaHi = 0.7;
/// pool_churn budgets, absolute: juries of a few to a few dozen workers.
constexpr double kChurnBudgetLo = 0.03, kChurnBudgetHi = 0.25;

std::vector<std::size_t> Permutation(Rng* rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng->Shuffle(&order);
  return order;
}

/// A value in stratum `stratum` of `kStrata` equal slices of [lo, hi].
double Stratified(Rng* rng, std::size_t stratum, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(stratum) + rng->Uniform()) /
                  static_cast<double>(kStrata);
}

/// `serial` requests ask every solver for one thread (`num_threads` = 1).
RequestInfo MakeRequest(const std::string& solver, double budget,
                        double alpha, std::uint64_t rng_seed,
                        std::size_t frontier_k, bool serial) {
  jury::api::SolveRequest request;
  request.solver = solver;
  request.budget = budget;
  request.alpha = alpha;
  request.rng_seed = rng_seed;
  request.tuning.greedy.frontier_k = frontier_k;
  if (serial) {
    request.tuning.annealing.num_threads = 1;
    request.tuning.greedy.num_threads = 1;
    request.tuning.mvjs.num_threads = 1;
    request.tuning.mvjs.annealing.num_threads = 1;
  }
  RequestInfo info;
  info.body = request.ToJson();
  info.solver = solver;
  info.budget = budget;
  info.frontier_k = frontier_k;
  return info;
}

/// `strata` requests per solver, budget and prior each stratified, in
/// seeded order.
std::vector<RequestInfo> StratifiedSet(Rng* rng,
                                       const std::vector<std::string>& solvers,
                                       double budget_lo, double budget_hi,
                                       std::size_t frontier_k_for_mg,
                                       std::size_t strata, bool serial) {
  std::vector<RequestInfo> set;
  for (const std::string& solver : solvers) {
    const std::vector<std::size_t> budget_order = Permutation(rng, kStrata);
    const std::vector<std::size_t> alpha_order = Permutation(rng, kStrata);
    for (std::size_t k = 0; k < strata; ++k) {
      const double budget =
          Stratified(rng, budget_order[k], budget_lo, budget_hi);
      const double alpha =
          Stratified(rng, alpha_order[k], kAlphaLo, kAlphaHi);
      set.push_back(MakeRequest(solver, budget, alpha, rng->Next(),
                                solver == "greedy-mg" ? frontier_k_for_mg : 0,
                                serial));
    }
  }
  rng->Shuffle(&set);
  return set;
}

std::vector<std::string> StreamSolvers(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOptjsCold:
      return {"optjs"};
    case WorkloadKind::kSearchCold:
      return {"annealing", "greedy-mg", "mvjs"};
    case WorkloadKind::kCacheHot:
      return {"annealing", "greedy-mg", "mvjs", "optjs"};
    case WorkloadKind::kPoolChurn:
      return {"greedy-mg", "greedy-quality", "odd-top-k"};
  }
  return {};
}

}  // namespace

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<Worker> MakePool(const WorkloadSpec& spec, bool smoke) {
  const bool churn = spec.kind == WorkloadKind::kPoolChurn;
  const int n = churn ? (smoke ? 10'000 : 100'000) : 120;
  const double mu = churn ? 0.6 : 0.7;
  const double sigma = churn ? 0.1 : 0.22360679774997896;
  Rng rng(kPoolSeed);
  std::vector<Worker> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string id = "w";
    id += std::to_string(i);
    pool.emplace_back(std::move(id),
                      rng.TruncatedGaussian(mu, sigma, 0.01, 0.99),
                      rng.TruncatedGaussian(0.05, 0.2, 0.01, 1e9));
  }
  return pool;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                             const std::vector<Worker>& pool, bool smoke)
    : spec_(spec), seed_(seed) {
  for (const Worker& worker : pool) total_cost_ += worker.cost;
  Rng rng(kCatalogueSeed);
  const std::size_t strata = smoke ? kStrata / 4 : kStrata;
  if (spec.kind == WorkloadKind::kCacheHot) {
    // Two stratified sets per solver: 128 distinct requests (32 in smoke).
    for (int copy = 0; copy < 2; ++copy) {
      std::vector<RequestInfo> set = StratifiedSet(
          &rng, StreamSolvers(spec.kind), total_cost_ * kBudgetShareLo,
          total_cost_ * kBudgetShareHi, 0, strata, false);
      catalogue_.insert(catalogue_.end(), set.begin(), set.end());
    }
    // Zipf(1) popularity over catalogue ranks; rank -> entry is seeded.
    double mass = 0.0;
    for (std::size_t r = 0; r < catalogue_.size(); ++r) {
      mass += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(mass);
    }
    for (double& c : zipf_cdf_) c /= mass;
    rank_to_entry_ = Permutation(&rng, catalogue_.size());
  } else if (spec.kind == WorkloadKind::kPoolChurn) {
    catalogue_ = StratifiedSet(&rng, StreamSolvers(spec.kind),
                               kChurnBudgetLo, kChurnBudgetHi, 8, strata,
                               false);
  }
}

std::size_t RequestStream::BlockLength() const {
  switch (spec_.kind) {
    case WorkloadKind::kOptjsCold:
      return kStrata;
    case WorkloadKind::kSearchCold:
      return 3 * kStrata;
    case WorkloadKind::kCacheHot:
    case WorkloadKind::kPoolChurn:
      return kCatalogueBlock;
  }
  return kCatalogueBlock;
}

RequestStream::Block RequestStream::MakeBlock(std::size_t block) const {
  Rng rng(Mix(seed_, block + 1));
  Block out;
  if (catalogue_.empty()) {
    out.requests = StratifiedSet(&rng, StreamSolvers(spec_.kind),
                                 total_cost_ * kBudgetShareLo,
                                 total_cost_ * kBudgetShareHi, 0, kStrata,
                                 spec_.kind == WorkloadKind::kSearchCold);
    return out;
  }
  for (std::size_t k = 0; k < kCatalogueBlock; ++k) {
    std::size_t entry = 0;
    if (spec_.kind == WorkloadKind::kCacheHot) {
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.Uniform()) -
          zipf_cdf_.begin());
      entry = rank_to_entry_[std::min(rank, catalogue_.size() - 1)];
    } else {
      entry = rng.UniformInt(catalogue_.size());
    }
    out.entries.push_back(static_cast<std::uint32_t>(entry));
  }
  return out;
}

RequestInfo RequestStream::Get(std::size_t i) {
  const std::size_t length = BlockLength();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blocks_.find(i / length);
  if (it == blocks_.end()) {
    // Blocks are regenerated on demand, so only the newest few are kept:
    // the stream's memory does not grow with the requests sent.
    if (blocks_.size() >= kBlocksKept) blocks_.erase(blocks_.begin());
    it = blocks_.emplace(i / length, MakeBlock(i / length)).first;
  }
  const Block& block = it->second;
  return catalogue_.empty() ? block.requests[i % length]
                            : catalogue_[block.entries[i % length]];
}

std::vector<jury::api::PoolDeltaUpdate> MakeDelta(
    std::uint64_t seed, std::size_t round, std::size_t workers,
    const std::vector<Worker>& pool) {
  Rng rng(Mix(seed ^ 0xDE17A, round));
  std::vector<jury::api::PoolDeltaUpdate> delta;
  for (const std::size_t index :
       rng.SampleWithoutReplacement(pool.size(), workers)) {
    jury::api::PoolDeltaUpdate update;
    update.index = index;
    update.quality = rng.TruncatedGaussian(0.6, 0.1, 0.01, 0.99);
    update.cost = pool[index].cost;
    delta.push_back(update);
  }
  std::sort(delta.begin(), delta.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  return delta;
}

}  // namespace perfbench
