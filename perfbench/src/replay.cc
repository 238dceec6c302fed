#include "replay.h"

#include <algorithm>
#include <iostream>

#include "api/registry.h"
#include "core/annealing.h"
#include "core/greedy.h"
#include "core/mvjs.h"
#include "core/objective.h"
#include "http_client.h"
#include "jq/bucket.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace perfbench {

using jury::JspSolution;
using jury::Result;
using jury::api::PoolPlanContext;
using jury::api::SolveRequest;

std::unique_ptr<PoolPlanContext> MakeTwin(const std::vector<jury::Worker>& pool,
                                          const ChurnLog* churn,
                                          std::size_t epoch) {
  std::vector<jury::Worker> workers = pool;
  for (std::size_t e = 0; e < epoch; ++e) {
    for (const jury::api::PoolDeltaUpdate& update : churn->applied[e]) {
      workers[update.index].quality = update.quality;
      workers[update.index].cost = update.cost;
    }
  }
  Result<PoolPlanContext> planned = PoolPlanContext::Plan(std::move(workers));
  if (!planned.ok()) {
    std::cerr << "error: twin plan: " << planned.status() << "\n";
    return nullptr;
  }
  return std::make_unique<PoolPlanContext>(std::move(planned).value());
}

void CheckSampleAgainstTwin(const WorkloadSpec& spec, std::uint64_t seed,
                            const std::vector<const KeptReply*>& samples,
                            RequestStream* stream,
                            const std::vector<jury::Worker>& pool,
                            const ChurnLog* churn, CheckTally* checks) {
  const std::string check = "replay_identical";
  checks->Declare(check);
  if (samples.empty() || spec.verify_samples == 0) return;
  jury::Rng rng(Mix(seed, 0x5A3B1E));
  std::vector<std::size_t> chosen = rng.SampleWithoutReplacement(
      samples.size(), std::min(spec.verify_samples, samples.size()));
  std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
    return samples[a]->epoch != samples[b]->epoch
               ? samples[a]->epoch < samples[b]->epoch
               : samples[a]->index < samples[b]->index;
  });
  std::unique_ptr<PoolPlanContext> twin;
  std::size_t twin_epoch = 0;
  for (const std::size_t k : chosen) {
    const KeptReply& sample = *samples[k];
    if (twin == nullptr || twin_epoch != sample.epoch) {
      twin.reset();  // one extra pool in memory at a time
      twin = MakeTwin(pool, churn, sample.epoch);
      twin_epoch = sample.epoch;
      if (twin == nullptr) {
        checks->Fail(check, "could not plan the reply's epoch");
        continue;
      }
    }
    const RequestInfo info = stream->Get(sample.index);
    Result<SolveRequest> request = SolveRequest::FromJsonText(info.body);
    if (!request.ok()) {
      checks->Fail(check, "request does not parse");
      continue;
    }
    Result<jury::api::SolveReport> report = twin->Solve(request.value());
    if (!report.ok()) {
      checks->Fail(check, "in-process solve failed: " +
                              report.status().message());
      continue;
    }
    const std::string expected = BindReport(report.value().ToJson()).normalized;
    const std::string got = BindReport(sample.body).normalized;
    if (expected == got) {
      checks->Pass(check);
    } else {
      checks->Fail(check, "reply " + got + " != in-process " + expected);
    }
  }
}

namespace {

struct JqTotals {
  double keys_expanded = 0.0;
  double keys_pruned = 0.0;
  double in_solve_seconds = 0.0;  // re-estimates that are part of the solve
};

/// OPTJS's reporting re-estimate (core/optjs.cc `TightJq`): Algorithm 1 at
/// 200 buckets per juror.
Result<double> Reestimate(const jury::JspInstance& instance,
                          const JspSolution& solution,
                          const jury::BucketJqOptions& base, JqTotals* totals) {
  if (solution.selected.empty()) return jury::EmptyJuryJq(instance.alpha);
  jury::BucketJqOptions tight = base;
  tight.num_buckets = std::max(
      tight.num_buckets, 200 * static_cast<int>(solution.selected.size() + 1));
  jury::BucketJqStats stats;
  Result<double> jq = jury::EstimateJq(solution.ToJury(instance),
                                       instance.alpha, tight, &stats);
  totals->keys_expanded += static_cast<double>(stats.keys_expanded);
  totals->keys_pruned += static_cast<double>(stats.keys_pruned);
  return jq;
}

/// The search of a solver other than OPTJS: one core planned-pool call.
template <typename Search>
Result<JspSolution> SearchOnly(PoolPlanContext& context,
                               const SolveRequest& request,
                               const jury::JspInstance& instance,
                               const Search& search) {
  const jury::WorkerPoolView& view = context.view();
  if (request.solver == "mvjs") {
    const jury::MajorityObjective objective;
    jury::Rng rng(request.rng_seed);
    return search([&] {
      return jury::SolveMvjs(instance, view, objective, &rng,
                             request.tuning.mvjs);
    });
  }
  std::unique_ptr<jury::JqObjective> objective;
  JURY_ASSIGN_OR_RETURN(objective, jury::api::MakeObjective(request.tuning));
  if (request.solver == "annealing") {
    jury::AnnealingOptions annealing = request.tuning.annealing;
    if (annealing.frontier_k > 0) annealing.sharded_pool = context.sharded_pool();
    jury::Rng rng(request.rng_seed);
    return search([&] {
      return jury::SolveAnnealing(instance, view, *objective, &rng, annealing);
    });
  }
  using GreedyEntry = Result<JspSolution> (*)(
      const jury::JspInstance&, const jury::WorkerPoolView&,
      const jury::JqObjective&, const jury::GreedyOptions&);
  GreedyEntry entry = nullptr;
  if (request.solver == "greedy-mg") entry = &jury::SolveGreedyMarginalGain;
  if (request.solver == "greedy-quality") entry = &jury::SolveGreedyByQuality;
  if (request.solver == "greedy-value") entry = &jury::SolveGreedyByValuePerCost;
  if (request.solver == "odd-top-k") entry = &jury::SolveOddTopK;
  if (entry == nullptr) {
    return jury::Status::NotImplemented("no decomposition for solver " +
                                        request.solver);
  }
  jury::GreedyOptions greedy = request.tuning.greedy;
  if (greedy.frontier_k > 0) greedy.sharded_pool = context.sharded_pool();
  return search([&] { return entry(instance, view, *objective, greedy); });
}

/// Re-runs `request` through the public core/jq entry points the registry
/// adapter composes, one span per call, serially (the solvers' results do
/// not depend on the thread count). Other solvers than OPTJS report their
/// search objective's JQ and run no re-estimate; for them the reporting
/// re-estimate of the returned jury is timed beside the solve, so the jq
/// layer is measured on every workload's juries.
/// `*blocking` receives the part of the decomposed time that blocks the
/// result: OPTJS runs its two greedy fallbacks (each with its re-estimate)
/// beside annealing when it has more than one thread, so only the longest
/// of the three branches blocks; the other solvers are one search call.
Result<JspSolution> Decompose(PoolPlanContext& context,
                              const SolveRequest& request, SpanRecorder* spans,
                              std::uint64_t parent, std::uint64_t request_id,
                              JqTotals* totals, double* blocking) {
  auto lease = context.AcquireInstance(request.budget, request.alpha);
  const jury::JspInstance& instance = lease.instance();
  const jury::WorkerPoolView& view = context.view();
  *blocking = 0.0;
  const auto search = [&](const auto& call) -> Result<JspSolution> {
    ScopedSpan span(spans, "core.search", parent, request_id);
    Result<JspSolution> result = call();
    *blocking += span.End();
    return result;
  };
  if (request.solver == "optjs") {
    const jury::OptjsOptions& options = request.tuning.optjs;
    const jury::BucketBvObjective objective(options.bucket);
    const auto reestimate = [&](JspSolution* solution) -> jury::Status {
      ScopedSpan span(spans, "jq.reestimate", parent, request_id);
      JURY_ASSIGN_OR_RETURN(
          solution->jq,
          Reestimate(instance, *solution, options.bucket, totals));
      const double seconds = span.End();
      *blocking += seconds;
      totals->in_solve_seconds += seconds;
      return jury::Status::OK();
    };
    JspSolution best;
    if (options.exhaustive_threshold > 0 &&
        instance.num_candidates() <= options.exhaustive_threshold) {
      jury::ExhaustiveOptions exhaustive;
      exhaustive.max_candidates = options.exhaustive_threshold;
      exhaustive.use_incremental = options.use_incremental;
      exhaustive.num_threads = options.num_threads;
      JURY_ASSIGN_OR_RETURN(best, search([&] {
        return jury::SolveExhaustive(instance, view, objective, exhaustive);
      }));
      JURY_RETURN_NOT_OK(reestimate(&best));
      return best;
    }
    jury::AnnealingOptions annealing = options.annealing;
    annealing.use_incremental &= options.use_incremental;
    annealing.num_threads = options.num_threads;
    jury::GreedyOptions greedy;
    greedy.use_incremental = options.use_incremental;
    greedy.num_threads = options.num_threads;
    jury::Rng rng(request.rng_seed);
    const bool concurrent = jury::ResolveThreadCount(options.num_threads) > 1;
    double longest_branch = 0.0;
    double branches = 0.0;
    const auto branch = [&](const auto& call) -> Result<JspSolution> {
      const double before = *blocking;
      JspSolution solution;
      JURY_ASSIGN_OR_RETURN(solution, search(call));
      JURY_RETURN_NOT_OK(reestimate(&solution));
      longest_branch = std::max(longest_branch, *blocking - before);
      branches = *blocking;
      return solution;
    };
    JURY_ASSIGN_OR_RETURN(best, branch([&] {
      return jury::SolveAnnealing(instance, view, objective, &rng, annealing);
    }));
    JspSolution by_quality;
    JURY_ASSIGN_OR_RETURN(by_quality, branch([&] {
      return jury::SolveGreedyByQuality(instance, view, objective, greedy);
    }));
    JspSolution by_value;
    JURY_ASSIGN_OR_RETURN(by_value, branch([&] {
      return jury::SolveGreedyByValuePerCost(instance, view, objective,
                                             greedy);
    }));
    if (by_quality.jq > best.jq) best = by_quality;
    if (by_value.jq > best.jq) best = by_value;
    *blocking = concurrent ? longest_branch : branches;
    return best;
  }
  Result<JspSolution> found = SearchOnly(context, request, instance, search);
  if (found.ok()) {
    ScopedSpan span(spans, "jq.reestimate", parent, request_id);
    JURY_RETURN_NOT_OK(Reestimate(instance, found.value(),
                                  request.tuning.optjs.bucket, totals)
                           .status());
  }
  return found;
}

/// `Solve` the way the server runs it: a one-request `SubmitMany` batch
/// on the process scheduler, with the server's default submit options.
Result<jury::api::SolveReport> SolveAsServed(PoolPlanContext& context,
                                             const SolveRequest& request) {
  std::vector<jury::api::SolveFuture> futures = context.SubmitMany(
      std::span<const SolveRequest>(&request, 1), jury::api::SubmitOptions{});
  return futures.front().Take();
}

}  // namespace

ReplayResult Replay(Fixture& fixture, PoolPlanContext* twin,
                    RequestStream* stream, const std::vector<jury::Worker>& pool,
                    std::size_t first_index, std::size_t count,
                    SpanRecorder* spans, CheckTally* checks) {
  ReplayResult result;
  HttpClient client;
  if (!client.Connect("127.0.0.1", fixture.port)) {
    checks->Fail("http_status", "replay could not connect");
    return result;
  }
  PoolPlanContext& served = *fixture.context;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t index = first_index + k;
    const std::uint64_t request_id = index + 1;
    const RequestInfo info = stream->Get(index);
    ScopedSpan root(spans, "request", 0, request_id);

    Result<SolveRequest> parsed = jury::Status::Internal("unparsed");
    {
      ScopedSpan span(spans, "api.parse", root.id(), request_id);
      parsed = SolveRequest::FromJsonText(info.body);
    }
    if (!parsed.ok()) {
      checks->Fail("report_binds", "replay request does not parse");
      continue;
    }
    const SolveRequest& request = parsed.value();
    {
      const std::string key = request.ToJson();
      jury::api::SolveReport cached;
      ScopedSpan span(spans, "api.cache_lookup", root.id(), request_id);
      served.result_cache()->Lookup(served.pool_epoch(), key, &cached);
    }
    ScopedSpan trip(spans, "serve.round_trip", root.id(), request_id);
    const HttpReply reply = client.Post("/solve", info.body);
    const double round_trip = trip.End();
    if (!reply.transport_ok || reply.status != 200) {
      checks->Fail("http_status",
                   "replay reply status " + std::to_string(reply.status));
      continue;
    }
    checks->Pass("http_status");
    const BoundReport bound = BindReport(reply.body);
    const std::string problem = CheckReport(bound, info, pool);
    if (!problem.empty()) {
      checks->Fail("report_binds", problem);
      continue;
    }
    checks->Pass("report_binds");

    // The in-process equivalent of what the server did: a cache hit on
    // the served context, or a solve on a context with no cache.
    double equivalent = 0.0;
    if (bound.cache_hit) {
      ScopedSpan span(spans, "serve.solve_hit", root.id(), request_id);
      const Result<jury::api::SolveReport> hit = SolveAsServed(served, request);
      equivalent = span.End();
      if (!hit.ok()) checks->Fail("replay_identical", "in-process hit failed");
    }
    Result<jury::api::SolveReport> report = jury::Status::Internal("unsolved");
    {
      ScopedSpan span(spans, "api.solve", root.id(), request_id);
      report = SolveAsServed(*twin, request);
      if (!bound.cache_hit) equivalent = span.End();
    }
    if (!report.ok()) {
      checks->Fail("replay_identical",
                   "in-process solve failed: " + report.status().message());
      continue;
    }
    result.serve_overhead_seconds += round_trip - equivalent;
    JqTotals totals;
    double blocking = 0.0;
    Result<JspSolution> decomposed = jury::Status::Internal("undecomposed");
    {
      ScopedSpan span(spans, "api.solve.decomposed", root.id(), request_id);
      decomposed = Decompose(*twin, request, spans, span.id(), request_id,
                             &totals, &blocking);
    }
    result.blocking_seconds += blocking;
    const JspSolution& solution = report.value().solution;
    if (!decomposed.ok() || decomposed.value().selected != solution.selected ||
        decomposed.value().jq != solution.jq) {
      result.stale += 1;
    }
    result.keys_expanded += totals.keys_expanded;
    result.keys_pruned += totals.keys_pruned;
    result.solve_reestimate_seconds += totals.in_solve_seconds;
    std::string serialized;
    {
      ScopedSpan span(spans, "api.serialize", root.id(), request_id);
      serialized = report.value().ToJson();
    }
    if (BindReport(serialized).normalized == bound.normalized) {
      checks->Pass("replay_identical");
    } else {
      checks->Fail("replay_identical", "replayed reply differs from Solve");
    }
    result.requests += 1;
  }
  return result;
}

}  // namespace perfbench
