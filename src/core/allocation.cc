#include "core/allocation.h"

#include <algorithm>

#include "core/objective.h"
#include "model/prior.h"
#include "model/worker_pool_view.h"

namespace jury {
namespace {

/// Greedy state for one task: solutions at the current grant and one and
/// two increments ahead. The two-step lookahead matters because BV jury
/// quality plateaus at even sizes (a second worker adds nothing until a
/// third arrives), which would stall a one-step marginal rule.
struct TaskState {
  /// The task's instance and view, built once; probes only restamp the
  /// instance's budget.
  JspInstance instance;
  WorkerPoolView view;

  /// Solves the task at one budget.
  Result<JspSolution> SolveAt(double budget, const BucketBvObjective& objective,
                              Rng* rng, const OptjsOptions& options) {
    instance.budget = budget;
    return SolveOptjs(instance, view, objective, rng, options);
  }

  JspSolution at_current;
  JspSolution at_plus1;
  JspSolution at_plus2;

  /// Best per-increment gain and how many increments realize it.
  double gain = 0.0;
  int steps = 1;

  void RecomputeGain() {
    const double gain1 = at_plus1.jq - at_current.jq;
    const double gain2 = (at_plus2.jq - at_current.jq) / 2.0;
    if (gain2 > gain1) {
      gain = gain2;
      steps = 2;
    } else {
      gain = gain1;
      steps = 1;
    }
  }
};

}  // namespace

Result<AllocationResult> AllocateBudget(
    const std::vector<AllocationTask>& tasks, double global_budget, Rng* rng,
    const AllocationOptions& options) {
  if (!(global_budget >= 0.0)) {
    return Status::InvalidArgument("global_budget must be non-negative");
  }
  if (!(options.increment > 0.0)) {
    return Status::InvalidArgument("increment must be positive");
  }
  for (const AllocationTask& task : tasks) {
    for (const Worker& w : task.candidates) {
      JURY_RETURN_NOT_OK(ValidateWorker(w));
    }
    JURY_RETURN_NOT_OK(ValidateAlpha(task.alpha));
  }

  const std::size_t n = tasks.size();
  const double inc = options.increment;
  const BucketBvObjective objective(options.optjs.bucket);
  std::vector<double> granted(n, 0.0);
  std::vector<TaskState> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaskState& state = states[i];
    state.instance.candidates = tasks[i].candidates;
    state.instance.alpha = tasks[i].alpha;
    state.view = WorkerPoolView(state.instance.candidates);
    JURY_ASSIGN_OR_RETURN(state.at_current,
                          state.SolveAt(0.0, objective, rng, options.optjs));
    JURY_ASSIGN_OR_RETURN(state.at_plus1,
                          state.SolveAt(inc, objective, rng, options.optjs));
    JURY_ASSIGN_OR_RETURN(
        state.at_plus2,
        state.SolveAt(2.0 * inc, objective, rng, options.optjs));
    state.RecomputeGain();
  }

  double remaining = global_budget;
  while (remaining >= inc - 1e-12 && n > 0) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (states[i].gain > states[best].gain) best = i;
    }
    TaskState& state = states[best];
    if (state.gain <= 1e-12) break;  // nobody benefits from more money
    int steps = state.steps;
    if (steps == 2 && remaining < 2.0 * inc - 1e-12) steps = 1;

    granted[best] += inc * steps;
    remaining -= inc * steps;
    if (steps == 1) {
      state.at_current = state.at_plus1;
      state.at_plus1 = state.at_plus2;
    } else {
      state.at_current = state.at_plus2;
      JURY_ASSIGN_OR_RETURN(
          state.at_plus1,
          state.SolveAt(granted[best] + inc, objective, rng, options.optjs));
    }
    JURY_ASSIGN_OR_RETURN(
        state.at_plus2,
        state.SolveAt(granted[best] + 2.0 * inc, objective, rng,
                      options.optjs));
    state.RecomputeGain();
  }

  AllocationResult result;
  result.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.tasks[i].budget = granted[i];
    result.tasks[i].solution = states[i].at_current;
    result.total_granted += granted[i];
    result.total_spent += states[i].at_current.cost;
    result.mean_jq += states[i].at_current.jq;
  }
  if (n > 0) result.mean_jq /= static_cast<double>(n);
  return result;
}

}  // namespace jury
