#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/budget_table.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::Figure1Workers;

TEST(BudgetTableTest, ReproducesFigure1) {
  // The paper's headline example: the budget-quality table for workers A-G.
  Rng rng(1);
  OptjsOptions options;
  options.bucket.num_buckets = 400;  // tight enough to pick exact optima
  const auto rows =
      BuildBudgetQualityTable(Figure1Workers(), {5.0, 10.0, 15.0, 20.0}, 0.5,
                              &rng, options)
          .value();
  ASSERT_EQ(rows.size(), 4u);

  EXPECT_EQ(rows[0].jury_ids, "{F, G}");
  EXPECT_NEAR(rows[0].jq, 0.75, 0.005);
  EXPECT_NEAR(rows[0].required, 5.0, 1e-9);

  // The paper lists {C, G} at 80%; {C, F} ties at exactly 80% (BV follows
  // C either way) and costs 8 < 9, and ties break towards the cheaper jury.
  EXPECT_EQ(rows[1].jury_ids, "{C, F}");
  EXPECT_NEAR(rows[1].jq, 0.80, 0.005);
  EXPECT_NEAR(rows[1].required, 8.0, 1e-9);

  EXPECT_EQ(rows[2].jury_ids, "{B, C, G}");
  EXPECT_NEAR(rows[2].jq, 0.845, 0.005);
  EXPECT_NEAR(rows[2].required, 14.0, 1e-9);

  EXPECT_EQ(rows[3].jury_ids, "{A, C, F, G}");
  EXPECT_NEAR(rows[3].jq, 0.8695, 0.005);
  EXPECT_NEAR(rows[3].required, 20.0, 1e-9);
}

TEST(BudgetTableTest, JqIsMonotoneInBudget) {
  // A larger budget can only widen the feasible set (Lemma 1 corollary at
  // the system level).
  Rng rng(7);
  const auto rows = BuildBudgetQualityTable(
                        Figure1Workers(),
                        {2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 37.0}, 0.5,
                        &rng)
                        .value();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].jq, rows[i - 1].jq - 1e-9);
  }
  // The full pool costs 37: the last row should select everyone.
  EXPECT_EQ(rows.back().selected.size(), Figure1Workers().size());
}

TEST(BudgetTableTest, RequiredNeverExceedsBudget) {
  Rng rng(11);
  const auto rows =
      BuildBudgetQualityTable(Figure1Workers(), {3.0, 7.0, 13.0}, 0.5, &rng)
          .value();
  for (const auto& row : rows) {
    EXPECT_LE(row.required, row.budget + 1e-12);
  }
}

TEST(BudgetTableTest, TinyBudgetYieldsEmptyJury) {
  Rng rng(13);
  const auto rows =
      BuildBudgetQualityTable(Figure1Workers(), {1.0}, 0.5, &rng).value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].selected.empty());
  EXPECT_DOUBLE_EQ(rows[0].jq, 0.5);  // prior only
}

TEST(BudgetTableTest, InformativePriorLiftsAllRows) {
  Rng rng1(17), rng2(17);
  const auto flat =
      BuildBudgetQualityTable(Figure1Workers(), {5.0, 15.0}, 0.5, &rng1)
          .value();
  const auto informed =
      BuildBudgetQualityTable(Figure1Workers(), {5.0, 15.0}, 0.7, &rng2)
          .value();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_GE(informed[i].jq, flat[i].jq - 1e-9);
  }
}

TEST(MinimalBudgetTest, FindsTheFigure1Knee) {
  // 84.5% requires {B, C, G} (cost 14); the bisection should land just
  // above 14 units.
  Rng rng(23);
  OptjsOptions options;
  options.bucket.num_buckets = 400;
  const auto row = MinimalBudgetForQuality(Figure1Workers(), 0.845, 0.5,
                                           &rng, options, 0.05)
                       .value();
  EXPECT_GE(row.jq, 0.845 - 1e-9);
  EXPECT_NEAR(row.budget, 14.0, 0.2);
  EXPECT_NEAR(row.required, 14.0, 1e-6);
}

TEST(MinimalBudgetTest, CheapTargetsCostLittle) {
  Rng rng(29);
  const auto row =
      MinimalBudgetForQuality(Figure1Workers(), 0.75, 0.5, &rng).value();
  EXPECT_GE(row.jq, 0.75 - 1e-9);
  EXPECT_LE(row.budget, 5.5);  // {F, G} at 5 units suffices
}

TEST(MinimalBudgetTest, UnreachableTargetFails) {
  Rng rng(31);
  EXPECT_EQ(MinimalBudgetForQuality(Figure1Workers(), 0.999, 0.5, &rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(MinimalBudgetTest, ValidatesArguments) {
  Rng rng(37);
  EXPECT_FALSE(
      MinimalBudgetForQuality(Figure1Workers(), 1.5, 0.5, &rng).ok());
  EXPECT_FALSE(MinimalBudgetForQuality(Figure1Workers(), 0.8, 0.5, &rng, {},
                                       -1.0)
                   .ok());
  EXPECT_EQ(MinimalBudgetForQuality(Figure1Workers(), 0.8, 1.5, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BudgetTableTest, ValidatesWorkersAlphaAndBudgets) {
  // Every row is one OPTJS instance, so the table rejects what an
  // instance would: a bad worker, a bad prior, a negative budget.
  Rng rng(41);
  std::vector<Worker> bad_worker = Figure1Workers();
  bad_worker[3].quality = 1.5;
  EXPECT_EQ(BuildBudgetQualityTable(bad_worker, {5.0, 10.0}, 0.5, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildBudgetQualityTable(Figure1Workers(), {5.0, 10.0}, 1.5, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildBudgetQualityTable(Figure1Workers(), {5.0, -1.0}, 0.5, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BudgetTableTest, FormatsInPaperStyle) {
  Rng rng(19);
  const auto rows =
      BuildBudgetQualityTable(Figure1Workers(), {15.0}, 0.5, &rng).value();
  const std::string rendered = FormatBudgetQualityTable(rows);
  EXPECT_NE(rendered.find("Budget"), std::string::npos);
  EXPECT_NE(rendered.find("{B, C, G}"), std::string::npos);
  EXPECT_NE(rendered.find("84.50%"), std::string::npos);
}

/// Sets JURYOPT_THREADS for one scope, restoring the previous value — the
/// TSAN CI job runs this binary with JURYOPT_THREADS=4 and later tests
/// must still see it.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const std::string& value) {
    const char* prev = std::getenv("JURYOPT_THREADS");
    if (prev != nullptr) {
      had_previous_ = true;
      previous_ = prev;
    }
    ::setenv("JURYOPT_THREADS", value.c_str(), 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("JURYOPT_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("JURYOPT_THREADS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

TEST(BudgetTableNestedParallelismTest, NestedTablesAreThreadCountInvariant) {
  // The nested-parallel path proper: 16 candidates force the annealing
  // branch of SolveOptjs, 3 restart chains give every row inner parallel
  // regions, and 2 rows < workers force the scheduler to fan those inner
  // regions across otherwise-idle workers. The table must be bit-identical
  // for JURYOPT_THREADS in {1, 2, 8}.
  Rng pool_rng(88001);
  const auto pool =
      jury::testing::RandomPool(&pool_rng, 16, 0.5, 0.95, 0.05, 0.4);
  const std::vector<double> budgets{0.3, 0.7};
  OptjsOptions options;
  options.annealing.num_restarts = 3;
  std::vector<BudgetQualityRow> reference;
  for (const char* threads : {"1", "2", "8"}) {
    ScopedThreadsEnv env(threads);
    Rng rng(654);
    const auto rows =
        BuildBudgetQualityTable(pool, budgets, 0.5, &rng, options).value();
    if (reference.empty()) {
      reference = rows;
      continue;
    }
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].selected, reference[i].selected)
          << "row " << i << ", threads " << threads;
      EXPECT_NEAR(rows[i].jq, reference[i].jq, 1e-12);
    }
  }
}

TEST(BudgetTableNestedParallelismTest, NestedMatchesFixedPoolBaseline) {
  // Nested solver parallelism is a scheduling change only: the same table
  // as the historical inner-pinned-to-one-thread mode, bit for bit.
  Rng pool_rng(88011);
  const auto pool =
      jury::testing::RandomPool(&pool_rng, 16, 0.5, 0.95, 0.05, 0.4);
  const std::vector<double> budgets{0.25, 0.5, 0.75};
  OptjsOptions options;
  options.annealing.num_restarts = 2;
  ScopedThreadsEnv env("8");
  BudgetTableOptions nested;  // default: nested parallelism on
  BudgetTableOptions pinned;
  pinned.nested_solver_parallelism = false;
  Rng rng_a(987);
  const auto with_nested =
      BuildBudgetQualityTable(pool, budgets, 0.5, &rng_a, options, nested)
          .value();
  Rng rng_b(987);
  const auto with_pin =
      BuildBudgetQualityTable(pool, budgets, 0.5, &rng_b, options, pinned)
          .value();
  ASSERT_EQ(with_nested.size(), with_pin.size());
  for (std::size_t i = 0; i < with_nested.size(); ++i) {
    EXPECT_EQ(with_nested[i].selected, with_pin[i].selected) << "row " << i;
    EXPECT_NEAR(with_nested[i].jq, with_pin[i].jq, 1e-12);
  }
}

}  // namespace
}  // namespace jury
