#include "sim/batch_runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/session.hpp"

namespace circles::sim {
namespace {

std::vector<RunSpec> small_grid() {
  std::vector<RunSpec> specs;
  {
    RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = 16;
    spec.trials = 6;
    spec.circles_stats = true;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.protocol = "tie_report";
    spec.params.k = 3;
    spec.n = 12;
    spec.workload = WorkloadSpec::exact_tie(2);
    spec.grading = Grading::kTieAware;
    spec.trials = 4;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.protocol = "exact_majority_4state";
    spec.params.k = 2;
    spec.workload = WorkloadSpec::explicit_counts({7, 4});
    spec.scheduler = pp::SchedulerKind::kRoundRobin;
    spec.trials = 3;
    specs.push_back(spec);
  }
  return specs;
}

void expect_identical(const SpecResult& a, const SpecResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(a.trials[t].seed, b.trials[t].seed);
    EXPECT_EQ(a.trials[t].workload.counts, b.trials[t].workload.counts);
    EXPECT_EQ(a.trials[t].outcome.run.interactions,
              b.trials[t].outcome.run.interactions);
    EXPECT_EQ(a.trials[t].outcome.run.state_changes,
              b.trials[t].outcome.run.state_changes);
    EXPECT_EQ(a.trials[t].outcome.correct, b.trials[t].outcome.correct);
    EXPECT_EQ(a.trials[t].outcome.consensus, b.trials[t].outcome.consensus);
    EXPECT_EQ(a.trials[t].ket_exchanges, b.trials[t].ket_exchanges);
  }
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.interactions.mean, b.interactions.mean);
  EXPECT_EQ(a.interactions.p90, b.interactions.p90);
  EXPECT_EQ(a.ket_exchanges.mean, b.ket_exchanges.mean);
}

TEST(BatchRunnerTest, ResultsAreThreadCountInvariant) {
  const auto specs = small_grid();
  const auto single = BatchRunner({.threads = 1, .base_seed = 99}).run(specs);
  const auto pooled = BatchRunner({.threads = 8, .base_seed = 99}).run(specs);
  ASSERT_EQ(single.size(), specs.size());
  ASSERT_EQ(pooled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(single[i], pooled[i]);
  }
}

TEST(BatchRunnerTest, TrialSeedsAreIndependentStreams) {
  auto specs = small_grid();
  const auto results = BatchRunner({.threads = 2, .base_seed = 5}).run(specs);
  std::set<std::uint64_t> seeds;
  for (const auto& result : results) {
    for (const auto& rec : result.trials) seeds.insert(rec.seed);
  }
  std::size_t total = 0;
  for (const auto& spec : specs) total += spec.trials;
  EXPECT_EQ(seeds.size(), total);  // all (spec, trial) streams distinct

  // Specs that pin their seed share per-trial streams across protocols:
  // identical workloads and schedules for apples-to-apples comparisons.
  RunSpec a, b;
  a.protocol = "circles";
  a.params.k = 2;
  a.n = 14;
  a.trials = 4;
  a.seed = 1234;
  b = a;
  b.protocol = "approx_majority_3state";
  const auto shared = BatchRunner({.threads = 2}).run({a, b});
  for (std::uint32_t t = 0; t < a.trials; ++t) {
    EXPECT_EQ(shared[0].trials[t].seed, shared[1].trials[t].seed);
    EXPECT_EQ(shared[0].trials[t].workload.counts,
              shared[1].trials[t].workload.counts);
  }
}

TEST(BatchRunnerTest, ChangingBaseSeedChangesUnpinnedStreams) {
  auto specs = small_grid();
  const auto first = BatchRunner({.threads = 1, .base_seed = 1}).run(specs);
  const auto second = BatchRunner({.threads = 1, .base_seed = 2}).run(specs);
  EXPECT_NE(first[0].trials[0].seed, second[0].trials[0].seed);
}

TEST(BatchRunnerTest, AggregatesMatchPerTrialRecords) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 4;
  spec.n = 24;
  spec.trials = 8;
  spec.circles_stats = true;
  const auto result = BatchRunner({.threads = 4, .base_seed = 3}).run_one(spec);

  ASSERT_EQ(result.trial_count, spec.trials);
  ASSERT_EQ(result.trials.size(), spec.trials);
  std::uint32_t correct = 0, silent = 0, matches = 0;
  double interaction_sum = 0.0, exchange_sum = 0.0;
  for (const auto& rec : result.trials) {
    correct += rec.outcome.correct ? 1 : 0;
    silent += rec.outcome.run.silent ? 1 : 0;
    matches += rec.decomposition_matches ? 1 : 0;
    interaction_sum += static_cast<double>(rec.outcome.run.interactions);
    exchange_sum += static_cast<double>(rec.ket_exchanges);
  }
  EXPECT_EQ(result.correct, correct);
  EXPECT_EQ(result.silent, silent);
  EXPECT_EQ(result.decomposition_matches, matches);
  EXPECT_EQ(result.interactions.count, spec.trials);
  EXPECT_DOUBLE_EQ(result.interactions.mean, interaction_sum / spec.trials);
  EXPECT_DOUBLE_EQ(result.ket_exchanges.mean, exchange_sum / spec.trials);

  // Theorem 3.7 on the side: every circles trial must be correct & silent.
  EXPECT_TRUE(result.all_correct());
  EXPECT_TRUE(result.all_silent());
  EXPECT_EQ(result.potential_descent_violations, 0u);
  EXPECT_EQ(result.braket_invariant_violations, 0u);
  EXPECT_EQ(result.decomposition_rate(), 1.0);
}

TEST(BatchRunnerTest, TrialsMatchSingleTrialRunner) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.workload = WorkloadSpec::explicit_counts({5, 3, 2});
  spec.trials = 3;
  const auto result = BatchRunner({.threads = 1, .base_seed = 17}).run_one(spec);

  const auto protocol = ProtocolRegistry::global().create("circles", {.k = 3});
  for (const auto& rec : result.trials) {
    TrialOptions options;
    options.seed = rec.seed;
    const TrialOutcome direct =
        run_trial(*protocol, rec.workload, options);
    EXPECT_EQ(direct.run.interactions, rec.outcome.run.interactions);
    EXPECT_EQ(direct.run.state_changes, rec.outcome.run.state_changes);
    EXPECT_EQ(direct.correct, rec.outcome.correct);
  }
}

TEST(BatchRunnerTest, ValidatesSpecsUpFront) {
  RunSpec unknown;
  unknown.protocol = "no_such_protocol";
  unknown.n = 8;
  unknown.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(unknown), std::invalid_argument);

  RunSpec not_circles;
  not_circles.protocol = "exact_majority_4state";
  not_circles.workload = WorkloadSpec::explicit_counts({3, 2});
  not_circles.trials = 1;
  not_circles.circles_stats = true;
  EXPECT_THROW(BatchRunner().run_one(not_circles), std::invalid_argument);

  RunSpec zero_trials;
  zero_trials.protocol = "circles";
  zero_trials.n = 8;
  zero_trials.trials = 0;
  EXPECT_THROW(BatchRunner().run_one(zero_trials), std::invalid_argument);

  // Explicit counts must match the protocol's color count.
  RunSpec mismatched;
  mismatched.protocol = "circles";
  mismatched.params.k = 3;
  mismatched.workload = WorkloadSpec::explicit_counts({5, 3});
  mismatched.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(mismatched), std::invalid_argument);

  // Populations need at least two agents (default n = 0 rejected cleanly).
  RunSpec too_small;
  too_small.protocol = "circles";
  too_small.trials = 1;
  EXPECT_THROW(BatchRunner().run_one(too_small), std::invalid_argument);

  // chemical_time is incompatible with engine-only features.
  RunSpec chemical_combo;
  chemical_combo.protocol = "circles";
  chemical_combo.params.k = 2;
  chemical_combo.n = 8;
  chemical_combo.trials = 1;
  chemical_combo.chemical_time = true;
  chemical_combo.circles_stats = true;
  EXPECT_THROW(BatchRunner().run_one(chemical_combo), std::invalid_argument);
}

TEST(BatchRunnerTest, ReplayRunsTheBatchValidation) {
  // A REPRO replay sets its spec up exactly as the batch does: what the
  // batch rejects, the replay rejects with the same message.
  RunSpec round_robin;
  round_robin.protocol = "circles";
  round_robin.params.k = 3;
  round_robin.n = 300;
  round_robin.trials = 1;
  round_robin.backend = EngineKind::kDenseBatched;
  round_robin.scheduler = pp::SchedulerKind::kRoundRobin;

  RunSpec tolerances = round_robin;
  tolerances.scheduler = pp::SchedulerKind::kUniformRandom;
  tolerances.rtol = 0.1;

  for (const RunSpec& spec : {round_robin, tolerances}) {
    SCOPED_TRACE(spec.to_string());
    std::string batch_error;
    try {
      (void)BatchRunner().run_one(spec);
    } catch (const std::invalid_argument& e) {
      batch_error = e.what();
    }
    ASSERT_FALSE(batch_error.empty());
    try {
      (void)BatchRunner::execute_trial(spec, 1);
      ADD_FAILURE() << "replay accepted a spec the batch rejects";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), batch_error);
    }
  }
}

TEST(BatchRunnerTest, TieAwareGradingAcceptsTieSymbolConsensus) {
  RunSpec spec;
  spec.protocol = "tie_report";
  spec.params.k = 2;
  spec.workload = WorkloadSpec::explicit_counts({4, 4});
  spec.grading = Grading::kTieAware;
  spec.trials = 4;
  const auto result = BatchRunner({.base_seed = 11}).run_one(spec);
  EXPECT_TRUE(result.all_correct());
  for (const auto& rec : result.trials) {
    EXPECT_EQ(rec.outcome.consensus, std::optional<pp::OutputSymbol>(2u));
  }
}

TEST(BatchRunnerTest, KeepTrialsOffStillAggregates) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.trials = 5;
  const auto result =
      BatchRunner({.threads = 2, .base_seed = 7, .keep_trials = false})
          .run_one(spec);
  EXPECT_TRUE(result.trials.empty());
  EXPECT_EQ(result.trial_count, 5u);
  EXPECT_EQ(result.interactions.count, 5u);
  EXPECT_TRUE(result.all_correct());
}

TEST(SessionBuilderTest, TenLineQuickstart) {
  const SpecResult result = SessionBuilder()
                                .protocol("circles")
                                .k(3)
                                .n(30)
                                .workload(WorkloadSpec::zipf(1.3))
                                .scheduler("uniform")
                                .trials(4)
                                .seed(2025)
                                .run();
  EXPECT_TRUE(result.all_correct());
  EXPECT_TRUE(result.all_silent());
  EXPECT_EQ(result.trial_count, 4u);
}

TEST(SessionBuilderTest, CountsSetKAndWorkload) {
  const RunSpec spec =
      SessionBuilder().protocol("circles").counts({5, 1, 2, 2}).build();
  EXPECT_EQ(spec.params.k, 4u);
  EXPECT_EQ(spec.effective_n(), 10u);
  EXPECT_EQ(spec.workload.family, WorkloadSpec::Family::kExplicit);
}

}  // namespace
}  // namespace circles::sim
