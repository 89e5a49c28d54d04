// Engine option semantics: silence-check backoff, budgets interacting with
// certificates, and monitor-free fast paths behave identically.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "pp/engine.hpp"
#include "sim/trial.hpp"

namespace circles::pp {
namespace {

TEST(EngineOptionsTest, ResultsIndependentOfSilenceStreakTuning) {
  // The backoff parameter controls when the exact check runs, never what it
  // decides: the same seeded run must end in the same final configuration.
  core::CirclesProtocol protocol(4);
  util::Rng rng(8);
  const analysis::Workload w = analysis::random_unique_winner(rng, 20, 4);

  std::vector<std::uint64_t> outputs_signature;
  for (const std::uint64_t streak : {1ull, 16ull, 64ull, 4096ull}) {
    sim::TrialOptions options;
    options.seed = 555;
    options.engine.initial_silence_streak = streak;
    const auto outcome = sim::run_trial(protocol, w, options);
    EXPECT_TRUE(outcome.run.silent) << "streak " << streak;
    EXPECT_TRUE(outcome.correct) << "streak " << streak;
    // The step of the last state change is a pure function of the schedule
    // stream and protocol — identical across tunings.
    outputs_signature.push_back(outcome.run.last_change_step);
  }
  for (std::size_t i = 1; i < outputs_signature.size(); ++i) {
    EXPECT_EQ(outputs_signature[i], outputs_signature[0]);
  }
}

TEST(EngineOptionsTest, TightBudgetStillReportsExactSilenceStatus) {
  core::CirclesProtocol protocol(3);
  util::Rng rng(4);
  const analysis::Workload w = analysis::random_unique_winner(rng, 12, 3);
  sim::TrialOptions options;
  options.seed = 77;
  options.engine.max_interactions = 5;  // way too small to converge
  const auto outcome = sim::run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.run.budget_exhausted);
  EXPECT_FALSE(outcome.run.silent);
  EXPECT_FALSE(outcome.correct);
}

TEST(EngineOptionsTest, BudgetLandingExactlyOnSilenceIsDetected) {
  // Run once to learn the exact convergence point, then replay with the
  // budget set to exactly that step: the post-hoc exact check must still
  // report silence even though the in-loop certificate never fired.
  core::CirclesProtocol protocol(2);
  analysis::Workload w;
  w.counts = {3, 1};
  sim::TrialOptions options;
  options.seed = 31;
  const auto full = sim::run_trial(protocol, w, options);
  ASSERT_TRUE(full.run.silent);

  sim::TrialOptions replay = options;
  replay.engine.max_interactions = full.run.last_change_step + 1;
  replay.engine.initial_silence_streak = ~0ull;  // disable in-loop checks
  const auto outcome = sim::run_trial(protocol, w, replay);
  EXPECT_TRUE(outcome.run.budget_exhausted);
  EXPECT_TRUE(outcome.run.silent);  // exact post-hoc verdict
}

TEST(EngineOptionsTest, StateChangesMatchLastChangeStepConsistency) {
  core::CirclesProtocol protocol(5);
  util::Rng rng(12);
  const analysis::Workload w = analysis::random_unique_winner(rng, 25, 5);
  sim::TrialOptions options;
  options.seed = 9;
  const auto outcome = sim::run_trial(protocol, w, options);
  ASSERT_TRUE(outcome.run.silent);
  EXPECT_GT(outcome.run.state_changes, 0u);
  EXPECT_LT(outcome.run.last_change_step, outcome.run.interactions);
  EXPECT_GE(outcome.run.state_changes, 1u);
  EXPECT_LE(outcome.run.state_changes, outcome.run.last_change_step + 1);
}

}  // namespace
}  // namespace circles::pp
