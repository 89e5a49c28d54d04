// Cross-module integration: different protocols must agree with each other
// and with the analytic predictions on the same workloads.
#include <gtest/gtest.h>

#include "analysis/workload.hpp"
#include "baselines/exact_majority_4state.hpp"
#include "baselines/pairwise_plurality.hpp"
#include "baselines/state_complexity.hpp"
#include "core/circles_protocol.hpp"
#include "core/greedy_sets.hpp"
#include "extensions/tie_aware_pairwise.hpp"
#include "extensions/tie_report.hpp"
#include "sim/trial.hpp"

namespace circles {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(IntegrationTest, CirclesAndPairwiseAgreeOnWinner) {
  util::Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform_below(3));
    const Workload w = analysis::random_unique_winner(rng, 18, k);
    core::CirclesProtocol circles(k);
    baselines::PairwisePlurality pairwise(k);
    TrialOptions options;
    options.seed = rng();
    const auto a = sim::run_trial(circles, w, options);
    const auto b = sim::run_trial(pairwise, w, options);
    ASSERT_TRUE(a.correct) << w.to_string();
    ASSERT_TRUE(b.correct) << w.to_string();
    EXPECT_EQ(a.consensus, b.consensus);
  }
}

TEST(IntegrationTest, CirclesMatchesFourStateMajorityAtKTwo) {
  util::Rng rng(202);
  for (std::uint64_t n = 3; n <= 20; n += 3) {
    const Workload w = analysis::random_unique_winner(rng, n, 2);
    core::CirclesProtocol circles(2);
    baselines::ExactMajority4State majority;
    TrialOptions options;
    options.seed = rng();
    const auto a = sim::run_trial(circles, w, options);
    const auto b = sim::run_trial(majority, w, options);
    EXPECT_TRUE(a.correct && b.correct) << w.to_string();
    EXPECT_EQ(a.consensus, b.consensus);
  }
}

TEST(IntegrationTest, TieReportAgreesWithCirclesOnNonTies) {
  util::Rng rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.uniform_below(4));
    const Workload w = analysis::random_unique_winner(rng, 15, k);
    core::CirclesProtocol circles(k);
    ext::TieReportProtocol tie_report(k);
    TrialOptions options;
    options.seed = rng();
    const auto a = sim::run_trial(circles, w, options);
    const auto b = sim::run_trial(tie_report, w, options);
    EXPECT_TRUE(a.correct) << w.to_string();
    EXPECT_TRUE(b.correct) << w.to_string();
    EXPECT_EQ(a.consensus, b.consensus);
  }
}

TEST(IntegrationTest, TieReportAgreesWithTieAwarePairwiseOnTies) {
  util::Rng rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    const Workload w = analysis::exact_tie(rng, 12, 4, 2);
    ext::TieReportProtocol retractor(4);
    ext::TieAwarePairwise pairwise(4, ext::TieSemantics::kReport);
    TrialOptions options;
    options.seed = rng();
    const auto a = sim::run_trial(retractor, w, options, {},
                                       retractor.tie_symbol());
    const auto b = sim::run_trial(pairwise, w, options, {},
                                       pairwise.tie_symbol());
    EXPECT_TRUE(a.correct) << w.to_string();
    EXPECT_TRUE(b.correct) << w.to_string();
  }
}

TEST(IntegrationTest, StableExchangeTotalsAreSeedIndependentInShape) {
  // Theorem 3.4 bounds exchanges; Lemma 3.6 fixes the final configuration.
  // Different seeds may take different exchange counts, but the final
  // bra-ket multiset (and hence correctness) is schedule-independent.
  core::CirclesProtocol protocol(5);
  Workload w;
  w.counts = {6, 5, 4, 3, 2};
  std::optional<pp::OutputSymbol> consensus;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TrialOptions options;
    options.seed = seed;
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    EXPECT_TRUE(outcome.decomposition_matches);
    if (consensus.has_value()) {
      EXPECT_EQ(outcome.trial.consensus, consensus);
    }
    consensus = outcome.trial.consensus;
  }
}

TEST(IntegrationTest, StateComplexityTableMatchesLiveProtocols) {
  for (std::uint32_t k = 2; k <= 5; ++k) {
    const auto rows = baselines::state_complexity_table(k);
    for (const auto& row : rows) {
      if (row.protocol == "circles") {
        EXPECT_EQ(row.states, core::CirclesProtocol(k).num_states());
      } else if (row.protocol == "tie_report") {
        EXPECT_EQ(row.states, ext::TieReportProtocol(k).num_states());
      } else if (row.protocol == "pairwise_plurality") {
        EXPECT_EQ(row.states, baselines::PairwisePlurality(k).num_states());
      } else if (row.protocol == "tie_aware_pairwise" && k <= 5) {
        EXPECT_EQ(row.states,
                  ext::TieAwarePairwise(k, ext::TieSemantics::kReport)
                      .num_states());
      }
    }
  }
}

TEST(IntegrationTest, PredictedDiagonalsShowUpInFinalPopulation) {
  // Margin m ⇒ exactly m diagonal agents survive, all of the winner color.
  util::Rng rng(505);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t k = 3 + static_cast<std::uint32_t>(rng.uniform_below(3));
    const Workload w = analysis::random_unique_winner(rng, 20, k);
    core::CirclesProtocol protocol(k);
    util::Rng trial_rng(rng());
    const auto colors = w.agent_colors(trial_rng);
    pp::Population population(protocol, colors);
    auto scheduler = pp::make_scheduler(
        pp::SchedulerKind::kUniformRandom,
        static_cast<std::uint32_t>(colors.size()), trial_rng(), &protocol);
    pp::Engine engine;
    const auto result = engine.run(protocol, population, *scheduler);
    ASSERT_TRUE(result.silent);
    std::uint64_t diagonals = 0;
    for (const pp::StateId s : population.present_states()) {
      const auto f = protocol.decode(s);
      if (f.braket.diagonal()) {
        diagonals += population.count(s);
        EXPECT_EQ(f.braket.bra, *w.winner());
      }
    }
    EXPECT_EQ(diagonals, core::predicted_diagonal_count(w.counts))
        << w.to_string();
  }
}

}  // namespace
}  // namespace circles
