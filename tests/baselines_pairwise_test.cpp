#include "baselines/pairwise_plurality.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "analysis/workload.hpp"
#include "sim/trial.hpp"

namespace circles::baselines {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(PairwisePluralityTest, StateCountMatchesFormula) {
  for (std::uint32_t k = 1; k <= 6; ++k) {
    PairwisePlurality protocol(k);
    EXPECT_EQ(protocol.num_states(), PairwisePlurality::state_count_formula(k))
        << "k=" << k;
  }
  EXPECT_EQ(PairwisePlurality::state_count_formula(1), 1u);
  EXPECT_EQ(PairwisePlurality::state_count_formula(2), 2u * 3);
  EXPECT_EQ(PairwisePlurality::state_count_formula(3), 3u * 9 * 2);
  EXPECT_EQ(PairwisePlurality::state_count_formula(4), 4u * 27 * 8);
  EXPECT_EQ(PairwisePlurality::state_count_formula(5), 5u * 81 * 64);
}

TEST(PairwisePluralityTest, GamesEnumerateUnorderedPairs) {
  PairwisePlurality protocol(4);
  EXPECT_EQ(protocol.num_games(), 6u);
  EXPECT_TRUE(protocol.plays(0, 0));   // game {0,1}
  EXPECT_FALSE(protocol.plays(2, 0));  // spectator of {0,1}
}

TEST(PairwisePluralityTest, EncodeDecodeRoundTripAllStates) {
  for (std::uint32_t k : {2u, 3u, 4u}) {
    PairwisePlurality protocol(k);
    for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
      const auto d = protocol.decode(s);
      EXPECT_EQ(protocol.encode(d), s);
    }
  }
}

TEST(PairwisePluralityTest, InputStartsStrongEverywhere) {
  PairwisePlurality protocol(4);
  for (pp::ColorId c = 0; c < 4; ++c) {
    const auto d = protocol.decode(protocol.input(c));
    EXPECT_EQ(d.color, c);
    for (std::uint32_t g = 0; g < protocol.num_games(); ++g) {
      if (protocol.plays(c, g)) {
        EXPECT_EQ(static_cast<PairwisePlurality::PlayerSub>(d.sub[g]),
                  PairwisePlurality::PlayerSub::kStrong);
        EXPECT_EQ(protocol.belief(d, g), c);
      }
    }
    // A fresh agent believes itself the winner of all its games.
    EXPECT_EQ(protocol.output(protocol.input(c)), c);
  }
}

TEST(PairwisePluralityTest, CancellationIsPerGame) {
  PairwisePlurality protocol(3);
  // Colors 0 and 1 play game {0,1} (index 0). Strong 0 meets strong 1:
  // both become weak in that game only.
  const pp::Transition tr =
      protocol.transition(protocol.input(0), protocol.input(1));
  const auto a = protocol.decode(tr.initiator);
  const auto b = protocol.decode(tr.responder);
  EXPECT_EQ(protocol.belief(a, 0), 0u);  // weak but still believes itself
  EXPECT_EQ(protocol.belief(b, 0), 1u);
  EXPECT_NE(static_cast<PairwisePlurality::PlayerSub>(a.sub[0]),
            PairwisePlurality::PlayerSub::kStrong);
  EXPECT_NE(static_cast<PairwisePlurality::PlayerSub>(b.sub[0]),
            PairwisePlurality::PlayerSub::kStrong);
  // Game {0,2} (index 1): agent b spectates and a stayed strong; b adopts 0.
  EXPECT_EQ(protocol.belief(b, 1), 0u);
  // Game {1,2} (index 2): a spectates, b stayed strong; a adopts 1.
  EXPECT_EQ(protocol.belief(a, 2), 1u);
}

void for_all_workloads(std::uint32_t k, std::uint64_t n,
                       const std::function<void(const Workload&)>& f) {
  std::vector<std::uint64_t> counts(k, 0);
  std::function<void(std::uint32_t, std::uint64_t)> rec =
      [&](std::uint32_t color, std::uint64_t rest) {
        if (color + 1 == k) {
          counts[color] = rest;
          Workload w;
          w.counts = counts;
          f(w);
          return;
        }
        for (std::uint64_t c = 0; c <= rest; ++c) {
          counts[color] = c;
          rec(color + 1, rest - c);
        }
      };
  rec(0, n);
}

TEST(PairwisePluralityTest, ExhaustiveThreeColorCorrectness) {
  PairwisePlurality protocol(3);
  for (std::uint64_t n = 2; n <= 6; ++n) {
    for_all_workloads(3, n, [&](const Workload& w) {
      if (!w.winner().has_value()) return;  // plurality ties excluded
      TrialOptions options;
      options.scheduler = pp::SchedulerKind::kRoundRobin;
      options.seed = 41 * n + w.counts[0] * 3 + w.counts[1];
      const auto outcome = sim::run_trial(protocol, w, options);
      EXPECT_TRUE(outcome.correct) << "counts=" << w.to_string();
    });
  }
}

TEST(PairwisePluralityTest, LoserTiesDoNotConfuseOutput) {
  // Counts (4, 2, 2): the game {1, 2} ties and freezes, but 0 beats both,
  // so every agent must still output 0.
  PairwisePlurality protocol(3);
  Workload w;
  w.counts = {4, 2, 2};
  for (const pp::SchedulerKind kind :
       {pp::SchedulerKind::kRoundRobin, pp::SchedulerKind::kUniformRandom,
        pp::SchedulerKind::kShuffledSweep}) {
    TrialOptions options;
    options.scheduler = kind;
    options.seed = 17;
    const auto outcome = sim::run_trial(protocol, w, options);
    EXPECT_TRUE(outcome.correct) << pp::to_string(kind);
  }
}

TEST(PairwisePluralityTest, RandomizedFourAndFiveColors) {
  util::Rng rng(55);
  for (const std::uint32_t k : {4u, 5u}) {
    PairwisePlurality protocol(k);
    for (int trial = 0; trial < 5; ++trial) {
      const Workload w = analysis::random_unique_winner(rng, 24, k);
      TrialOptions options;
      options.seed = rng();
      const auto outcome = sim::run_trial(protocol, w, options);
      EXPECT_TRUE(outcome.correct)
          << "k=" << k << " counts=" << w.to_string();
    }
  }
}

TEST(PairwisePluralityTest, StateNameShowsPerGameStatus) {
  PairwisePlurality protocol(3);
  const std::string name = protocol.state_name(protocol.input(0));
  EXPECT_NE(name.find("c0["), std::string::npos);
  EXPECT_NE(name.find("S"), std::string::npos);
}

TEST(PairwisePluralityDeathTest, RejectsLargeK) {
  EXPECT_DEATH(PairwisePlurality(7), "capped");
}

}  // namespace
}  // namespace circles::baselines
