#include "baselines/exact_majority_4state.hpp"

#include <gtest/gtest.h>

#include "analysis/workload.hpp"
#include "sim/trial.hpp"

namespace circles::baselines {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(ExactMajority4StateTest, StateMetadata) {
  ExactMajority4State protocol;
  EXPECT_EQ(protocol.num_states(), 4u);
  EXPECT_EQ(protocol.num_colors(), 2u);
  EXPECT_EQ(protocol.input(0), ExactMajority4State::kStrong0);
  EXPECT_EQ(protocol.input(1), ExactMajority4State::kStrong1);
  EXPECT_EQ(protocol.output(ExactMajority4State::kStrong0), 0u);
  EXPECT_EQ(protocol.output(ExactMajority4State::kWeak0), 0u);
  EXPECT_EQ(protocol.output(ExactMajority4State::kStrong1), 1u);
  EXPECT_EQ(protocol.output(ExactMajority4State::kWeak1), 1u);
}

TEST(ExactMajority4StateTest, CancellationRule) {
  ExactMajority4State protocol;
  const pp::Transition tr = protocol.transition(
      ExactMajority4State::kStrong0, ExactMajority4State::kStrong1);
  EXPECT_EQ(tr.initiator, ExactMajority4State::kWeak0);
  EXPECT_EQ(tr.responder, ExactMajority4State::kWeak1);
}

TEST(ExactMajority4StateTest, ConversionRules) {
  ExactMajority4State protocol;
  {
    const pp::Transition tr = protocol.transition(
        ExactMajority4State::kStrong0, ExactMajority4State::kWeak1);
    EXPECT_EQ(tr.initiator, ExactMajority4State::kStrong0);
    EXPECT_EQ(tr.responder, ExactMajority4State::kWeak0);
  }
  {
    const pp::Transition tr = protocol.transition(
        ExactMajority4State::kWeak0, ExactMajority4State::kStrong1);
    EXPECT_EQ(tr.initiator, ExactMajority4State::kWeak1);
    EXPECT_EQ(tr.responder, ExactMajority4State::kStrong1);
  }
}

TEST(ExactMajority4StateTest, NullInteractions) {
  ExactMajority4State protocol;
  const pp::StateId states[] = {
      ExactMajority4State::kStrong0, ExactMajority4State::kStrong1,
      ExactMajority4State::kWeak0, ExactMajority4State::kWeak1};
  // Same-color pairs and weak-weak pairs are null.
  for (const pp::StateId s : states) {
    const pp::Transition tr = protocol.transition(s, s);
    EXPECT_EQ(tr.initiator, s);
    EXPECT_EQ(tr.responder, s);
  }
  const pp::Transition ww = protocol.transition(ExactMajority4State::kWeak0,
                                                ExactMajority4State::kWeak1);
  EXPECT_EQ(ww.initiator, ExactMajority4State::kWeak0);
  EXPECT_EQ(ww.responder, ExactMajority4State::kWeak1);
}

TEST(ExactMajority4StateTest, StateNames) {
  ExactMajority4State protocol;
  EXPECT_EQ(protocol.state_name(0), "S0");
  EXPECT_EQ(protocol.state_name(3), "w1");
}

TEST(ExactMajority4StateTest, ExhaustiveMajoritiesAllSchedulers) {
  ExactMajority4State protocol;
  for (std::uint64_t n = 2; n <= 12; ++n) {
    for (std::uint64_t zeros = 0; zeros <= n; ++zeros) {
      if (zeros * 2 == n) continue;  // ties excluded (frozen followers)
      Workload w;
      w.counts = {zeros, n - zeros};
      for (const pp::SchedulerKind kind :
           {pp::SchedulerKind::kRoundRobin, pp::SchedulerKind::kUniformRandom,
            pp::SchedulerKind::kAdversarialDelay}) {
        TrialOptions options;
        options.scheduler = kind;
        options.seed = n * 100 + zeros;
        const auto outcome = sim::run_trial(protocol, w, options);
        EXPECT_TRUE(outcome.correct)
            << "n=" << n << " zeros=" << zeros << " " << pp::to_string(kind);
      }
    }
  }
}

TEST(ExactMajority4StateTest, TieFreezesWithoutConsensus) {
  ExactMajority4State protocol;
  Workload w;
  w.counts = {4, 4};
  TrialOptions options;
  options.seed = 5;
  const auto outcome = sim::run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.run.silent);  // weak agents freeze silently
  EXPECT_FALSE(outcome.correct);
  EXPECT_FALSE(outcome.consensus.has_value());
}

TEST(ExactMajority4StateTest, LandslideConvergesFast) {
  ExactMajority4State protocol;
  Workload w;
  w.counts = {50, 2};
  TrialOptions options;
  options.seed = 11;
  const auto outcome = sim::run_trial(protocol, w, options);
  EXPECT_TRUE(outcome.correct);
  EXPECT_EQ(outcome.consensus, std::optional<pp::OutputSymbol>(0));
}

}  // namespace
}  // namespace circles::baselines
