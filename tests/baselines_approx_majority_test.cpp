#include "baselines/approx_majority_3state.hpp"

#include <gtest/gtest.h>

#include "analysis/workload.hpp"
#include "sim/trial.hpp"

namespace circles::baselines {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(ApproxMajority3StateTest, StateMetadata) {
  ApproxMajority3State protocol;
  EXPECT_EQ(protocol.num_states(), 3u);
  EXPECT_EQ(protocol.num_colors(), 2u);
  EXPECT_EQ(protocol.input(0), ApproxMajority3State::kX);
  EXPECT_EQ(protocol.input(1), ApproxMajority3State::kY);
  EXPECT_EQ(protocol.output(ApproxMajority3State::kX), 0u);
  EXPECT_EQ(protocol.output(ApproxMajority3State::kY), 1u);
  EXPECT_EQ(protocol.output(ApproxMajority3State::kBlank), 0u);
}

TEST(ApproxMajority3StateTest, TransitionRules) {
  ApproxMajority3State protocol;
  {
    // X meets Y: initiator survives, responder blanked.
    const pp::Transition tr = protocol.transition(ApproxMajority3State::kX,
                                                  ApproxMajority3State::kY);
    EXPECT_EQ(tr.initiator, ApproxMajority3State::kX);
    EXPECT_EQ(tr.responder, ApproxMajority3State::kBlank);
  }
  {
    const pp::Transition tr = protocol.transition(ApproxMajority3State::kY,
                                                  ApproxMajority3State::kX);
    EXPECT_EQ(tr.initiator, ApproxMajority3State::kY);
    EXPECT_EQ(tr.responder, ApproxMajority3State::kBlank);
  }
  {
    const pp::Transition tr = protocol.transition(
        ApproxMajority3State::kX, ApproxMajority3State::kBlank);
    EXPECT_EQ(tr.responder, ApproxMajority3State::kX);
  }
  {
    const pp::Transition tr = protocol.transition(
        ApproxMajority3State::kBlank, ApproxMajority3State::kY);
    EXPECT_EQ(tr.initiator, ApproxMajority3State::kY);
  }
  {
    const pp::Transition tr = protocol.transition(
        ApproxMajority3State::kBlank, ApproxMajority3State::kBlank);
    EXPECT_EQ(tr.initiator, ApproxMajority3State::kBlank);
    EXPECT_EQ(tr.responder, ApproxMajority3State::kBlank);
  }
}

TEST(ApproxMajority3StateTest, ConvergesToSomeConsensus) {
  ApproxMajority3State protocol;
  Workload w;
  w.counts = {30, 30};  // perfect tie: still converges, to a coin-flip winner
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    TrialOptions options;
    options.seed = rng();
    const auto outcome = sim::run_trial(protocol, w, options);
    EXPECT_TRUE(outcome.run.silent);
    ASSERT_TRUE(outcome.consensus.has_value());
  }
}

TEST(ApproxMajority3StateTest, LargeMarginAlmostAlwaysCorrect) {
  ApproxMajority3State protocol;
  Workload w;
  w.counts = {90, 10};
  util::Rng rng(13);
  int correct = 0;
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    TrialOptions options;
    options.seed = rng();
    const auto outcome = sim::run_trial(protocol, w, options);
    if (outcome.correct) ++correct;
  }
  // With margin 0.8 the failure probability is astronomically small.
  EXPECT_EQ(correct, kTrials);
}

TEST(ApproxMajority3StateTest, SmallMarginSometimesWrong) {
  // The motivating weakness: at margin 2/40 the minority wins noticeably
  // often. This is a statistical property; seeds are fixed so the test is
  // deterministic.
  ApproxMajority3State protocol;
  Workload w;
  w.counts = {21, 19};
  util::Rng rng(29);
  int wrong = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    TrialOptions options;
    options.seed = rng();
    const auto outcome = sim::run_trial(protocol, w, options);
    ASSERT_TRUE(outcome.run.silent);
    ASSERT_TRUE(outcome.consensus.has_value());
    if (*outcome.consensus != 0) ++wrong;
  }
  EXPECT_GT(wrong, 0) << "3-state approximate majority never erred at margin "
                         "2/40 across 200 seeded trials — suspicious";
}

TEST(ApproxMajority3StateTest, StateNames) {
  ApproxMajority3State protocol;
  EXPECT_EQ(protocol.state_name(0), "X");
  EXPECT_EQ(protocol.state_name(1), "Y");
  EXPECT_EQ(protocol.state_name(2), "B");
}

}  // namespace
}  // namespace circles::baselines
