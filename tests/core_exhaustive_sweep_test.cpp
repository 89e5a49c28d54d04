// Deeper exhaustive grids for the paper's main claims, parameterized so each
// (scheduler, n) cell is an individual ctest entry. These complement
// core_simulation_test's fixed grids with larger populations and both
// deterministic weakly fair schedulers, covering every k=2 count split up to
// n=10 and every k=3 split up to n=7 — thousands of distinct instances.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "sim/trial.hpp"

namespace circles::core {
namespace {

using sim::TrialOptions;
using analysis::Workload;

class TwoColorExhaustive
    : public testing::TestWithParam<std::tuple<pp::SchedulerKind, std::uint64_t>> {
};

TEST_P(TwoColorExhaustive, EveryCountSplitObeysAllClaims) {
  const auto [scheduler, n] = GetParam();
  CirclesProtocol protocol(2);
  for (std::uint64_t zeros = 0; zeros <= n; ++zeros) {
    Workload w;
    w.counts = {zeros, n - zeros};
    TrialOptions options;
    options.scheduler = scheduler;
    options.seed = 1000 * n + zeros;
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    ASSERT_TRUE(outcome.trial.run.silent) << w.to_string();
    EXPECT_EQ(outcome.braket_invariant_violations, 0u) << w.to_string();
    EXPECT_EQ(outcome.potential_descent_violations, 0u) << w.to_string();
    EXPECT_TRUE(outcome.decomposition_matches) << w.to_string();
    if (!w.tied()) {
      EXPECT_TRUE(outcome.trial.correct) << w.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TwoColorExhaustive,
    testing::Combine(testing::Values(pp::SchedulerKind::kRoundRobin,
                                     pp::SchedulerKind::kShuffledSweep,
                                     pp::SchedulerKind::kUniformRandom),
                     testing::Values(4ull, 6ull, 8ull, 10ull)),
    [](const testing::TestParamInfo<std::tuple<pp::SchedulerKind, std::uint64_t>>&
           info) {
      return pp::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

class ThreeColorExhaustive
    : public testing::TestWithParam<std::tuple<pp::SchedulerKind, std::uint64_t>> {
};

TEST_P(ThreeColorExhaustive, EveryCountSplitObeysAllClaims) {
  const auto [scheduler, n] = GetParam();
  CirclesProtocol protocol(3);
  for (std::uint64_t a = 0; a <= n; ++a) {
    for (std::uint64_t b = 0; a + b <= n; ++b) {
      Workload w;
      w.counts = {a, b, n - a - b};
      TrialOptions options;
      options.scheduler = scheduler;
      options.seed = 10000 * n + 100 * a + b;
      const auto outcome = sim::run_circles_trial(protocol, w, options);
      ASSERT_TRUE(outcome.trial.run.silent) << w.to_string();
      EXPECT_EQ(outcome.braket_invariant_violations, 0u) << w.to_string();
      EXPECT_EQ(outcome.potential_descent_violations, 0u) << w.to_string();
      EXPECT_TRUE(outcome.decomposition_matches) << w.to_string();
      if (!w.tied()) {
        EXPECT_TRUE(outcome.trial.correct) << w.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreeColorExhaustive,
    testing::Combine(testing::Values(pp::SchedulerKind::kRoundRobin,
                                     pp::SchedulerKind::kShuffledSweep),
                     testing::Values(5ull, 6ull, 7ull)),
    [](const testing::TestParamInfo<std::tuple<pp::SchedulerKind, std::uint64_t>>&
           info) {
      return pp::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace circles::core
