// Parameterized property sweeps (TEST_P): the paper's four claims checked
// over the cross product of scheduler kinds, color counts and workload
// families. Every instantiation is one ctest entry.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "extensions/tie_report.hpp"
#include "sim/trial.hpp"

namespace circles {
namespace {

using sim::TrialOptions;
using analysis::Workload;

enum class WorkloadFamily { kRandom, kCloseMargin, kDominant, kZipf };

std::string family_name(WorkloadFamily family) {
  switch (family) {
    case WorkloadFamily::kRandom:
      return "random";
    case WorkloadFamily::kCloseMargin:
      return "close";
    case WorkloadFamily::kDominant:
      return "dominant";
    case WorkloadFamily::kZipf:
      return "zipf";
  }
  return "unknown";
}

Workload make_workload(WorkloadFamily family, util::Rng& rng, std::uint64_t n,
                       std::uint32_t k) {
  switch (family) {
    case WorkloadFamily::kRandom:
      return analysis::random_unique_winner(rng, n, k);
    case WorkloadFamily::kCloseMargin:
      return analysis::close_margin(rng, n, k);
    case WorkloadFamily::kDominant:
      return analysis::dominant(rng, n, k, 0.5);
    case WorkloadFamily::kZipf:
      return analysis::zipf(rng, n, k, 1.3);
  }
  return analysis::random_unique_winner(rng, n, k);
}

using SweepParam = std::tuple<pp::SchedulerKind, std::uint32_t, WorkloadFamily>;

class CirclesPropertySweep : public testing::TestWithParam<SweepParam> {};

TEST_P(CirclesPropertySweep, AllFourClaimsHold) {
  const auto [scheduler, k, family] = GetParam();
  core::CirclesProtocol protocol(k);
  util::Rng rng(0xC1DCE5 + k * 1000 +
                static_cast<std::uint64_t>(scheduler) * 100 +
                static_cast<std::uint64_t>(family) * 10);
  // The adversarial scheduler is O(n) per step; keep its populations small.
  const std::uint64_t n =
      scheduler == pp::SchedulerKind::kAdversarialDelay ? 12 : 36;
  for (int trial = 0; trial < 3; ++trial) {
    Workload w = make_workload(family, rng, n, k);
    if (w.tied()) continue;  // dominant can tie at small n; skip those
    TrialOptions options;
    options.scheduler = scheduler;
    options.seed = rng();
    const auto outcome = sim::run_circles_trial(protocol, w, options);
    // Theorem 3.4 (stabilization, via silence certificate):
    ASSERT_TRUE(outcome.trial.run.silent) << w.to_string();
    // Lemma 3.3 (bra-ket invariant):
    EXPECT_EQ(outcome.braket_invariant_violations, 0u) << w.to_string();
    // Theorem 3.4 (ordinal potential descent):
    EXPECT_EQ(outcome.potential_descent_violations, 0u) << w.to_string();
    // Lemma 3.6 (decomposition):
    EXPECT_TRUE(outcome.decomposition_matches) << w.to_string();
    // Theorem 3.7 (correctness):
    EXPECT_TRUE(outcome.trial.correct) << w.to_string();
  }
}

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  const auto [scheduler, k, family] = info.param;
  return pp::to_string(scheduler) + "_k" + std::to_string(k) + "_" +
         family_name(family);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CirclesPropertySweep,
    testing::Combine(testing::ValuesIn(pp::kAllSchedulerKinds),
                     testing::Values(2u, 3u, 5u, 8u),
                     testing::Values(WorkloadFamily::kRandom,
                                     WorkloadFamily::kCloseMargin,
                                     WorkloadFamily::kDominant,
                                     WorkloadFamily::kZipf)),
    sweep_name);

class TieReportPropertySweep
    : public testing::TestWithParam<std::tuple<pp::SchedulerKind, std::uint32_t>> {
};

TEST_P(TieReportPropertySweep, ReportsTiesAndWinnersCorrectly) {
  const auto [scheduler, k] = GetParam();
  ext::TieReportProtocol protocol(k);
  util::Rng rng(0x7137 + k * 97 + static_cast<std::uint64_t>(scheduler));
  const std::uint64_t n =
      scheduler == pp::SchedulerKind::kAdversarialDelay ? 10 : 24;
  // One tied and one untied instance per scheduler/k cell.
  {
    Workload w = analysis::exact_tie(rng, n, k, 2);
    TrialOptions options;
    options.scheduler = scheduler;
    options.seed = rng();
    const auto outcome =
        sim::run_trial(protocol, w, options, {}, protocol.tie_symbol());
    EXPECT_TRUE(outcome.run.silent) << w.to_string();
    EXPECT_TRUE(outcome.correct) << "tie not reported for " << w.to_string();
  }
  {
    Workload w = analysis::random_unique_winner(rng, n, k);
    TrialOptions options;
    options.scheduler = scheduler;
    options.seed = rng();
    const auto outcome = sim::run_trial(protocol, w, options);
    EXPECT_TRUE(outcome.run.silent) << w.to_string();
    EXPECT_TRUE(outcome.correct) << "winner missed for " << w.to_string();
  }
}

std::string tie_sweep_name(
    const testing::TestParamInfo<std::tuple<pp::SchedulerKind, std::uint32_t>>&
        info) {
  const auto [scheduler, k] = info.param;
  return pp::to_string(scheduler) + "_k" + std::to_string(k);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TieReportPropertySweep,
    testing::Combine(testing::ValuesIn(pp::kAllSchedulerKinds),
                     testing::Values(2u, 3u, 4u, 6u)),
    tie_sweep_name);

}  // namespace
}  // namespace circles
