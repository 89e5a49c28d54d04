#include "crn/gillespie.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/workload.hpp"
#include "baselines/approx_majority_3state.hpp"
#include "core/circles_protocol.hpp"
#include "kernel/compiled_protocol.hpp"

namespace circles::crn {
namespace {

TEST(GillespieTest, ClockAdvancesMonotonically) {
  core::CirclesProtocol protocol(3);
  util::Rng rng(1);
  const analysis::Workload w = analysis::random_unique_winner(rng, 20, 3);
  const auto colors = w.agent_colors(rng);
  const GillespieResult result = run_gillespie(protocol, colors, 7);
  EXPECT_TRUE(result.run.silent);
  EXPECT_GT(result.stabilization_time, 0.0);
  EXPECT_GT(result.convergence_time, 0.0);
  EXPECT_LE(result.convergence_time, result.stabilization_time * 10 + 1e9);
  EXPECT_GT(result.parallel_time, 0.0);
}

TEST(GillespieTest, DeterministicUnderSeed) {
  core::CirclesProtocol protocol(2);
  std::vector<pp::ColorId> colors{0, 0, 0, 1, 1};
  const GillespieResult a = run_gillespie(protocol, colors, 42);
  const GillespieResult b = run_gillespie(protocol, colors, 42);
  EXPECT_EQ(a.run.interactions, b.run.interactions);
  EXPECT_DOUBLE_EQ(a.stabilization_time, b.stabilization_time);
}

TEST(GillespieTest, JumpChainMatchesDiscreteEngineOutcome) {
  // The embedded discrete chain is the uniform scheduler, so the final
  // answer must be the plurality winner, like any uniform run.
  core::CirclesProtocol protocol(4);
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const analysis::Workload w = analysis::random_unique_winner(rng, 16, 4);
    const auto colors = w.agent_colors(rng);
    const GillespieResult result = run_gillespie(protocol, colors, rng());
    EXPECT_TRUE(result.run.silent);
    EXPECT_TRUE(result.run.consensus_on(*w.winner())) << w.to_string();
  }
}

TEST(GillespieTest, ParallelTimeTracksChemicalTime) {
  // Chemical time to a fixed number of interactions concentrates around
  // interactions / (n-1); parallel time uses interactions / n. The two
  // clocks must agree within a modest factor for large-ish runs.
  core::CirclesProtocol protocol(6);
  util::Rng rng(9);
  const analysis::Workload w = analysis::random_unique_winner(rng, 100, 6);
  const auto colors = w.agent_colors(rng);
  const GillespieResult result = run_gillespie(protocol, colors, rng());
  ASSERT_TRUE(result.run.silent);
  const double chem = result.stabilization_time;
  const double para =
      static_cast<double>(result.run.last_change_step + 1) / 100.0;
  EXPECT_GT(chem, 0.2 * para);
  EXPECT_LT(chem, 5.0 * para);
}

TEST(ReactionEnumerationTest, ApproxMajorityHasTheTextbookNetwork) {
  baselines::ApproxMajority3State protocol;
  const auto rxns = reactions(protocol);
  // X+Y -> X+B, Y+X -> Y+B, X+B -> X+X, B+X -> X+X, Y+B -> Y+Y, B+Y -> Y+Y.
  EXPECT_EQ(rxns.size(), 6u);
  std::vector<std::string> rendered;
  for (const auto& r : rxns) rendered.push_back(r.to_string(protocol));
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "X + Y -> X + B"),
            rendered.end());
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "X + B -> X + X"),
            rendered.end());
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "B + Y -> Y + Y"),
            rendered.end());
}

TEST(ReactionEnumerationTest, InputRestrictionShrinksTheNetwork) {
  core::CirclesProtocol protocol(4);
  // Only colors 0 and 1 in play: the closure cannot mention color 2/3 kets.
  const std::vector<pp::ColorId> inputs{0, 1};
  const auto restricted = reactions(protocol, inputs);
  const auto full = reactions(protocol);
  EXPECT_LT(restricted.size(), full.size());
  for (const auto& r : restricted) {
    for (const pp::StateId s : {r.in_a, r.in_b, r.out_a, r.out_b}) {
      const auto f = protocol.decode(s);
      EXPECT_LT(f.braket.bra, 2u);
      EXPECT_LT(f.braket.ket, 2u);
    }
  }
}

TEST(ReactionEnumerationTest, NullTransitionsExcluded) {
  core::CirclesProtocol protocol(2);
  for (const auto& r : reactions(protocol)) {
    EXPECT_FALSE(r.in_a == r.out_a && r.in_b == r.out_b);
  }
}

TEST(ExponentialClockMonitorTest, MeanInterArrivalMatchesRate) {
  // n agents => rate n-1; over many interactions the empirical mean
  // inter-collision time approaches 1/(n-1).
  core::CirclesProtocol protocol(2);
  const std::uint32_t n = 11;  // rate 10
  std::vector<pp::ColorId> colors(n, 0);
  colors[0] = 1;  // some activity, though the clock ticks on null steps too
  util::Rng rng(3);
  pp::Population population(protocol, colors);
  auto scheduler =
      pp::make_scheduler(pp::SchedulerKind::kUniformRandom, n, rng());
  const kernel::CompiledProtocol compiled(protocol);
  ExponentialClockMonitor clock(rng(), compiled);
  pp::Monitor* monitors[] = {&clock};
  pp::EngineOptions options;
  options.max_interactions = 20000;
  options.stop_when_silent = false;
  pp::Engine engine(options);
  engine.run(compiled, population, *scheduler,
             std::span<pp::Monitor* const>(monitors, 1));
  const double mean_gap = clock.now() / 20000.0;
  EXPECT_NEAR(mean_gap, 1.0 / 10.0, 0.01);
}

}  // namespace
}  // namespace circles::crn
