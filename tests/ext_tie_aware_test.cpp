#include "extensions/tie_aware_pairwise.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "analysis/workload.hpp"
#include "sim/trial.hpp"

namespace circles::ext {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(TieAwarePairwiseTest, StateMetadata) {
  TieAwarePairwise report(3, TieSemantics::kReport);
  EXPECT_EQ(report.num_states(), 3ull * 25 * 3);  // k * 5^2 * 3^1
  EXPECT_EQ(report.num_output_symbols(), 4u);
  TieAwarePairwise brk(3, TieSemantics::kBreak);
  EXPECT_EQ(brk.num_output_symbols(), 3u);
  EXPECT_EQ(report.name(), "tie_report_pairwise");
  EXPECT_EQ(brk.name(), "tie_break_pairwise");
  EXPECT_EQ(TieAwarePairwise(3, TieSemantics::kShare).name(),
            "tie_share_pairwise");
}

TEST(TieAwarePairwiseTest, EncodeDecodeRoundTrip) {
  for (const auto semantics :
       {TieSemantics::kReport, TieSemantics::kBreak, TieSemantics::kShare}) {
    TieAwarePairwise protocol(3, semantics);
    for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
      EXPECT_EQ(protocol.encode(protocol.decode(s)), s);
    }
  }
}

TEST(TieAwarePairwiseTest, CancellationCreatesRetractors) {
  TieAwarePairwise protocol(2, TieSemantics::kReport);
  // Two strong players cancel: both become retractors believing TIE.
  const pp::Transition first =
      protocol.transition(protocol.input(0), protocol.input(1));
  const auto a = protocol.decode(first.initiator);
  const auto b = protocol.decode(first.responder);
  EXPECT_EQ(static_cast<TieAwarePairwise::PlayerSub>(a.sub[0]),
            TieAwarePairwise::PlayerSub::kRetractor);
  EXPECT_EQ(static_cast<TieAwarePairwise::PlayerSub>(b.sub[0]),
            TieAwarePairwise::PlayerSub::kRetractor);
  EXPECT_EQ(protocol.belief(a, 0), protocol.tie_symbol());
  EXPECT_EQ(protocol.belief(b, 0), protocol.tie_symbol());
  EXPECT_EQ(protocol.output(first.initiator), protocol.tie_symbol());
}

TEST(TieAwarePairwiseTest, StrongClearsRetractorAndRetractorNeverSpreads) {
  TieAwarePairwise protocol(2, TieSemantics::kReport);
  // Build a retractor by cancelling, then have a fresh strong clear it.
  const pp::Transition cancelled =
      protocol.transition(protocol.input(0), protocol.input(1));
  {
    const pp::Transition cleared =
        protocol.transition(protocol.input(0), cancelled.responder);
    const auto cleared_agent = protocol.decode(cleared.responder);
    EXPECT_EQ(static_cast<TieAwarePairwise::PlayerSub>(cleared_agent.sub[0]),
              TieAwarePairwise::PlayerSub::kWeakLo);
    EXPECT_EQ(protocol.belief(cleared_agent, 0), 0u);
  }
  {
    // Retractor meets a believing player: the belief flips to TIE but the
    // retractor bit must not replicate.
    TieAwarePairwise::Decoded weak;
    weak.color = 0;
    weak.sub = {static_cast<std::uint8_t>(TieAwarePairwise::PlayerSub::kWeakLo)};
    const pp::Transition spread = protocol.transition(
        cancelled.initiator, protocol.encode(weak));
    const auto converted = protocol.decode(spread.responder);
    EXPECT_EQ(static_cast<TieAwarePairwise::PlayerSub>(converted.sub[0]),
              TieAwarePairwise::PlayerSub::kWeakTie);
  }
}

/// Expected output under each semantics given the true counts.
pp::OutputSymbol expected_output(const TieAwarePairwise& protocol,
                                 const Workload& w, pp::ColorId own_color) {
  std::uint64_t top = 0;
  for (const auto c : w.counts) top = std::max(top, c);
  std::vector<pp::ColorId> winners;
  for (pp::ColorId c = 0; c < w.k(); ++c) {
    if (w.counts[c] == top && top > 0) winners.push_back(c);
  }
  switch (protocol.semantics()) {
    case TieSemantics::kReport:
      return winners.size() == 1 ? winners[0] : protocol.tie_symbol();
    case TieSemantics::kBreak:
      return winners[0];
    case TieSemantics::kShare:
      for (const pp::ColorId c : winners) {
        if (c == own_color) return c;
      }
      return winners[0];
  }
  return winners[0];
}

void run_and_check(const TieAwarePairwise& protocol, const Workload& w,
                   std::uint64_t seed, pp::SchedulerKind kind) {
  // TieShare is graded per-agent, so run manually instead of via run_trial.
  util::Rng rng(seed);
  const auto colors = w.agent_colors(rng);
  if (colors.size() < 2) return;
  pp::Population population(protocol, colors);
  auto scheduler = pp::make_scheduler(
      kind, static_cast<std::uint32_t>(colors.size()), rng(), &protocol);
  pp::EngineOptions engine_options;
  engine_options.max_interactions = 50'000'000;  // fail fast on livelock
  pp::Engine engine(engine_options);
  const auto result = engine.run(protocol, population, *scheduler);
  ASSERT_TRUE(result.silent)
      << "counts=" << w.to_string() << " " << to_string(protocol.semantics());
  for (std::uint32_t agent = 0; agent < population.size(); ++agent) {
    const pp::OutputSymbol expected =
        expected_output(protocol, w, colors[agent]);
    EXPECT_EQ(protocol.output(population.state(agent)), expected)
        << "agent " << agent << " (color " << colors[agent]
        << ") counts=" << w.to_string() << " "
        << to_string(protocol.semantics());
  }
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

TEST(TieAwareSimulationTest, ExhaustiveTwoColorsAllSemantics) {
  for (const auto semantics :
       {TieSemantics::kReport, TieSemantics::kBreak, TieSemantics::kShare}) {
    TieAwarePairwise protocol(2, semantics);
    for (std::uint64_t n = 2; n <= 7; ++n) {
      for_all_workloads(2, n, [&](const Workload& w) {
        if (w.n() == 0) return;
        run_and_check(protocol, w, n * 31 + w.counts[0],
                      pp::SchedulerKind::kRoundRobin);
      });
    }
  }
}

TEST(TieAwareSimulationTest, ExhaustiveThreeColorsReport) {
  TieAwarePairwise protocol(3, TieSemantics::kReport);
  for (std::uint64_t n = 2; n <= 5; ++n) {
    for_all_workloads(3, n, [&](const Workload& w) {
      run_and_check(protocol, w, n * 37 + w.counts[0] * 3 + w.counts[1],
                    pp::SchedulerKind::kShuffledSweep);
    });
  }
}

TEST(TieAwareSimulationTest, ThreeWayTieBreakAndShare) {
  Workload w;
  w.counts = {3, 3, 3};
  for (const auto semantics : {TieSemantics::kBreak, TieSemantics::kShare}) {
    TieAwarePairwise protocol(3, semantics);
    run_and_check(protocol, w, 99, pp::SchedulerKind::kUniformRandom);
  }
}

TEST(TieAwareSimulationTest, PartialTieAmongLosers) {
  // (4,2,2): losers tie; every semantics must still elect color 0.
  Workload w;
  w.counts = {4, 2, 2};
  for (const auto semantics :
       {TieSemantics::kReport, TieSemantics::kBreak, TieSemantics::kShare}) {
    TieAwarePairwise protocol(3, semantics);
    run_and_check(protocol, w, 7, pp::SchedulerKind::kUniformRandom);
  }
}

TEST(TieAwareSimulationTest, RandomizedFourColors) {
  util::Rng rng(44);
  for (const auto semantics :
       {TieSemantics::kReport, TieSemantics::kBreak, TieSemantics::kShare}) {
    TieAwarePairwise protocol(4, semantics);
    for (int trial = 0; trial < 4; ++trial) {
      const Workload w = analysis::random_counts(rng, 16, 4);
      run_and_check(protocol, w, rng(), pp::SchedulerKind::kUniformRandom);
    }
  }
}

TEST(TieAwareSimulationTest, ExactTieWorkloadsAcrossSchedulers) {
  util::Rng rng(123);
  TieAwarePairwise protocol(4, TieSemantics::kReport);
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    const Workload w = analysis::exact_tie(rng, 12, 4, 3);
    run_and_check(protocol, w, rng(), kind);
  }
}

TEST(TieAwarePairwiseDeathTest, RejectsLargeK) {
  EXPECT_DEATH(TieAwarePairwise(6, TieSemantics::kReport), "capped");
}

}  // namespace
}  // namespace circles::ext
