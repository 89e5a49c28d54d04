#include "extensions/tie_report.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "analysis/workload.hpp"
#include "core/greedy_sets.hpp"
#include "sim/trial.hpp"

namespace circles::ext {
namespace {

using sim::TrialOptions;
using analysis::Workload;

TEST(TieReportProtocolTest, StateMetadata) {
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    TieReportProtocol protocol(k);
    EXPECT_EQ(protocol.num_states(), 2ull * k * k * (k + 1));
    EXPECT_EQ(protocol.num_colors(), k);
    EXPECT_EQ(protocol.num_output_symbols(), k + 1);
    EXPECT_EQ(protocol.tie_symbol(), k);
  }
}

TEST(TieReportProtocolTest, EncodeDecodeRoundTripAllStates) {
  for (std::uint32_t k : {1u, 2u, 3u, 4u}) {
    TieReportProtocol protocol(k);
    for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
      const auto f = protocol.decode(s);
      EXPECT_EQ(protocol.encode(f), s);
      EXPECT_LT(f.braket.bra, k);
      EXPECT_LT(f.braket.ket, k);
      EXPECT_LE(f.out, k);
    }
  }
}

TEST(TieReportProtocolTest, InputMatchesCircles) {
  TieReportProtocol protocol(5);
  for (pp::ColorId c = 0; c < 5; ++c) {
    const auto f = protocol.decode(protocol.input(c));
    EXPECT_EQ(f.braket, (core::BraKet{c, c}));
    EXPECT_EQ(f.out, c);
    EXPECT_FALSE(f.retractor);
  }
}

TEST(TieReportProtocolTest, DiagonalDestructionCreatesRetractor) {
  TieReportProtocol protocol(2);
  // ⟨0|0⟩ meets ⟨1|1⟩: mandatory exchange destroys both diagonals.
  const pp::Transition tr =
      protocol.transition(protocol.input(0), protocol.input(1));
  const auto a = protocol.decode(tr.initiator);
  const auto b = protocol.decode(tr.responder);
  EXPECT_EQ(a.braket, (core::BraKet{0, 1}));
  EXPECT_EQ(b.braket, (core::BraKet{1, 0}));
  EXPECT_TRUE(a.retractor);
  EXPECT_TRUE(b.retractor);
  // Rule 4 fires immediately: both outputs report TIE.
  EXPECT_EQ(a.out, protocol.tie_symbol());
  EXPECT_EQ(b.out, protocol.tie_symbol());
}

TEST(TieReportProtocolTest, DiagonalClearsRetractorAndSetsOut) {
  TieReportProtocol protocol(3);
  const pp::StateId retractor =
      protocol.encode({{0, 1}, protocol.tie_symbol(), true});
  const pp::StateId diagonal = protocol.encode({{2, 2}, 2, false});
  // ⟨0|1⟩ (w 1) + ⟨2|2⟩ (w 3): no exchange (post min would be w(0,2)=2,
  // w(2,1)=2 -> min 2 > 1). The diagonal broadcasts and clears.
  const pp::Transition tr = protocol.transition(retractor, diagonal);
  const auto a = protocol.decode(tr.initiator);
  const auto b = protocol.decode(tr.responder);
  EXPECT_EQ(a.braket, (core::BraKet{0, 1}));
  EXPECT_FALSE(a.retractor);
  EXPECT_EQ(a.out, 2u);
  EXPECT_EQ(b.out, 2u);
}

TEST(TieReportProtocolTest, RetractorSpreadsTieButNotTheBit) {
  TieReportProtocol protocol(3);
  const pp::StateId retractor =
      protocol.encode({{0, 1}, protocol.tie_symbol(), true});
  const pp::StateId bystander = protocol.encode({{1, 2}, 0, false});
  // ⟨0|1⟩ w=1, ⟨1|2⟩ w=1; post: w(0,2)=2, w(1,1)=3: min 2 > 1, no exchange.
  const pp::Transition tr = protocol.transition(retractor, bystander);
  const auto a = protocol.decode(tr.initiator);
  const auto b = protocol.decode(tr.responder);
  EXPECT_TRUE(a.retractor);
  EXPECT_FALSE(b.retractor);  // the bit must not spread
  EXPECT_EQ(a.out, protocol.tie_symbol());
  EXPECT_EQ(b.out, protocol.tie_symbol());
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

void expect_tie_report_correct(const TieReportProtocol& protocol,
                               const Workload& w, pp::SchedulerKind kind,
                               std::uint64_t seed) {
  TrialOptions options;
  options.scheduler = kind;
  options.seed = seed;
  const auto winner = w.winner();
  const pp::OutputSymbol expected =
      winner.has_value() ? *winner : protocol.tie_symbol();
  const auto outcome =
      sim::run_trial(protocol, w, options, {}, expected);
  EXPECT_TRUE(outcome.run.silent)
      << "counts=" << w.to_string() << " " << pp::to_string(kind);
  EXPECT_TRUE(outcome.correct)
      << "counts=" << w.to_string() << " " << pp::to_string(kind)
      << " expected=" << protocol.output_name(expected);
}

TEST(TieReportSimulationTest, ExhaustiveTwoColors) {
  TieReportProtocol protocol(2);
  for (std::uint64_t n = 2; n <= 8; ++n) {
    for_all_workloads(2, n, [&](const Workload& w) {
      expect_tie_report_correct(protocol, w, pp::SchedulerKind::kRoundRobin,
                                n * 19 + w.counts[0]);
    });
  }
}

TEST(TieReportSimulationTest, ExhaustiveThreeColors) {
  TieReportProtocol protocol(3);
  for (std::uint64_t n = 2; n <= 6; ++n) {
    for_all_workloads(3, n, [&](const Workload& w) {
      expect_tie_report_correct(protocol, w, pp::SchedulerKind::kShuffledSweep,
                                n * 23 + w.counts[0] * 5 + w.counts[1]);
    });
  }
}

TEST(TieReportSimulationTest, TieCasesAcrossSchedulers) {
  TieReportProtocol protocol(4);
  util::Rng rng(321);
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    const Workload w = analysis::exact_tie(rng, 12, 4, 2);
    expect_tie_report_correct(protocol, w, kind, rng());
  }
}

TEST(TieReportSimulationTest, NonTieCasesAcrossSchedulers) {
  TieReportProtocol protocol(4);
  util::Rng rng(654);
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    const Workload w = analysis::random_unique_winner(rng, 16, 4);
    expect_tie_report_correct(protocol, w, kind, rng());
  }
}

TEST(TieReportSimulationTest, CloseMarginStillDecides) {
  TieReportProtocol protocol(5);
  util::Rng rng(987);
  for (int trial = 0; trial < 10; ++trial) {
    const Workload w = analysis::close_margin(rng, 25, 5);
    expect_tie_report_correct(protocol, w,
                              pp::SchedulerKind::kUniformRandom, rng());
  }
}

TEST(TieReportSimulationTest, AllColorsTiedManyWays) {
  // k colors each with the same count: maximal tie.
  TieReportProtocol protocol(3);
  Workload w;
  w.counts = {3, 3, 3};
  expect_tie_report_correct(protocol, w, pp::SchedulerKind::kUniformRandom,
                            42);
}

TEST(TieReportSimulationTest, BraKetLayerStillSatisfiesLemma33) {
  TieReportProtocol protocol(4);
  TieReportBraKetView view(protocol);
  core::BraKetInvariantMonitor invariant(view);
  core::PotentialDescentMonitor potential(view);
  std::array<pp::Monitor*, 2> monitors{&invariant, &potential};

  util::Rng rng(11);
  const Workload w = analysis::random_unique_winner(rng, 20, 4);
  TrialOptions options;
  options.seed = rng();
  const auto outcome = sim::run_trial(
      protocol, w, options,
      std::span<pp::Monitor* const>(monitors.data(), monitors.size()));
  EXPECT_TRUE(outcome.run.silent);
  EXPECT_EQ(invariant.violations(), 0u);
  EXPECT_EQ(potential.descent_violations(), 0u);
}

TEST(TieReportProtocolTest, StateAndOutputNames) {
  TieReportProtocol protocol(3);
  EXPECT_EQ(protocol.output_name(protocol.tie_symbol()), "TIE");
  EXPECT_EQ(protocol.output_name(1), "c1");
  const pp::StateId s = protocol.encode({{0, 1}, protocol.tie_symbol(), true});
  EXPECT_EQ(protocol.state_name(s), "<0|1>:TIE!R");
}

}  // namespace
}  // namespace circles::ext
