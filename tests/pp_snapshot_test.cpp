#include "pp/snapshot.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "extensions/tie_report.hpp"
#include "pp/engine.hpp"
#include "sim/trial.hpp"

namespace circles::pp {
namespace {

TEST(SnapshotTest, RoundTripPreservesConfiguration) {
  core::CirclesProtocol protocol(4);
  util::Rng rng(3);
  const analysis::Workload w = analysis::random_unique_winner(rng, 17, 4);
  const auto colors = w.agent_colors(rng);
  Population original(protocol, colors);

  const std::string text = serialize_population(original, protocol);
  const Population restored = parse_population(text, protocol);

  EXPECT_EQ(restored.size(), original.size());
  for (const StateId s : original.present_states()) {
    EXPECT_EQ(restored.count(s), original.count(s)) << "state " << s;
  }
  EXPECT_EQ(restored.present_states(), original.present_states());
}

TEST(SnapshotTest, SerializedFormIsStableAndReadable) {
  core::CirclesProtocol protocol(2);
  const std::vector<ColorId> colors{0, 0, 1};
  Population population(protocol, colors);
  const std::string text = serialize_population(population, protocol);
  EXPECT_NE(text.find("circles-snapshot v1"), std::string::npos);
  EXPECT_NE(text.find("protocol circles"), std::string::npos);
  EXPECT_NE(text.find("num_states 8"), std::string::npos);
  EXPECT_NE(text.find("agents 3"), std::string::npos);
  // Serializing twice yields identical bytes (deterministic ordering).
  EXPECT_EQ(text, serialize_population(population, protocol));
}

TEST(SnapshotTest, ResumedRunBehavesLikeOriginalPopulation) {
  // Snapshot mid-run, restore, and finish: the restored population is the
  // same multiset, so it must reach the same (unique, Lemma 3.6) stable
  // configuration.
  core::CirclesProtocol protocol(3);
  util::Rng rng(5);
  const analysis::Workload w = analysis::random_unique_winner(rng, 12, 3);
  const auto colors = w.agent_colors(rng);
  Population population(protocol, colors);
  auto scheduler =
      make_scheduler(SchedulerKind::kUniformRandom, 12, rng(), &protocol);
  EngineOptions burst;
  burst.max_interactions = 100;
  burst.stop_when_silent = false;
  Engine(burst).run(protocol, population, *scheduler);

  const std::string snapshot = serialize_population(population, protocol);
  Population restored = parse_population(snapshot, protocol);

  auto scheduler2 =
      make_scheduler(SchedulerKind::kUniformRandom, 12, rng(), &protocol);
  Engine engine;
  const auto result = engine.run(protocol, restored, *scheduler2);
  EXPECT_TRUE(result.silent);
  EXPECT_TRUE(restored.output_consensus(protocol, *w.winner()));
}

TEST(SnapshotTest, RejectsProtocolMismatch) {
  core::CirclesProtocol circles(3);
  ext::TieReportProtocol tie_report(3);
  const std::vector<ColorId> colors{0, 1, 2};
  Population population(circles, colors);
  const std::string text = serialize_population(population, circles);
  EXPECT_THROW(parse_population(text, tie_report), std::invalid_argument);
}

TEST(SnapshotTest, RejectsStateCountMismatch) {
  core::CirclesProtocol small(2);
  core::CirclesProtocol big(3);
  // Same name ("circles") but different k: num_states must catch it.
  const std::vector<ColorId> colors{0, 1};
  Population population(small, colors);
  const std::string text = serialize_population(population, small);
  EXPECT_THROW(parse_population(text, big), std::invalid_argument);
}

TEST(SnapshotTest, RejectsMalformedInput) {
  core::CirclesProtocol protocol(2);
  EXPECT_THROW(parse_population("", protocol), std::invalid_argument);
  EXPECT_THROW(parse_population("garbage\n", protocol), std::invalid_argument);
  EXPECT_THROW(
      parse_population("circles-snapshot v1\nprotocol circles\n", protocol),
      std::invalid_argument);
  // Counts that do not add up.
  const std::string bad =
      "circles-snapshot v1\nprotocol circles\nnum_states 8\nagents 5\n0 2\n";
  EXPECT_THROW(parse_population(bad, protocol), std::invalid_argument);
  // Out-of-range state id.
  const std::string oob =
      "circles-snapshot v1\nprotocol circles\nnum_states 8\nagents 1\n9 1\n";
  EXPECT_THROW(parse_population(oob, protocol), std::invalid_argument);
}

}  // namespace
}  // namespace circles::pp
