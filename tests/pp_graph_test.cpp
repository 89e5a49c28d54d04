#include "pp/graph.hpp"

#include <gtest/gtest.h>

#include <set>

#include "analysis/workload.hpp"
#include "core/circles_protocol.hpp"
#include "pp/engine.hpp"

namespace circles::pp {
namespace {

TEST(InteractionGraphTest, CompleteGraph) {
  const auto g = InteractionGraph::complete(5);
  EXPECT_EQ(g.n, 5u);
  EXPECT_EQ(g.edges.size(), 10u);
  EXPECT_TRUE(g.connected());
}

TEST(InteractionGraphTest, RingGraph) {
  const auto g = InteractionGraph::ring(6);
  EXPECT_EQ(g.edges.size(), 6u);
  EXPECT_TRUE(g.connected());
  // Every vertex has degree 2.
  std::vector<int> degree(6, 0);
  for (const auto& [a, b] : g.edges) {
    degree[a] += 1;
    degree[b] += 1;
  }
  for (const int d : degree) EXPECT_EQ(d, 2);
}

TEST(InteractionGraphTest, TriangleRingHasNoDuplicateEdges) {
  const auto g = InteractionGraph::ring(3);
  EXPECT_EQ(g.edges.size(), 3u);
  std::set<std::pair<AgentId, AgentId>> unique(g.edges.begin(), g.edges.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(InteractionGraphTest, StarGraph) {
  const auto g = InteractionGraph::star(7);
  EXPECT_EQ(g.edges.size(), 6u);
  EXPECT_TRUE(g.connected());
  for (const auto& [a, b] : g.edges) {
    EXPECT_EQ(a, 0u);
    EXPECT_NE(b, 0u);
  }
}

TEST(InteractionGraphTest, GridGraph) {
  const auto g = InteractionGraph::grid(3, 4);
  EXPECT_EQ(g.n, 12u);
  // 3*3 horizontal + 2*4 vertical = 9 + 8 = 17 edges.
  EXPECT_EQ(g.edges.size(), 17u);
  EXPECT_TRUE(g.connected());
}

TEST(InteractionGraphTest, RandomRegularGraph) {
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    const auto g = InteractionGraph::random_regular(12, d, 5);
    EXPECT_EQ(g.n, 12u);
    EXPECT_EQ(g.edges.size(), 12u * d / 2);
    EXPECT_TRUE(g.connected());
    std::vector<std::uint32_t> degree(12, 0);
    std::set<std::pair<AgentId, AgentId>> unique;
    for (const auto& [a, b] : g.edges) {
      EXPECT_NE(a, b);
      EXPECT_TRUE(unique.insert({a, b}).second);
      degree[a] += 1;
      degree[b] += 1;
    }
    for (const auto deg : degree) EXPECT_EQ(deg, d);
  }
}

TEST(InteractionGraphDeathTest, RandomRegularRequiresEvenStubs) {
  EXPECT_DEATH(InteractionGraph::random_regular(5, 3, 1), "even");
}

TEST(GraphSchedulerTest, RoundRobinCoversEveryDirectedEdgePerPeriod) {
  const auto g = InteractionGraph::ring(5);
  GraphScheduler sched(g, GraphSchedulerMode::kRoundRobin, 0);
  std::vector<StateId> states(5, 0);
  Population pop(1, states);
  ASSERT_EQ(sched.fairness_period(), 2 * g.edges.size());
  std::set<std::pair<AgentId, AgentId>> seen;
  for (std::uint64_t i = 0; i < sched.fairness_period(); ++i) {
    const AgentPair p = sched.next(pop);
    seen.insert({p.initiator, p.responder});
  }
  EXPECT_EQ(seen.size(), 2 * g.edges.size());
}

TEST(GraphSchedulerTest, ShuffledSweepCoversAllEdgesWithinPeriod) {
  const auto g = InteractionGraph::grid(2, 3);
  GraphScheduler sched(g, GraphSchedulerMode::kShuffledSweep, 7);
  std::vector<StateId> states(6, 0);
  Population pop(1, states);
  ASSERT_EQ(sched.fairness_period(), 4 * g.edges.size() - 1);
  // Collect one sweep worth of pairs: must be a permutation of directed
  // edges.
  std::set<std::pair<AgentId, AgentId>> seen;
  for (std::size_t i = 0; i < 2 * g.edges.size(); ++i) {
    const AgentPair p = sched.next(pop);
    seen.insert({p.initiator, p.responder});
  }
  EXPECT_EQ(seen.size(), 2 * g.edges.size());
}

TEST(GraphSchedulerTest, OnlySchedulesGraphEdges) {
  const auto g = InteractionGraph::star(6);
  GraphScheduler sched(g, GraphSchedulerMode::kRoundRobin, 0);
  std::vector<StateId> states(6, 0);
  Population pop(1, states);
  for (int i = 0; i < 100; ++i) {
    const AgentPair p = sched.next(pop);
    EXPECT_TRUE(p.initiator == 0 || p.responder == 0);
  }
}

TEST(GraphSchedulerTest, CompleteGraphBehavesLikeFullModel) {
  // On the complete graph, edge-fairness equals pair-fairness, so Circles
  // must be exactly as correct as under the standard schedulers.
  core::CirclesProtocol protocol(3);
  util::Rng rng(3);
  const analysis::Workload w = analysis::random_unique_winner(rng, 10, 3);
  const auto colors = w.agent_colors(rng);
  Population population(protocol, colors);
  GraphScheduler sched(InteractionGraph::complete(10),
                       GraphSchedulerMode::kShuffledSweep, rng());
  Engine engine;
  const auto result = engine.run(protocol, population, sched);
  EXPECT_TRUE(result.silent);
  EXPECT_TRUE(population.output_consensus(protocol, *w.winner()));
}

TEST(GraphSchedulerTest, RingReachesEdgeSilence) {
  // On a restricted topology the run must still terminate in finite time
  // with an edge-silence certificate (correctness is NOT asserted — the
  // paper's model does not cover restricted interaction; E14 measures it).
  core::CirclesProtocol protocol(3);
  util::Rng rng(11);
  const analysis::Workload w = analysis::random_unique_winner(rng, 12, 3);
  const auto colors = w.agent_colors(rng);
  Population population(protocol, colors);
  GraphScheduler sched(InteractionGraph::ring(12),
                       GraphSchedulerMode::kRoundRobin, 0);
  Engine engine;
  const auto result = engine.run(protocol, population, sched);
  EXPECT_TRUE(result.silent);  // silent == edge-silent for this scheduler
  EXPECT_FALSE(result.budget_exhausted);
}

/// States 0..3: a 3 decays to 0 in any interaction, and only (0, 2) or
/// (2, 0) changes otherwise (both become 1). On a ring where no 0 neighbours
/// a 2 that leaves a configuration that is edge-silent but not globally
/// silent.
class DecayProtocol final : public Protocol {
 public:
  std::uint64_t num_states() const override { return 4; }
  std::uint32_t num_colors() const override { return 4; }
  StateId input(ColorId color) const override { return color; }
  OutputSymbol output(StateId state) const override { return state; }
  Transition transition(StateId a, StateId b) const override {
    if (a == 3 || b == 3) return {a == 3 ? 0u : a, b == 3 ? 0u : b};
    if ((a == 0 && b == 2) || (a == 2 && b == 0)) return {1, 1};
    return {a, b};
  }
  std::string name() const override { return "decay"; }
};

TEST(GraphSchedulerTest, EdgeSilenceWithoutGlobalSilenceStopsOnThePeriod) {
  // Ring of 40: agent 0 starts as 3 and decays to 0 in its first
  // interaction, agent 2 holds a 2, every other agent a 1. Then no edge can
  // change anything, yet the non-adjacent agents 0 and 2 could. The exact
  // check (first run after 64 change-free steps) must keep failing, and the
  // change-free period (2|E| = 80 > 64) is what stops the run.
  DecayProtocol protocol;
  std::vector<ColorId> colors(40, 1);
  colors[0] = 3;
  colors[2] = 2;
  Population population(protocol, colors);
  GraphScheduler sched(InteractionGraph::ring(40),
                       GraphSchedulerMode::kRoundRobin, 0);
  ASSERT_GT(sched.fairness_period(), 64u);
  EngineOptions options;
  options.max_interactions = 1'000'000;
  Engine engine(options);
  const RunResult result = engine.run(protocol, population, sched);
  EXPECT_TRUE(result.silent);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.state_changes, 1u);
  EXPECT_GE(result.interactions,
            result.last_change_step + 1 + sched.fairness_period());
  EXPECT_EQ(population.count(0), 1u);
  EXPECT_EQ(population.count(2), 1u);
}

TEST(GraphSchedulerTest, NamesIncludeTopologyAndMode) {
  GraphScheduler rr(InteractionGraph::ring(4), GraphSchedulerMode::kRoundRobin,
                    0);
  EXPECT_EQ(rr.name(), "graph_ring_rr");
  GraphScheduler sh(InteractionGraph::star(4),
                    GraphSchedulerMode::kShuffledSweep, 0);
  EXPECT_EQ(sh.name(), "graph_star_shuffled");
}

}  // namespace
}  // namespace circles::pp
