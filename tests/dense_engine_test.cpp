#include "dense/dense_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "metrics/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/recorder.hpp"
#include "pp/schedulers/clustered.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace circles::dense {
namespace {

using CountVector = std::vector<std::uint64_t>;

analysis::Workload workload_of(CountVector counts) {
  analysis::Workload w;
  w.counts = std::move(counts);
  return w;
}

/// A kernel for `protocol`, with or without the adjacency index. Without
/// it the engine finds active partners by walking the states seen so far
/// (its `tracked` list) — the path every sparse kernel takes.
std::shared_ptr<const kernel::CompiledProtocol> compile(
    const pp::Protocol& protocol, bool adjacency) {
  kernel::CompileOptions options;
  options.build_adjacency = adjacency;
  return std::make_shared<const kernel::CompiledProtocol>(protocol, options);
}

/// Exact silence on a count vector (the engine's active-pair criterion,
/// recomputed independently).
bool counts_silent(const pp::Protocol& protocol, const CountVector& counts) {
  for (pp::StateId s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    for (pp::StateId t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0 || (s == t && counts[s] < 2)) continue;
      const pp::Transition tr = protocol.transition(s, t);
      if (tr.initiator != s || tr.responder != t) return false;
    }
  }
  return true;
}

/// Exhaustive BFS over the count-configuration graph: every configuration
/// reachable from `initial`, and the subset that is silent. Tiny instances
/// only (n <= 6, small state spaces).
std::set<CountVector> reachable_silent_configs(const pp::Protocol& protocol,
                                               const CountVector& initial) {
  std::set<CountVector> seen{initial};
  std::vector<CountVector> frontier{initial};
  std::set<CountVector> silent;
  while (!frontier.empty()) {
    const CountVector config = std::move(frontier.back());
    frontier.pop_back();
    bool any_change = false;
    for (pp::StateId s = 0; s < config.size(); ++s) {
      if (config[s] == 0) continue;
      for (pp::StateId t = 0; t < config.size(); ++t) {
        if (config[t] == 0 || (s == t && config[s] < 2)) continue;
        const pp::Transition tr = protocol.transition(s, t);
        if (tr.initiator == s && tr.responder == t) continue;
        any_change = true;
        CountVector next = config;
        next[s] -= 1;
        next[t] -= 1;
        next[tr.initiator] += 1;
        next[tr.responder] += 1;
        if (seen.insert(next).second) frontier.push_back(std::move(next));
      }
    }
    if (!any_change) silent.insert(config);
  }
  return silent;
}

TEST(DenseConfigTest, FromWorkloadPlacesAgentsInInputStates) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto workload = workload_of({3, 2, 1});
  const DenseConfig config = DenseConfig::from_workload(*protocol, workload);
  EXPECT_EQ(config.n(), 6u);
  EXPECT_EQ(config.num_states(), protocol->num_states());
  for (pp::ColorId c = 0; c < 3; ++c) {
    EXPECT_EQ(config.count(protocol->input(c)), workload.counts[c]);
  }
  EXPECT_EQ(config.present_states().size(), 3u);
  const auto histogram = config.output_histogram(*protocol);
  EXPECT_EQ(histogram, (CountVector{3, 2, 1}));
}

TEST(DenseConfigTest, FromPopulationMatchesAgentArray) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const std::vector<pp::ColorId> colors = {0, 1, 1, 0, 1};
  pp::Population population(*protocol, colors);
  const DenseConfig config =
      DenseConfig::from_population(*protocol, population);
  EXPECT_EQ(config.n(), 5u);
  EXPECT_EQ(config.count(protocol->input(0)), 2u);
  EXPECT_EQ(config.count(protocol->input(1)), 3u);
}

TEST(DenseEngineTest, ReachesSilenceAndConservesPopulation) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({40, 30, 20}));
    const pp::RunResult result = engine.run(config, 123);
    EXPECT_TRUE(result.silent);
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(config.n(), 90u);
    EXPECT_TRUE(counts_silent(*protocol, config.counts));
    // Exact silence detection: the run stops right after the final change.
    EXPECT_EQ(result.interactions, result.last_change_step + 1);
    // Silent consensus on the plurality winner (color 0).
    const auto histogram = config.output_histogram(*protocol);
    EXPECT_EQ(histogram[0], 90u);
  }
}

TEST(DenseEngineTest, AlreadySilentConfigurationStopsImmediately) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    // All agents of one color: diagonal states, no pair changes anything.
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({5, 0}));
    const pp::RunResult result = engine.run(config, 1);
    EXPECT_TRUE(result.silent);
    EXPECT_EQ(result.interactions, 0u);
    EXPECT_EQ(result.state_changes, 0u);
  }
}

TEST(DenseEngineTest, FixedBudgetRunsExactlyToBudget) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  pp::EngineOptions options;
  options.max_interactions = 5000;
  options.stop_when_silent = false;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({30, 20, 10}));
    const pp::RunResult result = engine.run(config, 9);
    EXPECT_EQ(result.interactions, 5000u);
    EXPECT_EQ(config.n(), 60u);
  }
}

TEST(DenseEngineTest, TinyBudgetReportsExhaustion) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  pp::EngineOptions options;
  options.max_interactions = 3;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({500, 400, 300}));
    const pp::RunResult result = engine.run(config, 5);
    EXPECT_TRUE(result.budget_exhausted);
    EXPECT_FALSE(result.silent);
    EXPECT_EQ(result.interactions, 3u);
  }
}

TEST(DenseEngineTest, DeterministicPerSeed) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    DenseConfig a =
        DenseConfig::from_workload(*protocol, workload_of({25, 20, 15}));
    DenseConfig b = a;
    const pp::RunResult ra = engine.run(a, 77);
    const pp::RunResult rb = engine.run(b, 77);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.last_change_step, rb.last_change_step);
    EXPECT_EQ(ra.final_outputs, rb.final_outputs);
  }
}

TEST(DenseEngineTest, AdjacencyFreeKernelMatchesDefaultKernel) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  DenseEngine indexed(*protocol, {}, DenseMode::kBatched);
  DenseEngine tracked(compile(*protocol, false), {}, DenseMode::kBatched);
  EXPECT_TRUE(indexed.compiled().has_adjacency());
  EXPECT_FALSE(tracked.compiled().has_adjacency());
  DenseConfig a =
      DenseConfig::from_workload(*protocol, workload_of({12, 9, 6}));
  DenseConfig b = a;
  const pp::RunResult ra = indexed.run(a, 321);
  const pp::RunResult rb = tracked.run(b, 321);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(ra.interactions, rb.interactions);
  EXPECT_EQ(ra.state_changes, rb.state_changes);
}

// --- single-urn bitwise regression ----------------------------------------

/// Single-urn runs stay on a pinned RNG stream — interactions,
/// state_changes, last_change_step and an FNV-1a hash of the final count
/// vector, per (workload, seed, mode). The per-step rows were captured from
/// the original single-urn engine and have never moved. The batched rows
/// were re-captured when the pairing stage switched to drawing only the
/// non-null contingency cells (sample_active_cells), and again when the
/// epoch-vs-jump choice became a price (kJumpCostDraws against the previous
/// epoch's draws) instead of a flat 3 expected changes: the same law,
/// another stream. The {6, 5} batched row is fast-forwarded throughout
/// under either choice, so it kept its original value.
TEST(DenseGoldenTest, SingleUrnStreamsMatchThePreRefactorEngine) {
  struct Golden {
    std::uint32_t k;
    CountVector counts;
    std::uint64_t seed;
    bool batched;
    std::uint64_t interactions;
    std::uint64_t state_changes;
    std::uint64_t last_change_step;
    std::uint64_t final_hash;
  };
  const std::vector<Golden> goldens{
      {3, {40, 30, 20}, 123ull, false, 4226ull, 203ull, 4225ull,
       0xe9f6ad22c0cb1cffull},
      {3, {40, 30, 20}, 123ull, true, 1889ull, 183ull, 1888ull,
       0xe9f6ad22c0cb1cffull},
      {3, {400, 350, 250}, 777ull, false, 73594ull, 3203ull, 73593ull,
       0x69d34e9a4a4821b9ull},
      {3, {400, 350, 250}, 777ull, true, 82522ull, 3097ull, 82521ull,
       0x69d34e9a4a4821b9ull},
      {2, {6, 5}, 9ull, false, 135ull, 18ull, 134ull,
       0x580ddf4a9b4b380aull},
      {2, {6, 5}, 9ull, true, 156ull, 22ull, 155ull, 0x580ddf4a9b4b380aull},
      {4, {2000, 1500, 900, 600}, 20260728ull, false, 338900ull, 12617ull,
       338899ull, 0x542d5bf6e303879bull},
      {4, {2000, 1500, 900, 600}, 20260728ull, true, 289685ull, 12457ull,
       289684ull, 0x542d5bf6e303879bull},
  };
  for (const Golden& g : goldens) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = g.k});
    const DenseMode mode = g.batched ? DenseMode::kBatched : DenseMode::kPerStep;
    DenseEngine engine(*protocol, {}, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of(g.counts));
    const pp::RunResult result = engine.run(config, g.seed);
    EXPECT_EQ(result.interactions, g.interactions) << "k=" << g.k;
    EXPECT_EQ(result.state_changes, g.state_changes) << "k=" << g.k;
    EXPECT_EQ(result.last_change_step, g.last_change_step) << "k=" << g.k;
    std::uint64_t hash = 1469598103934665603ull;
    for (const auto x : config.counts) hash = (hash ^ x) * 1099511628211ull;
    EXPECT_EQ(hash, g.final_hash) << "k=" << g.k;

    // A 1-urn UrnConfig on the same engine consumes the identical stream.
    UrnConfig urn = UrnConfig::from_dense(
        DenseConfig::from_workload(*protocol, workload_of(g.counts)));
    const pp::RunResult urn_result = engine.run(urn, g.seed);
    EXPECT_EQ(urn_result.interactions, g.interactions);
    EXPECT_EQ(urn_result.state_changes, g.state_changes);
    EXPECT_EQ(urn.aggregate().counts, config.counts);
  }
}

// --- urn configurations ----------------------------------------------------

TEST(UrnConfigTest, FromWorkloadDealsEveryAgentExactlyOnce) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const analysis::Workload workload = workload_of({50, 30, 20});
  const std::vector<std::uint64_t> sizes{60, 25, 15};
  util::Rng rng(5);
  const UrnConfig config =
      UrnConfig::from_workload(*protocol, workload, sizes, rng);
  ASSERT_EQ(config.num_urns(), 3u);
  EXPECT_EQ(config.n(), 100u);
  EXPECT_EQ(config.sizes(), sizes);
  // The aggregate is exactly the unpartitioned initial configuration.
  EXPECT_EQ(config.aggregate(),
            DenseConfig::from_workload(*protocol, workload));
  EXPECT_EQ(config.output_histogram(*protocol), workload.counts);
}

TEST(UrnConfigTest, FromWorkloadSplitIsHypergeometric) {
  // Mean of urn 0's color-0 count across many deals must match the
  // hypergeometric mean size0 * c0 / n.
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const analysis::Workload workload = workload_of({30, 20});
  util::Rng rng(11);
  double sum = 0.0;
  const int kDeals = 4000;
  for (int i = 0; i < kDeals; ++i) {
    const UrnConfig config =
        UrnConfig::from_workload(*protocol, workload, {{20, 30}}, rng);
    sum += static_cast<double>(config.urns[0][protocol->input(0)]);
  }
  EXPECT_NEAR(sum / kDeals, 20.0 * 30.0 / 50.0, 0.25);
}

TEST(UrnConfigTest, FromPopulationPartitionsByIdRanges) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const std::vector<pp::ColorId> colors = {0, 1, 1, 0, 1};
  pp::Population population(*protocol, colors);
  const UrnConfig config =
      UrnConfig::from_population(*protocol, population, {{2, 3}});
  ASSERT_EQ(config.num_urns(), 2u);
  EXPECT_EQ(config.urns[0][protocol->input(0)], 1u);
  EXPECT_EQ(config.urns[0][protocol->input(1)], 1u);
  EXPECT_EQ(config.urns[1][protocol->input(0)], 1u);
  EXPECT_EQ(config.urns[1][protocol->input(1)], 2u);
}

// --- multi-urn engine basics -----------------------------------------------

namespace urn_harness {

pp::UrnLumping dumbbell(std::vector<std::uint64_t> sizes, double bridge) {
  pp::ClusteredOptions options;
  options.sizes = std::move(sizes);
  options.bridge_probability = bridge;
  std::uint64_t n = 0;
  for (const auto s : options.sizes) n += s;
  return pp::clustered_lumping(n, options);
}

}  // namespace urn_harness

TEST(UrnEngineTest, ReachesSilenceExactlyAndConservesUrnSizes) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({60, 40}, 0.05);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode, lumping);
    util::Rng rng(3);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({50, 30, 20}), lumping.sizes, rng);
    const pp::RunResult result = engine.run(config, 99);
    EXPECT_TRUE(result.silent);
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(config.sizes(), lumping.sizes);
    // Exact silence detection: the run stops right after the final change.
    EXPECT_EQ(result.interactions, result.last_change_step + 1);
    // Silent consensus on the plurality winner (color 0).
    EXPECT_EQ(config.output_histogram(*protocol)[0], 100u);
  }
}

TEST(UrnEngineTest, DeterministicPerSeedAndAcrossKernelPaths) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({30, 20, 10}, 0.1);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine compiled(*protocol, {}, mode, lumping);
    DenseEngine tracked(compile(*protocol, false), {}, mode, lumping);
    util::Rng rng(8);
    const UrnConfig initial = UrnConfig::from_workload(
        *protocol, workload_of({25, 20, 15}), lumping.sizes, rng);
    UrnConfig a = initial, b = initial, c = initial;
    const pp::RunResult ra = compiled.run(a, 41);
    const pp::RunResult rb = compiled.run(b, 41);
    const pp::RunResult rc = tracked.run(c, 41);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.last_change_step, rb.last_change_step);
    // With or without the adjacency index is bitwise identical, multi-urn
    // included.
    EXPECT_EQ(a, c);
    EXPECT_EQ(ra.interactions, rc.interactions);
    EXPECT_EQ(ra.state_changes, rc.state_changes);
  }
}

TEST(UrnEngineTest, ClusteredPerStepStreamIsPinned) {
  // A 3-urn per-step run on a pinned stream: interactions, state_changes,
  // last_change_step and an FNV-1a hash of every urn's final counts, as
  // captured from the engine that recomputed every block's active-pair
  // count after each change. Per-step runs have no epoch-vs-jump choice, so
  // this row pins the incremental multi-urn update bit for bit.
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({120, 100, 80}, 0.05);
  pp::EngineOptions options;
  options.max_interactions = 1'000'000;  // a broken update fails fast
  DenseEngine engine(*protocol, options, DenseMode::kPerStep, lumping);
  util::Rng rng(17);
  UrnConfig config = UrnConfig::from_workload(
      *protocol, workload_of({130, 100, 70}), lumping.sizes, rng);
  const pp::RunResult result = engine.run(config, 2026);
  EXPECT_TRUE(result.silent);
  EXPECT_EQ(result.interactions, 27142u);
  EXPECT_EQ(result.state_changes, 799u);
  EXPECT_EQ(result.last_change_step, 27141u);
  std::uint64_t hash = 1469598103934665603ull;
  for (const auto& urn : config.urns) {
    for (const auto x : urn) hash = (hash ^ x) * 1099511628211ull;
  }
  EXPECT_EQ(hash, 0x0c7380315d81f507ull);
}

/// Two states: (0, 0) -> (1, 1), everything else null. Unlike circles, a
/// same-state pair changes, so the diagonal blocks' own-agent correction
/// and its (d^2 - d) term in the incremental active-pair update matter.
class PairingProtocol final : public pp::Protocol {
 public:
  std::uint64_t num_states() const override { return 2; }
  std::uint32_t num_colors() const override { return 2; }
  pp::StateId input(pp::ColorId color) const override { return color; }
  pp::OutputSymbol output(pp::StateId state) const override { return state; }
  pp::Transition transition(pp::StateId a, pp::StateId b) const override {
    if (a == 0 && b == 0) return {1, 1};
    return {a, b};
  }
  std::string name() const override { return "pairing"; }
};

TEST(UrnEngineTest, SameStatePairsReachExactSilence) {
  // 51 agents in state 0 pair off until one is left: exactly 25 changes,
  // then silence, in every mode, urn layout and kernel (with and without
  // the adjacency index).
  const PairingProtocol protocol;
  const auto lumping = urn_harness::dumbbell({30, 21}, 0.1);
  pp::EngineOptions options;
  options.max_interactions = 1'000'000;  // a broken update fails fast
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    for (const bool adjacency : {true, false}) {
      const DenseEngine single(compile(protocol, adjacency), options, mode);
      DenseConfig config = DenseConfig::from_workload(protocol,
                                                      workload_of({51, 0}));
      const pp::RunResult r1 = single.run(config, 13);
      EXPECT_TRUE(r1.silent);
      EXPECT_EQ(r1.state_changes, 25u);
      EXPECT_EQ(r1.interactions, r1.last_change_step + 1);
      EXPECT_EQ(config.counts, (CountVector{1, 50}));

      const DenseEngine urns(compile(protocol, adjacency), options, mode,
                             lumping);
      util::Rng rng(4);
      UrnConfig split = UrnConfig::from_workload(
          protocol, workload_of({51, 0}), lumping.sizes, rng);
      const pp::RunResult r2 = urns.run(split, 13);
      EXPECT_TRUE(r2.silent);
      EXPECT_EQ(r2.state_changes, 25u);
      EXPECT_EQ(r2.interactions, r2.last_change_step + 1);
      EXPECT_EQ(split.aggregate().counts, (CountVector{1, 50}));
    }
  }
}

TEST(UrnEngineTest, BudgetExhaustionReportedExactly) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({300, 300}, 0.01);
  pp::EngineOptions options;
  options.max_interactions = 4000;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode, lumping);
    util::Rng rng(2);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({300, 200, 100}), lumping.sizes, rng);
    const pp::RunResult result = engine.run(config, 7);
    EXPECT_TRUE(result.budget_exhausted);
    EXPECT_EQ(result.interactions, 4000u);
    EXPECT_EQ(config.n(), 600u);
  }
}

TEST(UrnEngineTest, RejectsMismatchedConfigurations) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const auto lumping = urn_harness::dumbbell({6, 4}, 0.2);
  DenseEngine engine(*protocol, {}, DenseMode::kPerStep, lumping);
  // DenseConfig on a multi-urn engine.
  DenseConfig dense = DenseConfig::from_workload(*protocol, workload_of({6, 4}));
  EXPECT_DEATH((void)engine.run(dense, 1), "multi-urn");
  // Wrong urn count.
  UrnConfig one = UrnConfig::from_dense(
      DenseConfig::from_workload(*protocol, workload_of({6, 4})));
  EXPECT_DEATH((void)engine.run(one, 1), "urn");
  // Wrong per-urn sizes.
  util::Rng rng(1);
  UrnConfig swapped = UrnConfig::from_workload(*protocol, workload_of({6, 4}),
                                               {{4, 6}}, rng);
  EXPECT_DEATH((void)engine.run(swapped, 1), "lumping");
}

// --- multi-urn cross-backend equivalence -----------------------------------

namespace urn_harness {

using UrnCounts = std::vector<CountVector>;

/// Exhaustive BFS over the per-urn count-configuration graph under a
/// lumping's positive-rate blocks; returns the reachable silent subset.
std::set<UrnCounts> reachable_silent_urn_configs(const pp::Protocol& protocol,
                                                 const pp::UrnLumping& lumping,
                                                 const UrnCounts& initial) {
  const std::size_t u_count = lumping.num_urns();
  std::set<UrnCounts> seen{initial};
  std::vector<UrnCounts> frontier{initial};
  std::set<UrnCounts> silent;
  while (!frontier.empty()) {
    const UrnCounts config = std::move(frontier.back());
    frontier.pop_back();
    bool any_change = false;
    for (std::size_t u = 0; u < u_count; ++u) {
      for (std::size_t v = 0; v < u_count; ++v) {
        if (lumping.rate(u, v) <= 0.0) continue;
        for (pp::StateId s = 0; s < config[u].size(); ++s) {
          if (config[u][s] == 0) continue;
          for (pp::StateId t = 0; t < config[v].size(); ++t) {
            if (config[v][t] == 0 ||
                (u == v && s == t && config[u][s] < 2)) {
              continue;
            }
            const pp::Transition tr = protocol.transition(s, t);
            if (tr.initiator == s && tr.responder == t) continue;
            any_change = true;
            UrnCounts next = config;
            next[u][s] -= 1;
            next[v][t] -= 1;
            next[u][tr.initiator] += 1;
            next[v][tr.responder] += 1;
            if (seen.insert(next).second) frontier.push_back(std::move(next));
          }
        }
      }
    }
    if (!any_change) silent.insert(config);
  }
  return silent;
}

/// Agent-array reference with the clustered scheduler from a fixed initial
/// split: colors laid out so id range u holds exactly initial[u].
UrnCounts agent_clustered_final(const pp::Protocol& protocol,
                                const pp::UrnLumping& lumping,
                                const UrnCounts& initial_colors_by_urn,
                                std::uint64_t seed) {
  std::vector<pp::ColorId> colors;
  for (const CountVector& urn : initial_colors_by_urn) {
    for (pp::ColorId c = 0; c < urn.size(); ++c) {
      for (std::uint64_t i = 0; i < urn[c]; ++i) colors.push_back(c);
    }
  }
  pp::Population population(protocol, colors);
  pp::ClusteredScheduler scheduler(lumping, seed);
  pp::Engine engine;
  const pp::RunResult result = engine.run(protocol, population, scheduler);
  EXPECT_TRUE(result.silent);
  return dense::UrnConfig::from_population(protocol, population,
                                           lumping.sizes)
      .urns;
}

/// Urn-engine run from the same fixed initial split.
UrnCounts urn_engine_final(const pp::Protocol& protocol,
                           const pp::UrnLumping& lumping,
                           const UrnCounts& initial_colors_by_urn,
                           DenseMode mode, std::uint64_t seed) {
  dense::UrnConfig config;
  config.urns.assign(lumping.num_urns(),
                     CountVector(protocol.num_states(), 0));
  for (std::size_t u = 0; u < initial_colors_by_urn.size(); ++u) {
    for (pp::ColorId c = 0; c < initial_colors_by_urn[u].size(); ++c) {
      config.urns[u][protocol.input(c)] += initial_colors_by_urn[u][c];
    }
  }
  DenseEngine engine(protocol, {}, mode, lumping);
  const pp::RunResult result = engine.run(config, seed);
  EXPECT_TRUE(result.silent);
  return config.urns;
}

/// Initial per-urn state counts from per-urn color counts.
UrnCounts states_of(const pp::Protocol& protocol,
                    const UrnCounts& colors_by_urn) {
  UrnCounts out(colors_by_urn.size(), CountVector(protocol.num_states(), 0));
  for (std::size_t u = 0; u < colors_by_urn.size(); ++u) {
    for (pp::ColorId c = 0; c < colors_by_urn[u].size(); ++c) {
      out[u][protocol.input(c)] += colors_by_urn[u][c];
    }
  }
  return out;
}

}  // namespace urn_harness

/// Exhaustive tiny-population check against the clustered scheduler: for
/// every per-urn color split with 2+2 <= n <= 3+3 agents over k <= 3 colors,
/// both urn modes and the agent array (driven by the generalized
/// ClusteredScheduler) land only in configurations the BFS over the lumped
/// block structure proves reachable-and-silent; whenever that set is a
/// singleton, all backends land exactly there.
TEST(UrnEquivalenceTest, ExhaustiveTinySplitsAgainstBfsAndAgentArray) {
  using urn_harness::UrnCounts;
  for (const std::uint32_t k : {2u, 3u}) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = k});
    for (const std::uint64_t half : {2ull, 3ull}) {
      const auto lumping = urn_harness::dumbbell({half, half}, 0.25);
      // Enumerate all per-urn color splits with `half` agents per urn.
      std::vector<CountVector> urn_fills;
      CountVector fill(k, 0);
      const auto enumerate = [&](auto&& self, std::uint32_t color,
                                 std::uint64_t remaining) -> void {
        if (color + 1 == k) {
          fill[color] = remaining;
          urn_fills.push_back(fill);
          return;
        }
        for (std::uint64_t c = 0; c <= remaining; ++c) {
          fill[color] = c;
          self(self, color + 1, remaining - c);
        }
      };
      enumerate(enumerate, 0, half);

      for (std::size_t a = 0; a < urn_fills.size(); ++a) {
        for (std::size_t b = 0; b < urn_fills.size(); ++b) {
          const UrnCounts initial{urn_fills[a], urn_fills[b]};
          const auto silent_set = urn_harness::reachable_silent_urn_configs(
              *protocol, lumping,
              urn_harness::states_of(*protocol, initial));
          ASSERT_FALSE(silent_set.empty());
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const auto agent = urn_harness::agent_clustered_final(
                *protocol, lumping, initial, seed);
            const auto per_step = urn_harness::urn_engine_final(
                *protocol, lumping, initial, DenseMode::kPerStep, seed);
            const auto batched = urn_harness::urn_engine_final(
                *protocol, lumping, initial, DenseMode::kBatched, seed);
            EXPECT_TRUE(silent_set.count(agent))
                << "agent escaped the reachable-silent set";
            EXPECT_TRUE(silent_set.count(per_step))
                << "urn per-step escaped the reachable-silent set";
            EXPECT_TRUE(silent_set.count(batched))
                << "urn batched escaped the reachable-silent set";
            if (silent_set.size() == 1) {
              EXPECT_EQ(agent, per_step);
              EXPECT_EQ(agent, batched);
            }
          }
        }
      }
    }
  }
}

/// Where several silent configurations are reachable, agent and urn
/// backends must cover the same outcome set from one fixed initial split.
TEST(UrnEquivalenceTest, TiedSplitOutcomeSetsMatchAcrossBackends) {
  using urn_harness::UrnCounts;
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const auto lumping = urn_harness::dumbbell({2, 2}, 0.3);
  const UrnCounts initial{{1, 1}, {1, 1}};  // 2-2 tie split across the urns
  const auto silent_set = urn_harness::reachable_silent_urn_configs(
      *protocol, lumping, urn_harness::states_of(*protocol, initial));
  ASSERT_GT(silent_set.size(), 1u);

  std::set<UrnCounts> agent_set, per_step_set, batched_set;
  // Enough fixed seeds to cover the full outcome support on every backend
  // (the rarest silent configuration has probability ~1%).
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    agent_set.insert(urn_harness::agent_clustered_final(*protocol, lumping,
                                                        initial, seed));
    per_step_set.insert(urn_harness::urn_engine_final(
        *protocol, lumping, initial, DenseMode::kPerStep, seed));
    batched_set.insert(urn_harness::urn_engine_final(
        *protocol, lumping, initial, DenseMode::kBatched, seed));
  }
  EXPECT_EQ(agent_set, per_step_set);
  EXPECT_EQ(agent_set, batched_set);
  for (const auto& config : agent_set) {
    EXPECT_TRUE(silent_set.count(config));
  }
}

/// KS-style two-sample comparison of the stabilization-time distributions
/// at n = 1000 under the clustered scheduler: last_change_step has the same
/// distribution on every backend (the per-urn count process is an exact
/// lumping of the clustered agent process).
TEST(UrnEquivalenceTest, ClusteredStabilizationDistributionMatchesAtModerateN) {
  const std::uint32_t trials = 60;
  const auto run_backend = [&](sim::EngineKind backend) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.workload = sim::WorkloadSpec::explicit_counts({400, 350, 250});
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = 2;
    spec.bridge = 0.02;
    spec.backend = backend;
    spec.trials = trials;
    spec.seed = 20260728;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.silent, trials);
    std::vector<double> samples;
    for (const auto& trial : result.trials) {
      samples.push_back(
          static_cast<double>(trial.outcome.run.last_change_step));
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  const auto agent = run_backend(sim::EngineKind::kAgentArray);
  const auto dense = run_backend(sim::EngineKind::kDense);
  const auto batched = run_backend(sim::EngineKind::kDenseBatched);

  // Critical value at alpha = 0.001 for two samples of 60:
  // 1.95 * sqrt(2/60) = 0.356. Fixed seeds make the test deterministic; the
  // observed distances are ~0.1.
  EXPECT_LT(util::ks_distance(agent, dense), 0.356);
  EXPECT_LT(util::ks_distance(agent, batched), 0.356);
  EXPECT_LT(util::ks_distance(dense, batched), 0.356);
}

// --- per-urn snapshots ------------------------------------------------------

namespace {

/// Captures the per-urn count matrix at every sample.
class UrnCaptureProbe final : public obs::Probe {
 public:
  void on_sample(const obs::Snapshot& snapshot) override {
    samples += 1;
    last_counts.assign(snapshot.counts.begin(), snapshot.counts.end());
    last_urns.clear();
    for (const auto& urn : snapshot.urns) {
      last_urns.emplace_back(urn.begin(), urn.end());
    }
    if (snapshot.ctx != nullptr) {
      urn_sizes.assign(snapshot.ctx->urn_sizes.begin(),
                       snapshot.ctx->urn_sizes.end());
    }
  }
  int samples = 0;
  CountVector last_counts;
  std::vector<CountVector> last_urns;
  CountVector urn_sizes;
};

}  // namespace

TEST(UrnSnapshotTest, ProbesSeePerUrnCountsNextToTheAggregate) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({60, 40}, 0.05);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode, lumping);
    util::Rng rng(4);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({50, 30, 20}), lumping.sizes, rng);

    UrnCaptureProbe probe;
    obs::Recorder recorder({.interaction_horizon = 1u << 20});
    recorder.add(&probe, obs::GridSpec{.points = 32});
    const pp::RunResult result = engine.run(config, 12, &recorder);
    EXPECT_TRUE(result.silent);
    EXPECT_GT(probe.samples, 1);
    EXPECT_EQ(probe.urn_sizes, lumping.sizes);
    ASSERT_EQ(probe.last_urns.size(), 2u);
    // The per-urn matrix matches the final configuration and sums to the
    // aggregate the probe saw in snapshot.counts.
    EXPECT_EQ(probe.last_urns, config.urns);
    CountVector sum(protocol->num_states(), 0);
    for (const auto& urn : probe.last_urns) {
      for (std::size_t s = 0; s < urn.size(); ++s) sum[s] += urn[s];
    }
    EXPECT_EQ(sum, probe.last_counts);
  }

  // Single-urn hosts expose no partition (aggregate only).
  DenseEngine single(*protocol, {}, DenseMode::kPerStep);
  DenseConfig dense =
      DenseConfig::from_workload(*protocol, workload_of({20, 15, 10}));
  UrnCaptureProbe probe;
  obs::Recorder recorder({.interaction_horizon = 1u << 20});
  recorder.add(&probe, obs::GridSpec{.points = 16});
  (void)single.run(dense, 3, &recorder);
  EXPECT_GT(probe.samples, 1);
  EXPECT_TRUE(probe.last_urns.empty());
  EXPECT_TRUE(probe.urn_sizes.empty());
}

// --- backend=auto dispatch --------------------------------------------------

TEST(AutoBackendTest, ResolvesFromSchedulerSizeAndFeatures) {
  const auto resolve = [](auto&& mutate) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 2;
    spec.n = 500;
    spec.backend = sim::EngineKind::kAuto;
    spec.trials = 1;
    spec.seed = 1;
    spec.engine.max_interactions = 50000;
    spec.engine.stop_when_silent = true;
    mutate(spec);
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    // The requested spec is preserved; the resolution is reported apart.
    EXPECT_EQ(result.spec.backend, sim::EngineKind::kAuto);
    return result.backend_resolved;
  };

  // Lumpable + moderate n -> batched (per-step dense is never auto's pick;
  // the threshold is inclusive).
  EXPECT_EQ(resolve([](sim::RunSpec&) {}), sim::EngineKind::kDenseBatched);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoDenseMinN; }),
            sim::EngineKind::kDenseBatched);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoDenseMinN - 1; }),
            sim::EngineKind::kAgentArray);
  // Large n -> batched; clustered is lumpable too.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = 10000; }),
            sim::EngineKind::kDenseBatched);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.n = 10000;
              s.scheduler = pp::SchedulerKind::kClustered;
            }),
            sim::EngineKind::kDenseBatched);
  // Huge n -> fluid (mean-field integration; cost independent of n). The
  // threshold is inclusive, and clustered lumpings ride the same tier.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoFluidMinN; }),
            sim::EngineKind::kFluid);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.n = sim::kAutoFluidMinN;
              s.scheduler = pp::SchedulerKind::kClustered;
            }),
            sim::EngineKind::kFluid);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoFluidMinN - 1; }),
            sim::EngineKind::kDenseBatched);
  // Tiny n -> agent.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = 16; }),
            sim::EngineKind::kAgentArray);
  // Non-lumpable scheduler -> agent (no error).
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.scheduler = pp::SchedulerKind::kRoundRobin;
            }),
            sim::EngineKind::kAgentArray);
  // Agent-only features -> agent (no error).
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.circles_stats = true; }),
            sim::EngineKind::kAgentArray);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.track_used_states = true; }),
            sim::EngineKind::kAgentArray);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.scheduler_factory = [](std::uint32_t n, std::uint64_t seed) {
                return pp::make_scheduler(pp::SchedulerKind::kUniformRandom,
                                          n, seed);
              };
            }),
            sim::EngineKind::kAgentArray);

  // More states than agents -> the count vector is the bigger object; stay
  // on the agent array.
  const auto big = sim::ProtocolRegistry::global().create("circles",
                                                          {.k = 8});
  ASSERT_GT(big->num_states(), 200u);
  EXPECT_EQ(resolve([&](sim::RunSpec& s) {
              s.params.k = 8;
              s.n = 200;
            }),
            sim::EngineKind::kAgentArray);
}

TEST(AutoBackendTest, MatchesExplicitBatchedBitwiseWithProbes) {
  // Auto resolves to dense_batched here, so the same spec must produce the
  // same trials and probe envelopes, to the bit, as naming it explicitly.
  sim::RunSpec spec = sim::RunSpec::parse(
      "circles(k=3) n=4096 workload=dominant:0.5 scheduler=uniform trials=4 "
      "backend=auto trace=energy@log:256");
  spec.seed = 11;
  sim::RunSpec batched = spec;
  batched.backend = sim::EngineKind::kDenseBatched;
  const sim::SpecResult a = sim::BatchRunner().run_one(spec);
  const sim::SpecResult b = sim::BatchRunner().run_one(batched);
  EXPECT_EQ(a.backend_resolved, sim::EngineKind::kDenseBatched);
  EXPECT_EQ(a.manifest.dispatch, "auto:lumpable");
  EXPECT_EQ(b.manifest.dispatch, "explicit");
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t t = 0; t < a.trials.size(); ++t) {
    SCOPED_TRACE(t);
    const pp::RunResult& ra = a.trials[t].outcome.run;
    const pp::RunResult& rb = b.trials[t].outcome.run;
    EXPECT_EQ(a.trials[t].seed, b.trials[t].seed);
    EXPECT_TRUE(a.trials[t].outcome.correct);
    EXPECT_EQ(a.trials[t].outcome.correct, b.trials[t].outcome.correct);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.final_outputs, rb.final_outputs);
    ASSERT_EQ(a.trials[t].traces.size(), 1u);
    EXPECT_EQ(a.trials[t].traces[0].columns, b.trials[t].traces[0].columns);
    EXPECT_EQ(a.trials[t].traces[0].data, b.trials[t].traces[0].data);
  }
  ASSERT_EQ(a.trace_envelopes.size(), 1u);
  ASSERT_EQ(b.trace_envelopes.size(), 1u);
  EXPECT_FALSE(a.trace_envelopes[0].empty());
  EXPECT_EQ(a.trace_envelopes[0].columns, b.trace_envelopes[0].columns);
  EXPECT_EQ(a.trace_envelopes[0].data, b.trace_envelopes[0].data);
}

TEST(AutoBackendTest, ExplicitBackendsReportThemselves) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 40;
  spec.trials = 1;
  spec.backend = sim::EngineKind::kDense;
  const sim::SpecResult result = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(result.backend_resolved, sim::EngineKind::kDense);
}

// --- cross-backend equivalence --------------------------------------------

/// Agent-array reference: run pp::Engine under the uniform scheduler and
/// return the final configuration as counts.
CountVector agent_final_counts(const pp::Protocol& protocol,
                               const analysis::Workload& workload,
                               std::uint64_t seed) {
  sim::TrialOptions options;
  options.seed = seed;
  std::unique_ptr<pp::Population> population;
  sim::run_trial_keep_population(protocol, workload, options, {}, {},
                                 &population);
  return DenseConfig::from_population(protocol, *population).counts;
}

CountVector dense_final_counts(const pp::Protocol& protocol,
                               const analysis::Workload& workload,
                               DenseMode mode, std::uint64_t seed) {
  DenseEngine engine(protocol, {}, mode);
  DenseConfig config = DenseConfig::from_workload(protocol, workload);
  const pp::RunResult result = engine.run(config, seed);
  EXPECT_TRUE(result.silent);
  return config.counts;
}

/// Exhaustive tiny-population check: for every workload with n <= 6 agents
/// over k <= 3 colors, both dense modes and the agent array land only in
/// configurations the BFS proves reachable-and-silent; and whenever that
/// set is a singleton (the generic circles case — Lemma 3.6 makes the
/// stable configuration schedule-independent), all backends land exactly
/// there.
TEST(DenseEquivalenceTest, ExhaustiveTinyPopulationsAgainstBfsAndAgentArray) {
  for (const std::uint32_t k : {2u, 3u}) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = k});
    std::vector<CountVector> workloads;
    // All count vectors over k colors with 2 <= n <= 6.
    const std::uint64_t max_n = 6;
    std::vector<std::uint64_t> counts(k, 0);
    const auto enumerate = [&](auto&& self, std::uint32_t color,
                               std::uint64_t remaining) -> void {
      if (color + 1 == k) {
        counts[color] = remaining;
        std::uint64_t total = 0;
        for (const auto c : counts) total += c;
        if (total >= 2) workloads.push_back(counts);
        return;
      }
      for (std::uint64_t c = 0; c <= remaining; ++c) {
        counts[color] = c;
        self(self, color + 1, remaining - c);
      }
    };
    for (std::uint64_t n = 2; n <= max_n; ++n) enumerate(enumerate, 0, n);

    for (const CountVector& w : workloads) {
      const analysis::Workload workload = workload_of(w);
      const DenseConfig initial =
          DenseConfig::from_workload(*protocol, workload);
      const auto silent_set =
          reachable_silent_configs(*protocol, initial.counts);
      ASSERT_FALSE(silent_set.empty());

      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto agent = agent_final_counts(*protocol, workload, seed);
        const auto per_step = dense_final_counts(*protocol, workload,
                                                 DenseMode::kPerStep, seed);
        const auto batched = dense_final_counts(*protocol, workload,
                                                DenseMode::kBatched, seed);
        EXPECT_TRUE(silent_set.count(agent))
            << "agent escaped the reachable-silent set, workload "
            << workload.to_string();
        EXPECT_TRUE(silent_set.count(per_step))
            << "dense escaped the reachable-silent set, workload "
            << workload.to_string();
        EXPECT_TRUE(silent_set.count(batched))
            << "dense_batched escaped the reachable-silent set, workload "
            << workload.to_string();
        if (silent_set.size() == 1) {
          EXPECT_EQ(agent, per_step);
          EXPECT_EQ(agent, batched);
        }
      }
    }
  }
}

/// Where several silent configurations are reachable (ties), all backends
/// must cover the same outcome set given enough seeds.
TEST(DenseEquivalenceTest, TiedWorkloadOutcomeSetsMatchAcrossBackends) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const analysis::Workload workload = workload_of({2, 2});
  const DenseConfig initial = DenseConfig::from_workload(*protocol, workload);
  const auto silent_set = reachable_silent_configs(*protocol, initial.counts);
  ASSERT_GT(silent_set.size(), 1u);

  std::set<CountVector> agent_set, per_step_set, batched_set;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    agent_set.insert(agent_final_counts(*protocol, workload, seed));
    per_step_set.insert(
        dense_final_counts(*protocol, workload, DenseMode::kPerStep, seed));
    batched_set.insert(
        dense_final_counts(*protocol, workload, DenseMode::kBatched, seed));
  }
  EXPECT_EQ(agent_set, per_step_set);
  EXPECT_EQ(agent_set, batched_set);
  for (const auto& config : agent_set) {
    EXPECT_TRUE(silent_set.count(config));
  }
}

/// KS-style two-sample comparison of the stabilization-time distributions
/// at n = 1000: last_change_step has the same distribution on every backend
/// (the count process is an exact lumping of the agent process).
TEST(DenseEquivalenceTest, StabilizationTimeDistributionMatchesAtModerateN) {
  const std::uint32_t trials = 60;
  const auto run_backend = [&](sim::EngineKind backend) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.workload = sim::WorkloadSpec::explicit_counts({400, 350, 250});
    spec.backend = backend;
    spec.trials = trials;
    spec.seed = 20260728;  // same workload; schedule streams differ per seed
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.silent, trials);
    std::vector<double> samples;
    for (const auto& trial : result.trials) {
      samples.push_back(
          static_cast<double>(trial.outcome.run.last_change_step));
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  const auto agent = run_backend(sim::EngineKind::kAgentArray);
  const auto dense = run_backend(sim::EngineKind::kDense);
  const auto batched = run_backend(sim::EngineKind::kDenseBatched);

  // Critical value at alpha = 0.001 for two samples of 60:
  // 1.95 * sqrt(2/60) = 0.356. Fixed seeds make the test deterministic; the
  // observed distances are ~0.1.
  EXPECT_LT(util::ks_distance(agent, dense), 0.356);
  EXPECT_LT(util::ks_distance(agent, batched), 0.356);
  EXPECT_LT(util::ks_distance(dense, batched), 0.356);
}

/// Batched epochs against the per-step reference at an n where epochs
/// actually run (at tiny n the fast-forward path takes every step, so the
/// exhaustive tests never reach the pairing stage). Two-sample KS on
/// interactions to silence and on state changes, 400 trials per side.
TEST(DenseEquivalenceTest, BatchedEpochsMatchPerStepAtN2000) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const CountVector inputs = {800, 700, 500};
  const std::uint64_t trials = 400;
  metrics::MetricsRegistry registry;
  const auto run_mode = [&](DenseMode mode, std::uint64_t seed_base,
                            std::vector<double>& interactions,
                            std::vector<double>& changes) {
    pp::EngineOptions options;
    if (mode == DenseMode::kBatched) options.metrics = &registry;
    const DenseEngine engine(*protocol, options, mode);
    for (std::uint64_t t = 0; t < trials; ++t) {
      DenseConfig config =
          DenseConfig::from_workload(*protocol, workload_of(inputs));
      const pp::RunResult result = engine.run(config, seed_base + t);
      ASSERT_TRUE(result.silent);
      interactions.push_back(static_cast<double>(result.interactions));
      changes.push_back(static_cast<double>(result.state_changes));
    }
  };
  std::vector<double> step_interactions, step_changes;
  std::vector<double> batch_interactions, batch_changes;
  run_mode(DenseMode::kPerStep, 1, step_interactions, step_changes);
  run_mode(DenseMode::kBatched, 1000001, batch_interactions, batch_changes);
  // The priced epoch-vs-jump choice must mix both paths here, or this
  // test would compare only one of them with the per-step reference.
  EXPECT_GT(registry.counter("dense.epochs").value(), 0u);
  EXPECT_GT(registry.counter("dense.fast_forward_jumps").value(), 0u);
  EXPECT_GT(registry.counter("dense.pair_draws").value(), 0u);

  // Critical value at alpha = 0.001 for two samples of 400:
  // 1.95 * sqrt(2/400) = 0.138. Fixed seeds make the test deterministic.
  EXPECT_LT(util::ks_distance(step_interactions, batch_interactions), 0.138);
  EXPECT_LT(util::ks_distance(step_changes, batch_changes), 0.138);
}

// --- RunSpec/BatchRunner integration --------------------------------------

TEST(DenseBackendSpecTest, RejectsAgentLevelFeatures) {
  const sim::BatchRunner runner;
  sim::RunSpec base;
  base.protocol = "circles";
  base.params.k = 2;
  base.n = 10;
  base.backend = sim::EngineKind::kDense;

  auto with = [&](auto&& mutate) {
    sim::RunSpec spec = base;
    mutate(spec);
    return spec;
  };
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.circles_stats = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.track_used_states = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.reboot_faults = 1;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.chemical_time = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.scheduler = pp::SchedulerKind::kRoundRobin;
               })),
               std::invalid_argument);
  EXPECT_THROW(
      runner.run_one(with([](sim::RunSpec& s) {
        s.grader = [](const pp::Protocol&, const analysis::Workload&,
                      std::span<const pp::ColorId>, const pp::Population&,
                      const pp::RunResult&) { return true; };
      })),
      std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.scheduler_factory = [](std::uint32_t n,
                                          std::uint64_t seed) {
                   return pp::make_scheduler(
                       pp::SchedulerKind::kUniformRandom, n, seed);
                 };
               })),
               std::invalid_argument);

  // The plain dense spec itself is fine.
  const sim::SpecResult ok = runner.run_one(base);
  EXPECT_EQ(ok.trial_count, 1u);
  EXPECT_EQ(ok.silent, 1u);
}

TEST(DenseBackendSpecTest, NonLumpableRejectionNamesSchedulerAndAuto) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.backend = sim::EngineKind::kDense;
  spec.scheduler = pp::SchedulerKind::kRoundRobin;
  try {
    (void)sim::BatchRunner().run_one(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("round_robin"), std::string::npos) << message;
    EXPECT_NE(message.find("backend=auto"), std::string::npos) << message;
    EXPECT_NE(message.find("lumping"), std::string::npos) << message;
  }
}

TEST(DenseBackendSpecTest, ClusterShapeRequiresClusteredScheduler) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.clusters = 3;
  EXPECT_THROW((void)sim::BatchRunner().run_one(spec), std::invalid_argument);
  spec.clusters = 0;
  spec.cluster_sizes = {5, 5};
  EXPECT_THROW((void)sim::BatchRunner().run_one(spec), std::invalid_argument);
}

TEST(DenseBackendSpecTest, BatchRunnerGradesClusteredDenseTrials) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.workload = sim::WorkloadSpec::explicit_counts({30, 20, 10});
  spec.scheduler = pp::SchedulerKind::kClustered;
  spec.cluster_sizes = {40, 12, 8};
  spec.bridge = 0.1;
  spec.trials = 10;
  spec.seed = 321;
  for (const auto backend :
       {sim::EngineKind::kDense, sim::EngineKind::kDenseBatched}) {
    spec.backend = backend;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.correct, 10u) << sim::to_string(backend);
    EXPECT_EQ(result.silent, 10u);
    EXPECT_TRUE(result.all_correct());
  }
}

TEST(DenseBackendSpecTest, BatchRunnerGradesDenseTrialsLikeAgentTrials) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.workload = sim::WorkloadSpec::explicit_counts({8, 5, 3});
  spec.trials = 10;
  spec.seed = 99;
  for (const auto backend :
       {sim::EngineKind::kDense, sim::EngineKind::kDenseBatched}) {
    spec.backend = backend;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.correct, 10u) << sim::to_string(backend);
    EXPECT_EQ(result.silent, 10u);
    EXPECT_TRUE(result.all_correct());
  }
}

TEST(DenseBackendSpecTest, TieAwareGradingWorksOnDenseBackend) {
  sim::RunSpec spec;
  spec.protocol = "tie_report";
  spec.params.k = 2;
  spec.workload = sim::WorkloadSpec::explicit_counts({6, 6});
  spec.grading = sim::Grading::kTieAware;
  spec.backend = sim::EngineKind::kDenseBatched;
  spec.trials = 8;
  spec.seed = 5;
  const sim::SpecResult result = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(result.correct, 8u);
}

// --- intra-run parallelism ---------------------------------------------------

TEST(ParallelRunTest, RunThreadsResolveAtConstruction) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  DenseEngine serial(*protocol, {}, DenseMode::kBatched);
  EXPECT_EQ(serial.run_threads(), 1u);
  pp::EngineOptions options;
  options.run_threads = 4;
  DenseEngine pinned(*protocol, options, DenseMode::kBatched);
  EXPECT_EQ(pinned.run_threads(), 4u);
  options.run_threads = 0;  // 0 = one thread per core, resolved eagerly.
  DenseEngine automatic(*protocol, options, DenseMode::kBatched);
  EXPECT_GE(automatic.run_threads(), 1u);
}

/// The tentpole guarantee: run_threads is a pure performance knob. Every
/// cell of the (threads x urn structure x mode x adjacency) matrix must leave
/// counts, RNG consumption, and every RunResult field bitwise identical to
/// the serial engine.
TEST(ParallelRunTest, ThreadCountsAreBitwiseIdenticalToSerial) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const std::vector<pp::UrnLumping> lumpings = {
      {},  // single urn: historical stream, unified code path
      urn_harness::dumbbell({60, 40}, 0.02),
      urn_harness::dumbbell({40, 35, 25}, 0.05),
  };
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    for (const bool adjacency : {true, false}) {
      for (const pp::UrnLumping& lumping : lumpings) {
        SCOPED_TRACE(::testing::Message()
                     << "mode=" << (mode == DenseMode::kBatched ? "batched"
                                                                : "per_step")
                     << " adjacency=" << adjacency
                     << " urns=" << std::max<std::size_t>(
                            lumping.sizes.size(), 1));
        DenseEngine serial(compile(*protocol, adjacency), {}, mode, lumping);
        const std::uint64_t n =
            lumping.sizes.empty()
                ? 100u
                : std::accumulate(lumping.sizes.begin(), lumping.sizes.end(),
                                  std::uint64_t{0});
        util::Rng seed_rng(17);
        UrnConfig baseline_config = UrnConfig::from_workload(
            *protocol, workload_of({n / 2, n / 4, n - n / 2 - n / 4}),
            lumping.sizes.empty() ? std::vector<std::uint64_t>{n}
                                  : lumping.sizes,
            seed_rng);
        UrnConfig serial_config = baseline_config;
        const pp::RunResult expect = serial.run(serial_config, 4242);
        for (const std::uint32_t threads : {2u, 4u, 8u}) {
          pp::EngineOptions options;
          options.run_threads = threads;
          DenseEngine parallel(compile(*protocol, adjacency), options, mode,
                               lumping);
          UrnConfig config = baseline_config;
          const pp::RunResult result = parallel.run(config, 4242);
          EXPECT_EQ(config, serial_config) << "threads=" << threads;
          EXPECT_EQ(result.interactions, expect.interactions);
          EXPECT_EQ(result.state_changes, expect.state_changes);
          EXPECT_EQ(result.last_change_step, expect.last_change_step);
          EXPECT_EQ(result.silent, expect.silent);
          EXPECT_EQ(result.budget_exhausted, expect.budget_exhausted);
        }
      }
    }
  }
}

/// TSan-friendly hammer: many back-to-back 8-thread batched runs over the
/// shared pool and per-run scratch arenas, each checked against the serial
/// engine. Races in the deal/pairing stages or the shared log-factorial
/// table show up here under -fsanitize=thread (CIRCLES_TSAN=ON).
TEST(ParallelRunTest, EightThreadHammerMatchesSerialAcrossSeeds) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({50, 30, 20}, 0.05);
  pp::EngineOptions options;
  options.run_threads = 8;
  DenseEngine serial(*protocol, {}, DenseMode::kBatched, lumping);
  DenseEngine parallel(*protocol, options, DenseMode::kBatched, lumping);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    UrnConfig a = UrnConfig::from_workload(
        *protocol, workload_of({45, 35, 20}), lumping.sizes, rng);
    UrnConfig b = a;
    const pp::RunResult ra = serial.run(a, seed * 31);
    const pp::RunResult rb = parallel.run(b, seed * 31);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(ra.interactions, rb.interactions) << "seed " << seed;
    EXPECT_EQ(ra.state_changes, rb.state_changes) << "seed " << seed;
  }
}

}  // namespace
}  // namespace circles::dense
