// Registry-wide equivalence suite for kernel::CompiledProtocol: every
// registered protocol's compiled kernel must agree with the virtual
// transition()/output() on all pairs (exhaustively for small state spaces,
// by seeded sample for cubic ones), under both table kinds; and the engines
// must produce bitwise-identical RunResults with kernels on vs off.
#include "kernel/compiled_protocol.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "pp/engine.hpp"
#include "pp/silence.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace circles {
namespace {

struct RegistryCase {
  std::string name;
  std::uint32_t k;
};

/// One representative parameterization per registered protocol, plus a
/// cubic circles instance that exceeds the default dense budget.
std::vector<RegistryCase> registry_cases() {
  return {
      {"circles", 1},
      {"circles", 3},
      {"circles", 32},  // 32768 states -> sparse under the default budget
      {"tie_report", 3},
      {"tie_aware_pairwise", 3},
      {"unordered_circles", 2},
      {"ordering", 4},
      {"pairwise_plurality", 3},
      {"exact_majority_4state", 2},
      {"approx_majority_3state", 2},
  };
}

/// Exhaustive when num_states^2 fits, else a seeded sample. Pairs are drawn
/// uniformly plus a band around the input states (the reachable region).
std::vector<std::pair<pp::StateId, pp::StateId>> pair_sample(
    const pp::Protocol& protocol, std::uint64_t budget) {
  const std::uint64_t ns = protocol.num_states();
  std::vector<std::pair<pp::StateId, pp::StateId>> pairs;
  if (ns * ns <= budget) {
    for (std::uint64_t a = 0; a < ns; ++a) {
      for (std::uint64_t b = 0; b < ns; ++b) {
        pairs.push_back({static_cast<pp::StateId>(a),
                         static_cast<pp::StateId>(b)});
      }
    }
    return pairs;
  }
  util::Rng rng(2026);
  for (std::uint64_t i = 0; i < budget; ++i) {
    pairs.push_back({static_cast<pp::StateId>(rng.uniform_below(ns)),
                     static_cast<pp::StateId>(rng.uniform_below(ns))});
  }
  // Also the ordered pairs of input states: the region every run starts in.
  for (pp::ColorId a = 0; a < protocol.num_colors(); ++a) {
    for (pp::ColorId b = 0; b < protocol.num_colors(); ++b) {
      pairs.push_back({protocol.input(a), protocol.input(b)});
    }
  }
  return pairs;
}

void expect_kernel_matches(const pp::Protocol& protocol,
                           const kernel::CompiledProtocol& kernel,
                           const std::string& label) {
  ASSERT_EQ(kernel.num_states(), protocol.num_states()) << label;
  ASSERT_EQ(kernel.num_colors(), protocol.num_colors()) << label;
  ASSERT_EQ(kernel.num_output_symbols(), protocol.num_output_symbols())
      << label;
  for (pp::ColorId c = 0; c < protocol.num_colors(); ++c) {
    EXPECT_EQ(kernel.input(c), protocol.input(c)) << label;
  }
  for (const auto& [a, b] : pair_sample(protocol, 1 << 16)) {
    const pp::Transition expected = protocol.transition(a, b);
    const pp::Transition got = kernel.transition(a, b);
    ASSERT_EQ(got, expected) << label << " transition(" << a << ", " << b
                             << ")";
    const bool nonnull = expected.initiator != a || expected.responder != b;
    ASSERT_EQ(kernel.nonnull(a, b), nonnull) << label;
    const bool flips =
        nonnull && (protocol.output(expected.initiator) !=
                        protocol.output(a) ||
                    protocol.output(expected.responder) !=
                        protocol.output(b));
    ASSERT_EQ(kernel.output_changes(a, b), flips) << label;
    ASSERT_EQ(kernel.output(a), protocol.output(a)) << label;
    ASSERT_EQ(kernel.output(b), protocol.output(b)) << label;
  }
}

TEST(CompiledProtocolTest, MatchesEveryRegisteredProtocol) {
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol);
    const std::string label = c.name + " k=" + std::to_string(c.k) + " (" +
                              kernel::to_string(compiled.kind()) + ")";
    expect_kernel_matches(*protocol, compiled, label);
  }
}

TEST(CompiledProtocolTest, ForcedSparseMatchesEveryRegisteredProtocol) {
  // max_dense_entries = 0 forces the lazily-materialized hashed table even
  // for tiny state spaces, so the sparse path gets registry-wide coverage.
  kernel::CompileOptions sparse;
  sparse.max_dense_entries = 0;
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol, sparse);
    ASSERT_EQ(compiled.kind(), kernel::TableKind::kSparse);
    const std::string label = c.name + " k=" + std::to_string(c.k) +
                              " (forced sparse)";
    expect_kernel_matches(*protocol, compiled, label);
    // Every distinct pair the sample touched is served from the cache on
    // the second pass; the fill counter must have moved.
    EXPECT_GT(compiled.stats().sparse_filled, 0u) << label;
  }
}

TEST(CompiledProtocolTest, KindFollowsTheDenseBudget) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 3});  // 27 states
  {
    const kernel::CompiledProtocol compiled(*protocol);
    EXPECT_EQ(compiled.kind(), kernel::TableKind::kDense);
    const auto stats = compiled.stats();
    EXPECT_EQ(stats.states, 27u);
    EXPECT_EQ(stats.entries, 27u * 27u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.nonnull_pairs, 0u);
    EXPECT_FALSE(stats.to_string().empty());
  }
  {
    kernel::CompileOptions options;
    options.max_dense_entries = 27 * 27 - 1;  // one short: must go sparse
    const kernel::CompiledProtocol compiled(*protocol, options);
    EXPECT_EQ(compiled.kind(), kernel::TableKind::kSparse);
    EXPECT_FALSE(compiled.has_adjacency());
  }
}

TEST(CompiledProtocolTest, AdjacencyListsExactlyTheNonNullResponders) {
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol);
    if (compiled.kind() != kernel::TableKind::kDense) continue;
    ASSERT_TRUE(compiled.has_adjacency());
    std::uint64_t total = 0;
    for (std::uint64_t s = 0; s < compiled.num_states(); ++s) {
      const auto sa = static_cast<pp::StateId>(s);
      std::vector<pp::StateId> expected;
      for (std::uint64_t t = 0; t < compiled.num_states(); ++t) {
        const auto tb = static_cast<pp::StateId>(t);
        const pp::Transition tr = protocol->transition(sa, tb);
        if (tr.initiator != sa || tr.responder != tb) expected.push_back(tb);
      }
      const auto got = compiled.active_responders(sa);
      ASSERT_EQ(std::vector<pp::StateId>(got.begin(), got.end()), expected)
          << c.name << " k=" << c.k << " state " << s;
      total += expected.size();
    }
    EXPECT_EQ(compiled.stats().nonnull_pairs, total);
  }
}

TEST(CompiledProtocolTest, SparseCacheIsThreadSafe) {
  // Many threads hammer the same shared sparse kernel over random pairs;
  // every answer must match the virtual function (and under ASan/UBSan this
  // exercises the publication ordering).
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 8});
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  options.sparse_slots = 1 << 12;  // small: force collisions and overflow
  const kernel::CompiledProtocol compiled(*protocol, options);

  const std::uint64_t ns = protocol->num_states();
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < 8; ++worker) {
    threads.emplace_back([&, worker]() {
      util::Rng rng(1000 + worker);
      for (int i = 0; i < 50'000; ++i) {
        const auto a = static_cast<pp::StateId>(rng.uniform_below(ns));
        const auto b = static_cast<pp::StateId>(rng.uniform_below(ns));
        if (!(compiled.transition(a, b) == protocol->transition(a, b))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(compiled.stats().sparse_filled, 0u);
}

TEST(CompiledProtocolTest, ShardedSparseHitCountStaysExactAcrossThreads) {
  // Threads hammer lookups of pairs that are all materialized up front, so
  // every lookup is a hit: each thread tallies its hits locally (as a run
  // does) and flushes once, and the flushed shards must sum to exactly the
  // number of lookups made. Lookups without a tally are not counted.
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 8});
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  const kernel::CompiledProtocol compiled(*protocol, options);
  const std::uint64_t ns = protocol->num_states();
  std::vector<std::pair<pp::StateId, pp::StateId>> pairs;
  util::Rng rng(31);
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(static_cast<pp::StateId>(rng.uniform_below(ns)),
                       static_cast<pp::StateId>(rng.uniform_below(ns)));
  }
  for (const auto& [a, b] : pairs) (void)compiled.transition(a, b);
  ASSERT_EQ(compiled.stats().sparse_overflow, 0u);

  for (const int num_threads : {4, 80}) {
    const std::uint64_t before = compiled.stats().sparse_hits;
    const int lookups = num_threads == 4 ? 200'000 : 5'000;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int worker = 0; worker < num_threads; ++worker) {
      threads.emplace_back([&, worker]() {
        ready.fetch_add(1);
        while (ready.load() < num_threads) std::this_thread::yield();
        std::uint64_t hits = 0;
        for (int i = 0; i < lookups; ++i) {
          const auto& [a, b] = pairs[(i * 7 + worker) % pairs.size()];
          (void)compiled.nonnull(a, b, &hits);
          (void)compiled.transition(b, a);  // untallied
        }
        compiled.add_sparse_hits(hits);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(compiled.stats().sparse_hits - before,
              static_cast<std::uint64_t>(num_threads) * lookups)
        << num_threads << " threads";
  }
}

TEST(CompiledProtocolTest, AgentEngineFlushesItsSparseHitsOncePerRun) {
  // The agent engine tallies its sparse-cache hits (transitions and
  // silence checks) in a run-local counter and adds it to the kernel's
  // stats when the run ends: every interaction's lookup is a hit or a
  // materialization, so hits + filled covers the interactions.
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 8});
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  const kernel::CompiledProtocol compiled(*protocol, options);
  ASSERT_EQ(compiled.kind(), kernel::TableKind::kSparse);
  std::vector<pp::ColorId> colors;
  for (pp::ColorId c = 0; c < 8; ++c) colors.insert(colors.end(), 4, c);
  pp::Population population(*protocol, colors);
  auto scheduler = pp::make_scheduler(pp::SchedulerKind::kUniformRandom,
                                      population.size(), 5);
  const pp::RunResult result =
      pp::Engine().run(compiled, population, *scheduler);
  ASSERT_TRUE(result.silent);
  const kernel::CompileStats stats = compiled.stats();
  EXPECT_GT(stats.sparse_hits, 0u);
  EXPECT_GE(stats.sparse_hits + stats.sparse_filled, result.interactions);
}

TEST(CompiledProtocolTest, ConfigSilentAgreesWithIsSilent) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 3});
  const kernel::CompiledProtocol compiled(*protocol);
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<pp::StateId> states;
    for (int i = 0; i < 6; ++i) {
      states.push_back(
          static_cast<pp::StateId>(rng.uniform_below(protocol->num_states())));
    }
    const pp::Population population(protocol->num_states(), states);
    EXPECT_EQ(pp::is_silent(population, compiled),
              pp::is_silent(population, *protocol));
  }
}

TEST(KernelEndToEndTest, BatchRunnerSurfacesCompileStats) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 20;
  spec.trials = 2;
  const auto result = sim::BatchRunner().run_one(spec);
  ASSERT_TRUE(result.kernel_compiled);
  EXPECT_EQ(result.kernel_stats.kind, kernel::TableKind::kDense);
  EXPECT_EQ(result.kernel_stats.states, 27u);
  EXPECT_EQ(result.kernel_stats.entries, 27u * 27u);
  EXPECT_GT(result.kernel_stats.bytes, 0u);
  EXPECT_GE(result.kernel_stats.build_ms, 0.0);
}

TEST(KernelEndToEndTest, EngineRunMatchesRunVirtual) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("tie_report", {.k = 3});
  const std::vector<pp::ColorId> colors{0, 0, 1, 1, 2, 2, 0, 1};

  const auto run_with = [&](bool use_kernel) {
    util::Rng rng(4242);
    pp::Population population(*protocol, colors);
    auto scheduler = pp::make_scheduler(
        pp::SchedulerKind::kUniformRandom,
        static_cast<std::uint32_t>(colors.size()), rng(), protocol.get());
    pp::Engine engine;
    return use_kernel
               ? engine.run(*protocol, population, *scheduler)
               : engine.run_virtual(*protocol, population, *scheduler);
  };

  const pp::RunResult with = run_with(true);
  const pp::RunResult without = run_with(false);
  EXPECT_EQ(with.interactions, without.interactions);
  EXPECT_EQ(with.state_changes, without.state_changes);
  EXPECT_EQ(with.last_change_step, without.last_change_step);
  EXPECT_EQ(with.silent, without.silent);
  EXPECT_EQ(with.final_outputs, without.final_outputs);
}

TEST(RunSpecKernelFieldTest, ParseRejectsRemovedKernelToken) {
  // Kernels are always compiled: old REPRO lines and spec files that still
  // carry kernel= fail at parse time, naming the fix.
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 4;
  spec.n = 100;
  const std::string text = spec.to_string();
  EXPECT_EQ(text.find("kernel="), std::string::npos);
  EXPECT_NO_THROW((void)sim::RunSpec::parse(text));
  for (const char* token : {" kernel=off", " kernel=on", " kernel=maybe"}) {
    try {
      (void)sim::RunSpec::parse(text + token);
      FAIL() << "expected kernel= to be rejected: " << token;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("always compiled"), std::string::npos) << message;
      EXPECT_NE(message.find("drop"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace circles
