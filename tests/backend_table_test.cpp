// Conformance of the backend capability table (sim/backend_table.hpp): for
// every backend x agent-only feature x scheduler, an explicit backend runs
// the spec exactly when its table row says so (and then honours the
// feature) and otherwise names the feature and a backend that runs it, and
// backend=auto's pick, passed back explicitly, is accepted.
#include "sim/backend_table.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace circles::sim {
namespace {

/// Calls of the grader and scheduler factory below, so an accepted spec
/// can be checked to have used them rather than dropped them.
int grader_calls = 0;
int factory_calls = 0;

struct FeatureCase {
  const char* name;  // the spec field the rejection must name
  std::function<void(RunSpec&)> set;
  /// Whether an accepted run shows the feature took effect (null: no
  /// observable trace to check).
  std::function<bool(const TrialRecord&)> took_effect;
};

std::vector<FeatureCase> feature_cases() {
  return {
      {"", [](RunSpec&) {}, nullptr},
      {"circles_stats", [](RunSpec& s) { s.circles_stats = true; },
       [](const TrialRecord& r) { return r.ket_exchanges > 0; }},
      {"track_used_states", [](RunSpec& s) { s.track_used_states = true; },
       [](const TrialRecord& r) { return r.used_states > 0; }},
      {"reboot_faults", [](RunSpec& s) { s.reboot_faults = 1; }, nullptr},
      {"grader",
       [](RunSpec& s) {
         grader_calls = 0;
         s.grader = [](const pp::Protocol&, const analysis::Workload&,
                       std::span<const pp::ColorId>, const pp::Population&,
                       const pp::RunResult&) { return ++grader_calls > 0; };
       },
       [](const TrialRecord&) { return grader_calls == 1; }},
      {"scheduler_factory",
       [](RunSpec& s) {
         factory_calls = 0;
         s.scheduler_factory = [](std::uint32_t n, std::uint64_t seed) {
           ++factory_calls;
           return pp::make_scheduler(pp::SchedulerKind::kUniformRandom, n,
                                     seed);
         };
       },
       [](const TrialRecord&) { return factory_calls == 1; }},
      {"chemical_time", [](RunSpec& s) { s.chemical_time = true; },
       [](const TrialRecord& r) { return r.stabilization_time > 0.0; }},
      {"rtol", [](RunSpec& s) { s.rtol = 1e-4; }, nullptr},
      {"atol", [](RunSpec& s) { s.atol = 1e-8; }, nullptr},
  };
}

constexpr pp::SchedulerKind kSchedulers[] = {
    pp::SchedulerKind::kUniformRandom, pp::SchedulerKind::kClustered,
    pp::SchedulerKind::kRoundRobin};

RunSpec base_spec(pp::SchedulerKind scheduler) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 2 * kAutoDenseMinN;  // above auto's count floor
  spec.scheduler = scheduler;
  spec.trials = 1;
  spec.seed = 7;
  spec.engine.max_interactions = 20'000;  // acceptance, not convergence
  return spec;
}

/// Runs `spec`; returns the rejection message, or empty when it ran (its
/// one trial then lands in `*trial`, when given).
std::string run(const RunSpec& spec, TrialRecord* trial = nullptr) {
  try {
    SpecResult result = BatchRunner().run_one(spec);
    if (trial != nullptr) *trial = std::move(result.trials.at(0));
    return {};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

/// Does some backend named in `message` run a spec with `features` on a
/// scheduler that is (not) lumpable, according to the table? backend=auto
/// counts: it runs every spec whose features do not conflict (tolerances on
/// a non-lumpable scheduler, which no concrete row runs, among them).
bool names_a_capable_backend(const std::string& message, unsigned features,
                             bool lumpable) {
  if (message.find("backend=auto") != std::string::npos) return true;
  for (const BackendCapabilities& row : kBackendTable) {
    if (message.find(to_string(row.backend)) == std::string::npos) continue;
    if ((features & ~row.features) == 0 && (lumpable || !row.needs_lumping)) {
      return true;
    }
  }
  return false;
}

TEST(BackendTableTest, ExplicitBackendsRunExactlyWhatTheirRowAccepts) {
  for (const FeatureCase& feature : feature_cases()) {
    for (const pp::SchedulerKind scheduler : kSchedulers) {
      for (const BackendCapabilities& row : kBackendTable) {
        RunSpec spec = base_spec(scheduler);
        feature.set(spec);
        spec.backend = row.backend;
        const unsigned features = spec_features(spec);
        const bool lumpable = scheduler_lumping(spec).has_value();
        SCOPED_TRACE(spec.to_string() + " feature=" + feature.name);
        const bool accepted = (features & ~row.features) == 0 &&
                              (lumpable || !row.needs_lumping);
        TrialRecord trial;
        const std::string message = run(spec, &trial);
        ASSERT_EQ(message.empty(), accepted) << message;
        if (accepted) {
          // A row that claims a feature must honour it, not drop it.
          if (feature.took_effect) EXPECT_TRUE(feature.took_effect(trial));
          continue;
        }
        // The rejection names the offending feature (or the scheduler that
        // has no lumping) and a backend that can run the spec.
        const std::string offender = (features & ~row.features) != 0
                                         ? feature.name
                                         : pp::to_string(scheduler);
        EXPECT_NE(message.find(offender), std::string::npos) << message;
        EXPECT_TRUE(names_a_capable_backend(message, features, lumpable))
            << message;
      }
    }
  }
}

TEST(BackendTableTest, AutoPickPassedBackExplicitlyIsAccepted) {
  for (const FeatureCase& feature : feature_cases()) {
    for (const pp::SchedulerKind scheduler : kSchedulers) {
      RunSpec spec = base_spec(scheduler);
      feature.set(spec);
      spec.backend = EngineKind::kAuto;
      SCOPED_TRACE(spec.to_string() + " feature=" + feature.name);
      const SpecResult picked = BatchRunner().run_one(spec);
      ASSERT_NE(picked.manifest.dispatch, "auto:fluid-compile-fallback");
      spec.backend = picked.backend_resolved;
      // Tolerances are the one feature auto does not dispatch on: they tune
      // the fluid tier when auto lands there and are dropped otherwise.
      if ((capabilities(spec.backend).features & kFeatureTolerances) == 0) {
        spec.rtol = spec.atol = 0.0;
      }
      EXPECT_EQ(run(spec), "");
    }
  }
}

TEST(BackendTableTest, AutoLandsOnFluidWithTolerancesAtTheFluidFloor) {
  RunSpec spec = base_spec(pp::SchedulerKind::kUniformRandom);
  spec.workload = WorkloadSpec::explicit_counts(
      {kAutoFluidMinN / 2, 3 * (kAutoFluidMinN / 10),
       kAutoFluidMinN - kAutoFluidMinN / 2 - 3 * (kAutoFluidMinN / 10)});
  spec.rtol = 1e-4;
  spec.backend = EngineKind::kAuto;
  const SpecResult picked = BatchRunner().run_one(spec);
  EXPECT_EQ(picked.backend_resolved, EngineKind::kFluid);
  EXPECT_EQ(picked.manifest.dispatch, "auto:fluid");
  spec.backend = picked.backend_resolved;
  EXPECT_EQ(run(spec), "");
}

TEST(BackendTableTest, AutoReasonsFollowTheFirstRungThatRefuses) {
  const auto never = []() -> bool {
    ADD_FAILURE() << "lumping probed for a spec the features already refuse";
    return false;
  };
  const auto yes = []() { return true; };
  const auto no = []() { return false; };
  const auto reason = [](AutoDispatch pick) {
    return std::string(pick.reason);
  };
  EXPECT_EQ(reason(auto_dispatch(kFeatureMonitors, 1000, 27, never)),
            "auto:agent-only-feature");
  EXPECT_EQ(reason(auto_dispatch(0, 1000, 27, no)), "auto:non-lumpable");
  EXPECT_EQ(reason(auto_dispatch(0, 100, 512, yes)), "auto:states>n");
  EXPECT_EQ(reason(auto_dispatch(0, kAutoDenseMinN - 1, 27, yes)),
            "auto:n<min");
  EXPECT_EQ(reason(auto_dispatch(kFeatureTolerances, kAutoDenseMinN, 27, yes)),
            "auto:lumpable");
  EXPECT_EQ(reason(auto_dispatch(0, kAutoFluidMinN, 27, yes)), "auto:fluid");
  EXPECT_EQ(auto_dispatch(0, kAutoFluidMinN - 1, 27, yes).backend,
            EngineKind::kDenseBatched);
}

}  // namespace
}  // namespace circles::sim
