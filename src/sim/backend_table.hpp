// The backend capability table: one row per concrete backend, stating which
// spec features it runs, whether it needs an exact count-level lumping of
// the scheduler, and where it sits on the backend=auto ladder. The
// BatchRunner validates explicit-backend specs and resolves backend=auto
// from this table alone, so the two can never disagree: auto only ever
// picks a row that accepts the spec.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/run_spec.hpp"

namespace circles::sim {

/// Spec features the backends differ on, as bit flags (spec_features()).
enum Feature : unsigned {
  /// circles_stats / track_used_states: pp::Monitor instrumentation, fed by
  /// the agent engine's per-interaction events.
  kFeatureMonitors = 1u << 0,
  /// reboot_faults / grader / scheduler_factory: features that address
  /// individual agents.
  kFeaturePerAgent = 1u << 1,
  /// chemical_time: the Gillespie clock over the agent engine's event stream.
  kFeatureChemicalClock = 1u << 2,
  /// rtol / atol: fluid-integrator tolerances. The one feature auto does not
  /// dispatch on: they tune the fluid tier when auto lands there and are
  /// ignored on any other pick.
  kFeatureTolerances = 1u << 3,
};

/// The Feature flags `spec` requests.
unsigned spec_features(const RunSpec& spec);

/// Features no backend runs together: the chemical clock drives its own
/// uniform-scheduler agent loop, which takes no monitors and addresses no
/// individual agent. Returns the rejection text, or empty.
std::string conflicting_features(unsigned features);

struct BackendCapabilities {
  EngineKind backend;
  /// Feature flags this backend runs.
  unsigned features;
  /// Simulates per-state counts under an exact lumping of the scheduler
  /// (pp::Scheduler::lumping); auto also skips such a row when
  /// num_states > n, where a count vector is wider than the population.
  bool needs_lumping;
  /// Smallest n at which auto picks this row (inclusive); the highest row
  /// that accepts the spec wins.
  std::uint64_t auto_min_n;
  /// RunManifest::dispatch when auto picks this row. Null for the agent
  /// floor, auto's fallback (which reports why the next rung refused), and
  /// for rows auto never picks.
  const char* auto_reason;
};

/// Every concrete backend, in ascending auto-ladder order.
inline constexpr std::array<BackendCapabilities, 4> kBackendTable{{
    {EngineKind::kAgentArray,
     kFeatureMonitors | kFeaturePerAgent | kFeatureChemicalClock,
     /*needs_lumping=*/false, 0, nullptr},
    // Per-step dense: the reference semantics of the cross-validation
    // tests; dense_batched samples the same chain faster at every measured
    // n, so auto never picks it.
    {EngineKind::kDense, 0, true, 0, nullptr},
    {EngineKind::kDenseBatched, 0, true, kAutoDenseMinN, "auto:lumpable"},
    {EngineKind::kFluid, kFeatureTolerances, true, kAutoFluidMinN,
     "auto:fluid"},
}};

/// The row of a concrete backend (not kAuto).
const BackendCapabilities& capabilities(EngineKind backend);

/// Why `row` cannot run a spec requesting `features`: the rejection text for
/// the first unsupported feature, naming it and a backend that runs it
/// (appended to "RunSpec '<spec>'"); empty when the row runs them all.
std::string unsupported_feature(const BackendCapabilities& row,
                                unsigned features);

struct AutoDispatch {
  EngineKind backend;
  const char* reason;  // RunManifest::dispatch
};

/// backend=auto: climbs the table from the agent floor and keeps the highest
/// row that accepts the spec. When none above the agent does, the reason is
/// why the first rung refused: "auto:agent-only-feature",
/// "auto:non-lumpable", "auto:states>n" or "auto:n<min". `lumpable` is only
/// called once the features pass (probing a scheduler's lumping can be
/// costly). The BatchRunner still demotes a fluid pick to dense_batched when
/// the drift compile refuses the protocol ("auto:fluid-compile-fallback").
AutoDispatch auto_dispatch(unsigned features, std::uint64_t n,
                           std::uint64_t num_states,
                           const std::function<bool()>& lumpable);

}  // namespace circles::sim
