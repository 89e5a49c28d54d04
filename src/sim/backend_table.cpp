#include "sim/backend_table.hpp"

#include <stdexcept>

namespace circles::sim {

unsigned spec_features(const RunSpec& spec) {
  unsigned features = 0;
  if (spec.circles_stats || spec.track_used_states) {
    features |= kFeatureMonitors;
  }
  if (spec.reboot_faults > 0 || spec.grader || spec.scheduler_factory) {
    features |= kFeaturePerAgent;
  }
  if (spec.chemical_time) features |= kFeatureChemicalClock;
  if (spec.rtol != 0.0 || spec.atol != 0.0) features |= kFeatureTolerances;
  return features;
}

std::string conflicting_features(unsigned features) {
  if ((features & kFeatureChemicalClock) &&
      (features & (kFeatureMonitors | kFeaturePerAgent))) {
    return " combines chemical_time with engine-only features "
           "(circles_stats / track_used_states / reboot_faults / grader / "
           "scheduler_factory)";
  }
  return {};
}

const BackendCapabilities& capabilities(EngineKind backend) {
  for (const BackendCapabilities& row : kBackendTable) {
    if (row.backend == backend) return row;
  }
  throw std::invalid_argument("backend '" + to_string(backend) +
                              "' has no capability row; resolve "
                              "backend=auto first");
}

std::string unsupported_feature(const BackendCapabilities& row,
                                unsigned features) {
  const unsigned missing = features & ~row.features;
  if (missing & kFeatureTolerances) {
    return " sets rtol/atol, which are fluid-integrator tolerances, on "
           "backend=" + to_string(row.backend) +
           "; use backend=fluid (or backend=auto) or drop the tolerances";
  }
  if (missing & kFeatureMonitors) {
    return " requests pp::Monitor-based instrumentation (circles_stats / "
           "track_used_states), which needs the agent backend's "
           "per-interaction events; dense backends observe runs through "
           "count-level snapshots — attach an obs::Probe via "
           "RunSpec::probes (trace=...) instead";
  }
  if (missing & kFeaturePerAgent) {
    return " addresses individual agents (reboot_faults / grader / "
           "scheduler_factory), which the dense count representation "
           "cannot express; use backend=agent, or backend=auto to pick a "
           "backend per spec";
  }
  if ((missing & kFeatureChemicalClock) && row.backend == EngineKind::kFluid) {
    return " combines chemical_time with the fluid backend; the fluid "
           "trajectory already advances the chemical clock (trace= "
           "probes record the chemical_time column), but the Gillespie "
           "stabilization/convergence statistics ride the agent engine's "
           "event stream — use backend=agent for those";
  }
  if (missing & kFeatureChemicalClock) {
    return " combines chemical_time with a dense backend; the Gillespie "
           "clock rides the agent engine's event stream — use "
           "backend=agent (count probes still record chemical-time "
           "cadence there)";
  }
  return {};
}

AutoDispatch auto_dispatch(unsigned features, std::uint64_t n,
                           std::uint64_t num_states,
                           const std::function<bool()>& lumpable) {
  const unsigned steering = features & ~kFeatureTolerances;
  AutoDispatch pick{EngineKind::kAgentArray, nullptr};
  for (const BackendCapabilities& row : kBackendTable) {
    if (row.auto_reason == nullptr) continue;
    const char* refusal = nullptr;
    if ((steering & ~row.features) != 0) {
      refusal = "auto:agent-only-feature";
    } else if (row.needs_lumping && !lumpable()) {
      refusal = "auto:non-lumpable";
    } else if (row.needs_lumping && num_states > n) {
      refusal = "auto:states>n";
    } else if (n < row.auto_min_n) {
      refusal = "auto:n<min";
    }
    if (refusal == nullptr) {
      pick = {row.backend, row.auto_reason};
    } else if (pick.reason == nullptr) {
      pick.reason = refusal;
    }
  }
  return pick;
}

}  // namespace circles::sim
