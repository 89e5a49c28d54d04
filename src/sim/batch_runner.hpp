// BatchRunner: execute a vector of RunSpecs across a std::thread pool.
//
// Every (spec, trial) pair is an independent job whose RNG stream is a pure
// function of (spec seed, trial index) — see run_spec.hpp — so the results
// are bitwise identical regardless of thread count or scheduling order.
// Trials are executed work-stealing style over a flattened job list; the
// per-spec aggregation runs sequentially afterwards, in trial order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kernel/compiled_protocol.hpp"
#include "metrics/manifest.hpp"
#include "obs/envelope.hpp"
#include "sim/run_spec.hpp"
#include "util/stats.hpp"

namespace circles::metrics {
class MetricsRegistry;
}

namespace circles::trace {
class Tracer;
}

namespace circles::sim {

/// One trial's full record.
struct TrialRecord {
  std::uint64_t seed = 0;  // derived trial seed actually used
  analysis::Workload workload;
  TrialOutcome outcome;

  // Circles instrumentation (valid iff spec.circles_stats).
  std::uint64_t ket_exchanges = 0;
  std::uint64_t diagonal_creations = 0;
  std::uint64_t diagonal_destructions = 0;
  std::uint64_t braket_invariant_violations = 0;
  std::uint64_t potential_descent_violations = 0;
  std::uint64_t scalar_energy_increases = 0;
  bool decomposition_matches = false;

  // Valid iff spec.track_used_states.
  std::uint64_t used_states = 0;

  // Valid iff spec.chemical_time.
  double stabilization_time = 0.0;
  double convergence_time = 0.0;

  /// Wall-clock duration of this trial (workload materialization through
  /// grading), measured on whichever worker thread ran it.
  double wall_ms = 0.0;

  /// One trace per spec.probes entry (index-aligned), recorded on whichever
  /// backend ran the trial.
  std::vector<obs::TraceTable> traces;
};

/// Aggregated result of one spec's trials.
struct SpecResult {
  RunSpec spec;
  std::vector<TrialRecord> trials;  // cleared when keep_trials is off

  /// Backend that actually ran the trials: spec.backend, or the concrete
  /// engine the runner picked from the capability table when spec.backend
  /// is EngineKind::kAuto (see sim/backend_table.hpp).
  EngineKind backend_resolved = EngineKind::kAgentArray;

  /// Kernel compile stats for this spec's protocol. The kernel is compiled
  /// exactly once per spec and shared by every trial on every thread; build
  /// time is reported here so it is never attributed to simulation wall
  /// clock. run() always compiles one, so kernel_compiled is always true.
  bool kernel_compiled = false;
  kernel::CompileStats kernel_stats;

  std::uint32_t trial_count = 0;
  std::uint32_t correct = 0;
  std::uint32_t silent = 0;
  std::uint32_t budget_exhausted = 0;
  std::uint32_t consensus = 0;  // silent consensus on *some* symbol
  std::uint32_t decomposition_matches = 0;

  std::uint64_t braket_invariant_violations = 0;
  std::uint64_t potential_descent_violations = 0;
  std::uint64_t scalar_energy_increases = 0;

  util::Summary interactions;
  util::Summary state_changes;
  util::Summary ket_exchanges;       // all-zero unless circles_stats
  util::Summary stabilization_time;  // all-zero unless chemical_time
  util::Summary convergence_time;    // all-zero unless chemical_time
  /// Per-trial wall-clock latency (ms); p50/p90 are the envelope numbers to
  /// quote for scheduling/queueing decisions.
  util::Summary trial_ms;

  /// Provenance: what ran, where, when. Always filled by run(); written to
  /// disk alongside the metric sink when spec.metrics_out is set.
  metrics::RunManifest manifest;

  /// One quantile envelope per spec.probes entry (index-aligned): the
  /// per-trial traces resampled onto a common grid with p10/p50/p90 columns
  /// per recorded quantity (see obs::envelope). Computed before keep_trials
  /// discards the per-trial records.
  std::vector<obs::TraceTable> trace_envelopes;

  double correct_rate() const {
    return trial_count ? double(correct) / trial_count : 0.0;
  }
  double silent_rate() const {
    return trial_count ? double(silent) / trial_count : 0.0;
  }
  double decomposition_rate() const {
    return trial_count ? double(decomposition_matches) / trial_count : 0.0;
  }
  bool all_correct() const { return correct == trial_count; }
  bool all_silent() const { return silent == trial_count; }
};

/// Snapshot handed to the progress callback on a wall-clock cadence while
/// trials execute (plus one final call after the last trial).
struct BatchProgress {
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  std::uint32_t specs_done = 0;
  std::uint32_t specs_total = 0;
  /// Interactions simulated by *completed* trials.
  std::uint64_t interactions = 0;
  double elapsed_s = 0.0;

  double interactions_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(interactions) / elapsed_s
                           : 0.0;
  }
};

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 0;

  /// Base seed feeding specs that do not fix their own seed.
  std::uint64_t base_seed = 1;

  /// Retain per-trial records in the SpecResult (memory vs detail).
  bool keep_trials = true;

  /// Batch-wide telemetry registry (engines flush work counters into it,
  /// run() adds phase timers and kernel stats). Null = telemetry off.
  /// Specs with their own `metrics_out` sink get a private registry
  /// instead, so per-spec files do not mix with batch-wide aggregation.
  metrics::MetricsRegistry* metrics = nullptr;

  /// Batch-wide span tracer (see src/trace/): run() emits setup/run/
  /// aggregate phase spans, per-trial spans and the kernel-compile span
  /// into it, engines add their own, and failing trials dump the flight
  /// recorder with a greppable REPRO line to stderr. Null = tracing off.
  /// Specs with their own `spans_out` path get a private tracer instead,
  /// written as Chrome Trace Event Format JSON when run() finishes.
  trace::Tracer* tracer = nullptr;

  /// Progress heartbeat: invoked from a dedicated monitor thread every
  /// `progress_interval_s` seconds of wall clock while trials run, and once
  /// more after the last trial completes. Default off; never invoked
  /// concurrently with itself.
  std::function<void(const BatchProgress&)> progress;
  double progress_interval_s = 2.0;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {},
                       const ProtocolRegistry& registry =
                           ProtocolRegistry::global());

  /// Executes all specs; result i corresponds to specs[i]. Throws
  /// std::invalid_argument up front for unknown protocols / bad params.
  std::vector<SpecResult> run(std::span<const RunSpec> specs) const;
  std::vector<SpecResult> run(std::initializer_list<RunSpec> specs) const;

  SpecResult run_one(const RunSpec& spec) const;

  const BatchOptions& options() const { return options_; }

  /// Replays one (spec, trial) job from its exact trial seed, as REPRO
  /// lines do (sweep --spec/--trial-seed). The spec is set up exactly as
  /// run() sets it up — same validation, auto dispatch, kernel and engine —
  /// so the replay is bitwise identical to the batch trial, and a spec run()
  /// rejects throws the same std::invalid_argument here.
  static TrialRecord execute_trial(const RunSpec& spec,
                                   std::uint64_t trial_seed);

 private:
  BatchOptions options_;
  const ProtocolRegistry* registry_;
};

}  // namespace circles::sim
