// SessionBuilder: fluent construction of RunSpecs, plus one-call execution.
//
//   const sim::SpecResult r = sim::SessionBuilder()
//                                 .protocol("circles").k(5)
//                                 .n(200).workload(sim::WorkloadSpec::zipf(1.1))
//                                 .scheduler("uniform")
//                                 .trials(10).seed(42)
//                                 .run();
//   printf("correct %.0f%%\n", 100 * r.correct_rate());
//
// build() returns the RunSpec for grid assembly; run() executes the single
// spec through a BatchRunner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch_runner.hpp"
#include "sim/run_spec.hpp"

namespace circles::sim {

class SessionBuilder {
 public:
  SessionBuilder& protocol(std::string name) {
    spec_.protocol = std::move(name);
    return *this;
  }
  SessionBuilder& params(const ProtocolParams& params) {
    spec_.params = params;
    return *this;
  }
  SessionBuilder& k(std::uint32_t k) {
    spec_.params.k = k;
    return *this;
  }
  SessionBuilder& semantics(ext::TieSemantics semantics) {
    spec_.params.semantics = semantics;
    return *this;
  }
  SessionBuilder& n(std::uint64_t n) {
    spec_.n = n;
    return *this;
  }
  SessionBuilder& workload(WorkloadSpec workload) {
    spec_.workload = std::move(workload);
    return *this;
  }
  /// Fixed counts shared by every trial (sets k and n implicitly).
  SessionBuilder& counts(std::vector<std::uint64_t> counts) {
    spec_.params.k = static_cast<std::uint32_t>(counts.size());
    spec_.workload = WorkloadSpec::explicit_counts(std::move(counts));
    return *this;
  }
  SessionBuilder& scheduler(pp::SchedulerKind kind) {
    spec_.scheduler = kind;
    return *this;
  }
  SessionBuilder& scheduler(const std::string& name) {
    spec_.scheduler = pp::scheduler_kind_from_string(name);
    return *this;
  }
  SessionBuilder& scheduler_factory(SchedulerFactory factory) {
    spec_.scheduler_factory = std::move(factory);
    return *this;
  }
  /// Number of equal clusters for the clustered scheduler.
  SessionBuilder& clusters(std::uint32_t count) {
    spec_.clusters = count;
    return *this;
  }
  /// Explicit per-cluster sizes for the clustered scheduler (sum must be n).
  SessionBuilder& cluster_sizes(std::vector<std::uint64_t> sizes) {
    spec_.cluster_sizes = std::move(sizes);
    return *this;
  }
  /// Inter-cluster interaction probability of the clustered scheduler.
  SessionBuilder& bridge(double probability) {
    spec_.bridge = probability;
    return *this;
  }
  SessionBuilder& backend(EngineKind kind) {
    spec_.backend = kind;
    return *this;
  }
  SessionBuilder& backend(const std::string& name) {
    spec_.backend = engine_kind_from_string(name);
    return *this;
  }
  /// Fluid-integrator tolerances (backend=fluid / auto-resolved fluid).
  SessionBuilder& rtol(double rtol) {
    spec_.rtol = rtol;
    return *this;
  }
  SessionBuilder& atol(double atol) {
    spec_.atol = atol;
    return *this;
  }
  SessionBuilder& trials(std::uint32_t trials) {
    spec_.trials = trials;
    return *this;
  }
  SessionBuilder& seed(std::uint64_t seed) {
    spec_.seed = seed;
    return *this;
  }
  SessionBuilder& engine(const pp::EngineOptions& engine) {
    spec_.engine = engine;
    return *this;
  }
  SessionBuilder& max_interactions(std::uint64_t budget) {
    spec_.engine.max_interactions = budget;
    return *this;
  }
  SessionBuilder& grading(Grading grading) {
    spec_.grading = grading;
    return *this;
  }
  SessionBuilder& circles_stats(bool on = true) {
    spec_.circles_stats = on;
    return *this;
  }
  SessionBuilder& track_used_states(bool on = true) {
    spec_.track_used_states = on;
    return *this;
  }
  SessionBuilder& chemical_time(bool on = true) {
    spec_.chemical_time = on;
    return *this;
  }
  SessionBuilder& reboot_faults(std::uint32_t faults) {
    spec_.reboot_faults = faults;
    return *this;
  }
  SessionBuilder& label(std::string label) {
    spec_.label = std::move(label);
    return *this;
  }
  /// Worker threads ACROSS trials (the BatchRunner's outer pool); the
  /// inner, inside-a-run knob is run_threads().
  SessionBuilder& threads(std::uint32_t threads) {
    batch_.threads = threads;
    return *this;
  }
  /// Worker threads INSIDE each trial's run (dense backends; see
  /// RunSpec::run_threads). 0 = serial, the default; results are bitwise
  /// identical for every value.
  SessionBuilder& run_threads(std::uint32_t threads) {
    spec_.run_threads = threads;
    return *this;
  }
  /// Attach a telemetry registry: engine counters, kernel stats, and batch
  /// phase timers land in `registry` (caller-owned; must outlive run()).
  SessionBuilder& metrics(metrics::MetricsRegistry* registry) {
    batch_.metrics = registry;
    return *this;
  }
  /// Write this spec's metrics to `path` (.jsonl or .csv) with a
  /// "<path minus extension>.manifest.json" provenance record next to it.
  SessionBuilder& metrics_out(std::string path) {
    spec_.metrics_out = std::move(path);
    return *this;
  }
  /// Attach a span tracer: batch phases, per-trial spans, engine regions and
  /// pool-worker attribution land in `tracer` (caller-owned; must outlive
  /// run()), and failing trials dump flight-recorder REPRO lines to stderr.
  SessionBuilder& spans(trace::Tracer* tracer) {
    batch_.tracer = tracer;
    return *this;
  }
  /// Write this spec's span timeline to `path` as Chrome Trace Event Format
  /// JSON (open in chrome://tracing or ui.perfetto.dev). The count-probe
  /// sibling is trace= / RunSpec::probes — see run_spec.hpp.
  SessionBuilder& spans_out(std::string path) {
    spec_.spans_out = std::move(path);
    return *this;
  }
  /// Progress heartbeat on a wall-clock cadence (default 2 s); see
  /// BatchOptions::progress.
  SessionBuilder& progress(std::function<void(const BatchProgress&)> callback,
                           double interval_s = 2.0) {
    batch_.progress = std::move(callback);
    batch_.progress_interval_s = interval_s;
    return *this;
  }

  const RunSpec& build() const { return spec_; }

  /// Executes this single spec (trials may still run in parallel).
  SpecResult run(const ProtocolRegistry& registry =
                     ProtocolRegistry::global()) const {
    return BatchRunner(batch_, registry).run_one(spec_);
  }

 private:
  RunSpec spec_;
  BatchOptions batch_;
};

}  // namespace circles::sim
