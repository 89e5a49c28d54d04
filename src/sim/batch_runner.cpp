#include "sim/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/decomposition.hpp"
#include "core/invariants.hpp"
#include "crn/gillespie.hpp"
#include "dense/dense_engine.hpp"
#include "fluid/fluid_engine.hpp"
#include "metrics/metrics.hpp"
#include "obs/monitor_probe.hpp"
#include "sim/backend_table.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace circles::sim {

namespace {

/// ASCII "WORKLOAD": salt separating the workload-materialization stream
/// from the population/scheduler stream of the same trial.
constexpr std::uint64_t kWorkloadSalt = 0x574f524b4c4f4144ULL;

/// Counts distinct states ever occupied during one run.
class UsedStatesMonitor final : public pp::Monitor {
 public:
  void on_start(const pp::Population& population,
                const pp::Protocol&) override {
    for (const pp::StateId s : population.present_states()) seen_.insert(s);
  }
  void on_interaction(const pp::InteractionEvent& event,
                      const pp::Population&) override {
    seen_.insert(event.initiator_after);
    seen_.insert(event.responder_after);
  }
  std::uint64_t used() const { return seen_.size(); }

 private:
  std::unordered_set<pp::StateId> seen_;
};

/// Milliseconds elapsed since `start` on the steady clock.
double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sink path -> manifest path: "runs/cell3.jsonl" -> "runs/cell3.manifest.json"
/// (an unrecognized or missing extension just gets ".manifest.json" appended).
std::string manifest_path(const std::string& sink_path) {
  const std::size_t dot = sink_path.find_last_of('.');
  const std::size_t slash = sink_path.find_last_of('/');
  if (dot != std::string::npos &&
      (slash == std::string::npos || dot > slash)) {
    const std::string ext = sink_path.substr(dot);
    if (ext == ".jsonl" || ext == ".csv" || ext == ".json") {
      return sink_path.substr(0, dot) + ".manifest.json";
    }
  }
  return sink_path + ".manifest.json";
}

/// Builds the flight-recorder context for one failing trial: the full spec
/// string with the resolved backend baked in (so the REPRO line replays on
/// the same concrete engine), plus the graded verdict when the trial
/// produced one (`rec == nullptr`: the trial died in an exception).
trace::FailureContext failure_context(const RunSpec& spec, EngineKind backend,
                                      std::uint32_t trial_index,
                                      std::uint64_t trial_seed,
                                      const TrialRecord* rec) {
  trace::FailureContext ctx;
  RunSpec resolved = spec;
  resolved.backend = backend;
  // Forensics hygiene: the replay must not clobber the original run's sink
  // files, so the REPRO spec drops the output paths (they never affect
  // results — tracing and metrics are observation-only by contract).
  resolved.metrics_out.clear();
  resolved.spans_out.clear();
  ctx.spec = resolved.to_string();
  ctx.backend = sim::to_string(backend);
  ctx.trial_index = trial_index;
  ctx.trial_seed = trial_seed;
  if (rec != nullptr) {
    const pp::RunResult& run = rec->outcome.run;
    ctx.reason = run.budget_exhausted ? "budget_exhausted" : "grader fail";
    ctx.verdict = "correct=" + std::to_string(rec->outcome.correct ? 1 : 0) +
                  " silent=" + std::to_string(run.silent ? 1 : 0) +
                  " budget_exhausted=" +
                  std::to_string(run.budget_exhausted ? 1 : 0) +
                  " interactions=" + std::to_string(run.interactions) +
                  " state_changes=" + std::to_string(run.state_changes);
    std::string outputs;
    for (std::size_t i = 0; i < run.final_outputs.size(); ++i) {
      if (i != 0) outputs += ' ';
      outputs += std::to_string(run.final_outputs[i]);
    }
    ctx.final_outputs = outputs;
  }
  return ctx;
}

/// One spec, set up once and shared by all of its trials: the validated
/// protocol, its kernel, the concrete backend and, on the count backends,
/// the engine every trial runs on. BatchRunner::run and the standalone
/// replay both build it through prepare(), so a REPRO line replays on
/// exactly the engine the batch ran.
struct PreparedSpec {
  std::unique_ptr<pp::Protocol> protocol;
  /// Compiled once per spec; never null.
  std::shared_ptr<const kernel::CompiledProtocol> kernel;
  EngineKind backend = EngineKind::kAgentArray;  // never kAuto
  const char* dispatch = "explicit";             // RunManifest::dispatch
  /// Set iff backend is kDense or kDenseBatched; run() is const/thread-safe.
  std::unique_ptr<dense::DenseEngine> dense;
  /// Set iff backend is kFluid; run() is const/thread-safe.
  std::unique_ptr<fluid::FluidEngine> fluid;
  /// spec.engine with the spec's registry and tracer injected (never
  /// overriding caller-provided ones) and the inner width resolved.
  pp::EngineOptions engine;
  /// The registry and tracer the batch routes this spec's telemetry to.
  metrics::MetricsRegistry* metrics = nullptr;
  trace::Tracer* tracer = nullptr;
  std::uint64_t seed = 0;  // spec seed (BatchRunner::run only)
};

/// Validates `spec` (every error names the fix), resolves backend=auto,
/// compiles the kernel and builds the count engine. Throws
/// std::invalid_argument for a spec no backend can run.
PreparedSpec prepare(const RunSpec& spec, const ProtocolRegistry& registry,
                     metrics::MetricsRegistry* metrics,
                     trace::Tracer* tracer) {
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("RunSpec '" + spec.to_string() + "'" + what);
  };
  if (spec.trials == 0) reject(" needs trials >= 1");
  if (spec.effective_n() < 2) reject(" needs a population of >= 2 agents");
  PreparedSpec prepared;
  prepared.metrics = metrics;
  prepared.tracer = tracer;
  prepared.protocol = registry.create(spec.protocol, spec.params);
  const pp::Protocol& protocol = *prepared.protocol;
  if (spec.workload.family == WorkloadSpec::Family::kExplicit &&
      spec.workload.counts.size() != protocol.num_colors()) {
    reject(" fixes " + std::to_string(spec.workload.counts.size()) +
           " per-color counts but protocol '" + spec.protocol + "' has k=" +
           std::to_string(protocol.num_colors()) + " colors");
  }
  if (spec.circles_stats &&
      dynamic_cast<const core::CirclesProtocol*>(&protocol) == nullptr) {
    throw std::invalid_argument(
        "circles_stats requested for non-circles protocol '" + spec.protocol +
        "'");
  }
  for (const obs::ProbeSpec& probe_spec : spec.probes) {
    // Probe/protocol mismatches (e.g. an energy probe on a weightless
    // protocol) fail here, naming the spec, instead of inside a worker.
    try {
      (void)obs::make_probe(probe_spec, protocol);
    } catch (const std::invalid_argument& e) {
      reject(std::string(": ") + e.what());
    }
  }
  const unsigned features = spec_features(spec);
  if (const std::string conflict = conflicting_features(features);
      !conflict.empty()) {
    reject(conflict);
  }
  if ((spec.clusters != 0 || !spec.cluster_sizes.empty()) &&
      spec.scheduler != pp::SchedulerKind::kClustered) {
    reject(" sets clusters= but its scheduler is '" +
           pp::to_string(spec.scheduler) +
           "'; the cluster shape belongs to scheduler=clustered");
  }
  if (spec.rtol < 0.0 || spec.atol < 0.0) {
    reject(" sets a negative fluid-integrator tolerance (rtol=" +
           std::to_string(spec.rtol) + ", atol=" + std::to_string(spec.atol) +
           "); tolerances must be positive (0 = engine default)");
  }

  // The scheduler's exact count-level lumping, probed at most once and only
  // when a backend that needs one is considered.
  std::optional<std::optional<pp::UrnLumping>> probed;
  const auto lumping = [&]() -> const std::optional<pp::UrnLumping>& {
    if (!probed.has_value()) {
      try {
        probed.emplace(scheduler_lumping(spec, &protocol));
      } catch (const std::invalid_argument& e) {
        reject(std::string(": ") + e.what());
      }
    }
    return *probed;
  };

  // Resolve or validate the backend, both from the capability table.
  prepared.backend = spec.backend;
  if (spec.backend == EngineKind::kAuto) {
    const AutoDispatch pick =
        auto_dispatch(features, spec.effective_n(), protocol.num_states(),
                      [&]() { return lumping().has_value(); });
    prepared.backend = pick.backend;
    prepared.dispatch = pick.reason;
  } else {
    const BackendCapabilities& row = capabilities(spec.backend);
    if (const std::string unsupported = unsupported_feature(row, features);
        !unsupported.empty()) {
      reject(unsupported);
    }
    if (row.needs_lumping && !lumping().has_value()) {
      reject(" requests backend=" + sim::to_string(spec.backend) +
             " with scheduler '" + pp::to_string(spec.scheduler) +
             "', which has no exact count-level lumping "
             "(count-simulable schedulers: uniform, clustered); use "
             "backend=agent for this scheduler, or backend=auto to pick a "
             "backend per spec");
    }
  }

  pp::EngineOptions& engine = prepared.engine;
  engine = spec.engine;
  if (engine.metrics == nullptr) engine.metrics = metrics;
  if (engine.tracer == nullptr) engine.tracer = tracer;
  engine.run_threads = std::max(spec.run_threads, 1u);
  {
    // The compile runs once per spec on this thread; its span lands in the
    // spec's own timeline so build time is visibly separate from trials.
    const trace::ScopedSpan compile_span(trace::buffer(engine.tracer),
                                         "kernel.compile");
    prepared.kernel = std::make_shared<const kernel::CompiledProtocol>(protocol);
  }
  if (prepared.backend == EngineKind::kFluid) {
    fluid::FluidOptions fluid_options;
    if (spec.rtol > 0.0) fluid_options.rtol = spec.rtol;
    if (spec.atol > 0.0) fluid_options.atol = spec.atol;
    try {
      prepared.fluid = std::make_unique<fluid::FluidEngine>(
          prepared.kernel, engine, fluid_options, *lumping());
    } catch (const std::invalid_argument& e) {
      // The drift-table compile refuses protocols whose input-state
      // closure is too wide for the mean-field representation.
      if (spec.backend != EngineKind::kAuto) {
        reject(std::string(": ") + e.what());
      }
      // Auto picked fluid on size alone; fall back one tier.
      prepared.backend = EngineKind::kDenseBatched;
      prepared.dispatch = "auto:fluid-compile-fallback";
    }
  }
  if (prepared.backend == EngineKind::kDense ||
      prepared.backend == EngineKind::kDenseBatched) {
    const dense::DenseMode mode = prepared.backend == EngineKind::kDenseBatched
                                      ? dense::DenseMode::kBatched
                                      : dense::DenseMode::kPerStep;
    prepared.dense = std::make_unique<dense::DenseEngine>(
        prepared.kernel, engine, mode, *lumping());
  }
  return prepared;
}

/// The count backends' trial body. The engine runs on a seed split off the
/// head of the trial stream (the agent path spends that head on the color
/// shuffle, which counts have no use for); clustered trials then spend the
/// continuing stream on the urn split, the count-level image of that
/// shuffle. A dense and a fluid trial of one seed therefore start from
/// identical configurations.
template <typename Engine>
pp::RunResult run_counts(const Engine& engine, const pp::Protocol& protocol,
                         const analysis::Workload& workload,
                         std::uint64_t trial_seed, obs::Recorder* recorder) {
  util::Rng rng(trial_seed);
  const std::uint64_t engine_seed = rng.split()();
  if (engine.lumping().num_urns() > 1) {
    dense::UrnConfig config = dense::UrnConfig::from_workload(
        protocol, workload, engine.lumping().sizes, rng);
    return engine.run(config, engine_seed, recorder);
  }
  dense::DenseConfig config =
      dense::DenseConfig::from_workload(protocol, workload);
  return engine.run(config, engine_seed, recorder);
}

/// Runs one (spec, trial) job on a prepared spec.
TrialRecord run_prepared_trial(const PreparedSpec& prepared,
                               const RunSpec& spec,
                               std::uint64_t trial_seed) {
  const pp::Protocol& protocol = *prepared.protocol;
  const pp::EngineOptions& engine_options = prepared.engine;
  const kernel::CompiledProtocol& kernel = *prepared.kernel;
  TrialRecord rec;
  rec.seed = trial_seed;

  // Trial wall clock: stamped on every return path via RAII, so latency
  // quantiles cover dense/fluid, chemical and agent trials alike.
  struct WallClock {
    TrialRecord& rec;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~WallClock() { rec.wall_ms = elapsed_ms(start); }
  } wall_clock{rec};

  // One span per trial, on whichever worker thread runs it; engines nest
  // their own spans inside. Registers the thread on first use so batch
  // workers get distinct named tracks in the exported timeline.
  const trace::ScopedSpan trial_span(
      trace::buffer(engine_options.tracer, "trial-worker"), "batch.trial");
  util::Rng workload_rng(mix_seed(trial_seed, kWorkloadSalt));
  rec.workload =
      spec.workload.materialize(workload_rng, spec.n, protocol.num_colors());
  CIRCLES_CHECK_MSG(rec.workload.k() == protocol.num_colors(),
                    "workload color count does not match the protocol");

  std::optional<pp::OutputSymbol> expected;
  if (spec.grading == Grading::kTieAware) {
    const auto winner = rec.workload.winner();
    // Tie-handling protocols place their TIE symbol at index k.
    expected = winner.has_value() ? *winner : protocol.num_colors();
  }

  // Probe pipeline, shared by every backend: one recorder per trial, one
  // probe instance per spec entry, traces collected onto the record.
  std::vector<std::unique_ptr<obs::Probe>> probe_objects;
  std::optional<obs::Recorder> recorder;
  if (!spec.probes.empty()) {
    obs::RecorderOptions recorder_options;
    recorder_options.interaction_horizon = spec.engine.max_interactions;
    recorder_options.tracer = engine_options.tracer;
    if (spec.chemical_time) {
      recorder_options.clock = obs::RecorderOptions::Clock::kChemical;
      recorder_options.chemical_horizon =
          static_cast<double>(spec.engine.max_interactions) /
          static_cast<double>(std::max<std::uint64_t>(rec.workload.n(), 1));
    }
    recorder.emplace(recorder_options);
    // ConvergenceProbe grades against the same target symbol the trial
    // grading uses: the tie-aware expectation when set, else the workload's
    // unique plurality winner.
    std::optional<pp::OutputSymbol> target = expected;
    if (!target.has_value()) {
      if (const auto winner = rec.workload.winner()) target = *winner;
    }
    for (const obs::ProbeSpec& probe_spec : spec.probes) {
      probe_objects.push_back(obs::make_probe(probe_spec, protocol, target));
      recorder->add(probe_objects.back().get(), probe_spec.grid);
    }
  }
  obs::Recorder* const trial_recorder = recorder ? &*recorder : nullptr;
  const auto collect_traces = [&]() {
    if (!recorder.has_value()) return;
    rec.traces.reserve(probe_objects.size());
    for (const auto& probe : probe_objects) {
      rec.traces.push_back(probe->take_table());
    }
  };

  if (prepared.dense != nullptr || prepared.fluid != nullptr) {
    const pp::RunResult run =
        prepared.fluid != nullptr
            ? run_counts(*prepared.fluid, protocol, rec.workload, trial_seed,
                         trial_recorder)
            : run_counts(*prepared.dense, protocol, rec.workload, trial_seed,
                         trial_recorder);
    rec.outcome = grade_run(run, rec.workload, expected);
    collect_traces();
    return rec;
  }

  // The RNG consumption order below (colors, then one split for the
  // scheduler/gillespie seed) matches sim::run_trial exactly, so a RunSpec
  // trial with seed s reproduces run_trial(..., {.seed = s}) bit for bit.
  util::Rng rng(trial_seed);
  const auto colors = rec.workload.agent_colors(rng);
  CIRCLES_CHECK_MSG(colors.size() >= 2, "trials need at least two agents");
  const auto n = static_cast<std::uint32_t>(colors.size());
  const std::uint64_t derived_seed = rng.split()();

  if (spec.chemical_time) {
    const crn::GillespieResult result = crn::run_gillespie(
        kernel, colors, derived_seed, engine_options, trial_recorder);
    rec.outcome = grade_run(result.run, rec.workload, expected);
    rec.stabilization_time = result.stabilization_time;
    rec.convergence_time = result.convergence_time;
    collect_traces();
    return rec;
  }

  // prepare() has checked that circles_stats names the circles protocol.
  const auto* circles =
      spec.circles_stats
          ? dynamic_cast<const core::CirclesProtocol*>(&protocol)
          : nullptr;

  std::optional<core::CirclesBraKetView> view;
  std::optional<core::KetExchangeCounter> exchange_counter;
  std::optional<core::BraKetInvariantMonitor> invariant;
  std::optional<core::PotentialDescentMonitor> potential;
  UsedStatesMonitor used_states;
  std::vector<pp::Monitor*> monitors;
  if (circles != nullptr) {
    view.emplace(*circles);
    exchange_counter.emplace(*view);
    invariant.emplace(*view);
    potential.emplace(*view);
    monitors.insert(monitors.end(),
                    {&*exchange_counter, &*invariant, &*potential});
  }
  if (spec.track_used_states) monitors.push_back(&used_states);

  pp::Population population(protocol, colors);
  const pp::ClusteredOptions clustered = spec.clustered_options();
  auto scheduler =
      spec.scheduler_factory
          ? spec.scheduler_factory(n, derived_seed)
          : pp::make_scheduler(spec.scheduler, n, derived_seed, &protocol,
                               &clustered);

  // The count pipeline rides the monitor list; probes wrapping legacy
  // monitors (Probe::as_monitor) see the raw event stream next to it.
  std::optional<obs::RecorderMonitor> recorder_monitor;
  if (recorder.has_value()) {
    recorder_monitor.emplace(*recorder, &kernel);
    monitors.push_back(&*recorder_monitor);
    for (obs::Probe* probe : recorder->probes()) {
      if (pp::Monitor* monitor = probe->as_monitor()) {
        monitors.push_back(monitor);
      }
    }
  }
  const std::span<pp::Monitor* const> monitor_span(monitors.data(),
                                                   monitors.size());

  const auto run_engine = [&](const pp::EngineOptions& engine_options) {
    return pp::Engine(engine_options)
        .run(kernel, population, *scheduler, monitor_span);
  };

  // Transient-fault injection: run in bursts; after each burst reboot one
  // random agent to its input state (it keeps its reading, loses its
  // working memory).
  for (std::uint32_t f = 0; f < spec.reboot_faults; ++f) {
    pp::EngineOptions burst = engine_options;
    burst.max_interactions =
        spec.fault_burst_min +
        (spec.fault_burst_span ? rng.uniform_below(spec.fault_burst_span) : 0);
    burst.stop_when_silent = false;
    (void)run_engine(burst);
    const auto victim = static_cast<pp::AgentId>(rng.uniform_below(n));
    population.set_state(victim, protocol.input(colors[victim]));
  }

  const pp::RunResult run = run_engine(engine_options);
  rec.outcome = grade_run(run, rec.workload, expected);
  if (spec.grader) {
    rec.outcome.correct =
        spec.grader(protocol, rec.workload,
                    std::span<const pp::ColorId>(colors), population, run);
  }

  if (circles != nullptr) {
    rec.ket_exchanges = exchange_counter->exchanges();
    rec.diagonal_creations = exchange_counter->diagonal_creations();
    rec.diagonal_destructions = exchange_counter->diagonal_destructions();
    rec.braket_invariant_violations = invariant->violations();
    rec.potential_descent_violations = potential->descent_violations();
    rec.scalar_energy_increases = potential->scalar_energy_increases();
    rec.decomposition_matches =
        core::verify_decomposition(population, *circles, rec.workload.counts)
            .matches;
  }
  if (spec.track_used_states) rec.used_states = used_states.used();
  collect_traces();
  return rec;
}


void aggregate(SpecResult& result, bool keep_trials) {
  result.trial_count = static_cast<std::uint32_t>(result.trials.size());
  std::vector<double> interactions, state_changes, exchanges, stabilization,
      convergence, trial_ms;
  interactions.reserve(result.trials.size());
  for (const TrialRecord& rec : result.trials) {
    result.correct += rec.outcome.correct ? 1 : 0;
    result.silent += rec.outcome.run.silent ? 1 : 0;
    result.budget_exhausted += rec.outcome.run.budget_exhausted ? 1 : 0;
    result.consensus +=
        (rec.outcome.run.silent && rec.outcome.consensus.has_value()) ? 1 : 0;
    result.decomposition_matches += rec.decomposition_matches ? 1 : 0;
    result.braket_invariant_violations += rec.braket_invariant_violations;
    result.potential_descent_violations += rec.potential_descent_violations;
    result.scalar_energy_increases += rec.scalar_energy_increases;
    interactions.push_back(static_cast<double>(rec.outcome.run.interactions));
    state_changes.push_back(static_cast<double>(rec.outcome.run.state_changes));
    exchanges.push_back(static_cast<double>(rec.ket_exchanges));
    stabilization.push_back(rec.stabilization_time);
    convergence.push_back(rec.convergence_time);
    trial_ms.push_back(rec.wall_ms);
  }
  result.interactions = util::summarize(interactions);
  result.state_changes = util::summarize(state_changes);
  result.ket_exchanges = util::summarize(exchanges);
  result.stabilization_time = util::summarize(stabilization);
  result.convergence_time = util::summarize(convergence);
  result.trial_ms = util::summarize(trial_ms);

  // Cross-trial trace aggregation: one quantile envelope per probe spec,
  // resampled onto the probe's grid shape (before keep_trials can discard
  // the per-trial traces).
  result.trace_envelopes.clear();
  for (std::size_t j = 0; j < result.spec.probes.size(); ++j) {
    std::vector<const obs::TraceTable*> traces;
    traces.reserve(result.trials.size());
    for (const TrialRecord& rec : result.trials) {
      if (j < rec.traces.size()) traces.push_back(&rec.traces[j]);
    }
    obs::EnvelopeOptions envelope_options;
    const obs::GridSpec& grid = result.spec.probes[j].grid;
    envelope_options.points = grid.points;
    envelope_options.spacing = grid.spacing;
    envelope_options.grid_fractions = grid.fractions;
    if (result.spec.chemical_time) {
      envelope_options.x_column = "chemical_time";
    } else {
      envelope_options.x_column = "interactions";
      // All-zero on discrete backends; quantiles of it are noise.
      envelope_options.exclude_columns = {"chemical_time"};
    }
    result.trace_envelopes.push_back(obs::envelope(traces, envelope_options));
  }

  if (!keep_trials) {
    result.trials.clear();
    result.trials.shrink_to_fit();
  }
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions options, const ProtocolRegistry& registry)
    : options_(options), registry_(&registry) {}

TrialRecord BatchRunner::execute_trial(const RunSpec& spec,
                                       std::uint64_t trial_seed) {
  const PreparedSpec prepared =
      prepare(spec, ProtocolRegistry::global(), nullptr, nullptr);
  return run_prepared_trial(prepared, spec, trial_seed);
}

std::vector<SpecResult> BatchRunner::run(
    std::span<const RunSpec> specs) const {
  const auto batch_start = std::chrono::steady_clock::now();
  // The setup phase span opens on the batch-wide tracer only (per-spec
  // tracers do not exist yet); run/aggregate phases cover every attached
  // tracer — see phase_begin below.
  trace::TraceBuffer* batch_tb = trace::buffer(options_.tracer);
  if (batch_tb != nullptr) batch_tb->begin("batch.setup");
  // Environment fields (git describe, host, build type) are shared by every
  // spec of the batch; collected once, stamped with the batch start time.
  const metrics::RunManifest base_manifest = metrics::RunManifest::collect();

  std::vector<SpecResult> results(specs.size());
  std::vector<PreparedSpec> prepared;
  prepared.reserve(specs.size());
  // Telemetry per spec: the batch-wide registry and tracer from
  // BatchOptions, overridden by private ones for specs that want their own
  // sink files (spec.metrics_out, spec.spans_out; the tracer is written as
  // Chrome-trace JSON at the end of run()). A spec.engine.metrics or
  // spec.engine.tracer set by the caller always wins inside the engines.
  std::vector<std::unique_ptr<metrics::MetricsRegistry>> owned_registries(
      specs.size());
  std::vector<std::unique_ptr<trace::Tracer>> owned_tracers(specs.size());
  struct Job {
    std::uint32_t spec;
    std::uint32_t trial;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (!spec.metrics_out.empty()) {
      owned_registries[i] = std::make_unique<metrics::MetricsRegistry>();
    }
    if (!spec.spans_out.empty()) {
      owned_tracers[i] = std::make_unique<trace::Tracer>();
    }
    prepared.push_back(prepare(
        spec, *registry_,
        owned_registries[i] ? owned_registries[i].get() : options_.metrics,
        owned_tracers[i] ? owned_tracers[i].get() : options_.tracer));
    prepared[i].seed = spec_seed(spec, options_.base_seed, i);
    results[i].spec = spec;
    results[i].backend_resolved = prepared[i].backend;
    results[i].trials.resize(spec.trials);
    for (std::uint32_t t = 0; t < spec.trials; ++t) {
      jobs.push_back({static_cast<std::uint32_t>(i), t});
    }
  }
  // Outer across-trial pool width: the machine, capped by the job count
  // (trials parallelize perfectly). The inner width is serial unless a spec
  // pins run_threads: the pooled multi-urn epoch stages measured slower than
  // serial on real cores (their fan-out latency exceeds the per-epoch work),
  // so leftover cores are not moved inside the runs. Results are bitwise
  // identical under every split — this is purely a wall-clock decision.
  std::uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::uint32_t threads = options_.threads == 0 ? hw : options_.threads;
  threads = static_cast<std::uint32_t>(std::min<std::size_t>(
      threads, std::max<std::size_t>(jobs.size(), 1)));
  const double setup_ms = elapsed_ms(batch_start);
  if (batch_tb != nullptr) batch_tb->end("batch.setup");

  // Distinct tracers attached to this batch (batch-wide + per-spec owned):
  // the run/aggregate phase spans are emitted into each from this thread,
  // so every exported timeline carries the phase regions its trials nest
  // under.
  std::vector<trace::Tracer*> phase_tracers{options_.tracer};
  for (const PreparedSpec& spec : prepared) {
    phase_tracers.push_back(spec.tracer);
  }
  std::sort(phase_tracers.begin(), phase_tracers.end());
  phase_tracers.erase(std::unique(phase_tracers.begin(), phase_tracers.end()),
                      phase_tracers.end());
  std::erase(phase_tracers, nullptr);
  const auto phase_begin = [&](const char* name) {
    for (trace::Tracer* tracer : phase_tracers) {
      tracer->thread_buffer()->begin(name);
    }
  };
  const auto phase_end = [&](const char* name) {
    for (trace::Tracer* tracer : phase_tracers) {
      tracer->thread_buffer()->end(name);
    }
  };

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  // Progress accounting: relaxed atomics bumped once per completed trial;
  // the monitor thread (and the final heartbeat) read them.
  std::atomic<std::uint64_t> trials_done{0};
  std::atomic<std::uint64_t> interactions_done{0};
  std::atomic<std::uint32_t> specs_done{0};
  const auto spec_remaining =
      std::make_unique<std::atomic<std::uint32_t>[]>(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    spec_remaining[i].store(specs[i].trials, std::memory_order_relaxed);
  }

  const auto run_phase_start = std::chrono::steady_clock::now();

  const auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t index = cursor.fetch_add(1);
      if (index >= jobs.size()) break;
      const Job job = jobs[index];
      const PreparedSpec& spec = prepared[job.spec];
      trace::Tracer* tracer = spec.tracer;
      const std::uint64_t seed = trial_seed(spec.seed, job.trial);
      // Flight-recorder dump on any failed trial when a tracer is attached
      // (gating on the tracer keeps by-design-failing experiments quiet).
      const auto dump = [&](const TrialRecord* rec, std::string reason = {}) {
        if (tracer == nullptr) return;
        trace::FailureContext ctx = failure_context(
            specs[job.spec], spec.backend, job.trial, seed, rec);
        if (!reason.empty()) ctx.reason = std::move(reason);
        tracer->dump_failure(ctx, stderr);
      };
      try {
        TrialRecord& rec = results[job.spec].trials[job.trial];
        rec = run_prepared_trial(spec, specs[job.spec], seed);
        metrics::record_ms(spec.metrics, "batch.trial", rec.wall_ms);
        if (!rec.outcome.correct || rec.outcome.run.budget_exhausted) {
          dump(&rec);
        }
        trials_done.fetch_add(1, std::memory_order_relaxed);
        interactions_done.fetch_add(rec.outcome.run.interactions,
                                    std::memory_order_relaxed);
        if (spec_remaining[job.spec].fetch_sub(
                1, std::memory_order_relaxed) == 1) {
          specs_done.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        dump(nullptr, std::string("worker exception: ") + e.what());
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed = true;
      } catch (...) {
        dump(nullptr, "worker exception (unknown)");
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed = true;
      }
    }
  };

  const auto snapshot_progress = [&]() {
    BatchProgress progress;
    progress.trials_done = trials_done.load(std::memory_order_relaxed);
    progress.trials_total = jobs.size();
    progress.specs_done = specs_done.load(std::memory_order_relaxed);
    progress.specs_total = static_cast<std::uint32_t>(specs.size());
    progress.interactions = interactions_done.load(std::memory_order_relaxed);
    progress.elapsed_s = elapsed_ms(run_phase_start) / 1e3;
    return progress;
  };

  // The heartbeat runs on its own thread so a single giant trial cannot
  // starve it; it exits promptly via the condition variable when the pool
  // drains (or a worker throws).
  std::mutex heartbeat_mutex;
  std::condition_variable heartbeat_cv;
  bool heartbeat_stop = false;
  std::thread heartbeat;
  if (options_.progress) {
    const auto interval = std::chrono::duration<double>(
        std::max(options_.progress_interval_s, 0.05));
    heartbeat = std::thread([&, interval]() {
      std::unique_lock<std::mutex> lock(heartbeat_mutex);
      while (!heartbeat_cv.wait_for(lock, interval,
                                    [&]() { return heartbeat_stop; })) {
        options_.progress(snapshot_progress());
      }
    });
  }

  phase_begin("batch.run");
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  if (heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> lock(heartbeat_mutex);
      heartbeat_stop = true;
    }
    heartbeat_cv.notify_all();
    heartbeat.join();
  }
  phase_end("batch.run");
  const double run_ms = elapsed_ms(run_phase_start);
  if (error) std::rethrow_exception(error);
  if (options_.progress) options_.progress(snapshot_progress());

  phase_begin("batch.aggregate");
  const auto aggregate_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results[i].kernel_compiled = true;
    // Snapshot after all trials: a sparse kernel's materialization
    // counters have settled by now.
    results[i].kernel_stats = prepared[i].kernel->stats();
  }
  for (SpecResult& result : results) aggregate(result, options_.keep_trials);
  const double aggregate_ms = elapsed_ms(aggregate_start);
  phase_end("batch.aggregate");

  // Phase breakdown and utilization. busy/available measures how well the
  // (spec, trial) jobs filled the pool: low utilization on a long batch
  // means stragglers (one giant spec serializing the tail).
  double busy_ms = 0.0;
  for (const SpecResult& result : results) {
    busy_ms += result.trial_ms.mean * static_cast<double>(
                                          result.trial_ms.count);
  }
  const double utilization =
      run_ms > 0.0 && threads > 0
          ? std::min(1.0, busy_ms / (run_ms * static_cast<double>(threads)))
          : 0.0;
  const auto record_batch = [&](metrics::MetricsRegistry* m) {
    if (m == nullptr) return;
    m->timer("batch.setup").record_ms(setup_ms);
    m->timer("batch.run").record_ms(run_ms);
    m->timer("batch.aggregate").record_ms(aggregate_ms);
    m->timer("batch.wall").record_ms(elapsed_ms(batch_start));
    m->counter("batch.specs").add(specs.size());
    m->counter("batch.trials").add(jobs.size());
    m->gauge("batch.threads").set(static_cast<double>(threads));
    m->gauge("batch.utilization").set(utilization);
  };
  record_batch(options_.metrics);

  // Manifests, kernel stats, per-spec sink files.
  const std::string finished = metrics::utc_timestamp_now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpecResult& result = results[i];
    result.manifest = base_manifest;
    result.manifest.spec = specs[i].to_string();
    result.manifest.backend = sim::to_string(result.backend_resolved);
    result.manifest.dispatch = prepared[i].dispatch;
    result.manifest.kernel = kernel::to_string(result.kernel_stats.kind);
    result.manifest.seed = prepared[i].seed;
    result.manifest.trials = specs[i].trials;
    result.manifest.threads = threads;
    result.manifest.run_threads = prepared[i].engine.run_threads;
    result.manifest.utilization = utilization;
    result.manifest.finished_utc = finished;
    result.manifest.wall_ms =
        result.trial_ms.mean * static_cast<double>(result.trial_ms.count);

    metrics::MetricsRegistry* m = prepared[i].metrics;
    if (m != nullptr) {
      const kernel::CompileStats& stats = result.kernel_stats;
      m->timer("kernel.build").record_ms(stats.build_ms);
      m->counter("kernel.entries").add(stats.entries);
      m->counter("kernel.bytes").add(stats.bytes);
      m->counter("kernel.sparse_filled").add(stats.sparse_filled);
      m->counter("kernel.sparse_overflow").add(stats.sparse_overflow);
      m->counter("kernel.sparse_hits").add(stats.sparse_hits);
    }
    if (owned_registries[i] != nullptr) {
      record_batch(owned_registries[i].get());
      owned_registries[i]->write(specs[i].metrics_out);
      result.manifest.write(manifest_path(specs[i].metrics_out));
    }
    if (owned_tracers[i] != nullptr) {
      owned_tracers[i]->write_chrome_trace(specs[i].spans_out);
    }
  }
  return results;
}

std::vector<SpecResult> BatchRunner::run(
    std::initializer_list<RunSpec> specs) const {
  return run(std::span<const RunSpec>(specs.begin(), specs.size()));
}

SpecResult BatchRunner::run_one(const RunSpec& spec) const {
  auto results = run(std::span<const RunSpec>(&spec, 1));
  return std::move(results.front());
}

}  // namespace circles::sim
