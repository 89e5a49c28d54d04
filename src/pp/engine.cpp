#include "pp/engine.hpp"

#include "kernel/compiled_protocol.hpp"
#include "metrics/metrics.hpp"
#include "pp/silence.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace circles::pp {

namespace {

/// The interaction loop, shared by the compiled-kernel and legacy-virtual
/// paths. `Model` supplies the two protocol-dependent operations:
/// transition(a, b) and silent(population); everything else — monitors,
/// streak accounting, silence-check backoff, budgets — is identical, so the
/// two paths produce bitwise-identical RunResults.
template <typename Model>
RunResult run_loop(const EngineOptions& options, const Protocol& protocol,
                   const Model& model, Population& population,
                   Scheduler& scheduler, std::span<Monitor* const> monitors) {
  CIRCLES_CHECK_MSG(population.size() >= 2,
                    "engine requires at least two agents");
  RunResult result;

  // Telemetry accumulates in locals and flushes once at the end; the only
  // per-interaction cost when enabled is the monitor-dispatch timer, and
  // that is skipped entirely when there are no monitors.
  std::uint64_t silence_checks = 0;
  metrics::Timer* monitor_timer =
      monitors.empty() ? nullptr
                       : metrics::timer(options.metrics, "engine.monitor");

  // Spans follow the same rule: the per-interaction loop emits nothing (one
  // run = one span), so tracing costs two clock reads per run and zero when
  // no tracer is attached.
  trace::TraceBuffer* trace_buffer = trace::buffer(options.tracer);
  const trace::ScopedSpan run_span(trace_buffer, "engine.run");

  for (Monitor* monitor : monitors) monitor->on_start(population, protocol);

  const std::uint64_t period = scheduler.fairness_period();
  std::uint64_t change_free_streak = 0;
  std::uint64_t next_silence_check = options.initial_silence_streak;

  // An initial configuration can already be silent (e.g. n agents of one
  // color under a protocol whose same-state interactions are null).
  if (options.stop_when_silent) {
    silence_checks += 1;
    if (model.silent(population)) result.silent = true;
  }

  while (!result.silent && result.interactions < options.max_interactions) {
    const AgentPair pair = scheduler.next(population);
    CIRCLES_DCHECK(pair.initiator != pair.responder);
    CIRCLES_DCHECK(pair.initiator < population.size());
    CIRCLES_DCHECK(pair.responder < population.size());

    const StateId before_i = population.state(pair.initiator);
    const StateId before_r = population.state(pair.responder);
    const Transition tr = model.transition(before_i, before_r);
    const bool changed = tr.initiator != before_i || tr.responder != before_r;

    if (changed) {
      population.set_state(pair.initiator, tr.initiator);
      population.set_state(pair.responder, tr.responder);
    }

    if (!monitors.empty()) {
      metrics::ScopedTimer span(monitor_timer);
      const InteractionEvent event{result.interactions, pair.initiator,
                                   pair.responder,     before_i,
                                   before_r,           tr.initiator,
                                   tr.responder};
      for (Monitor* monitor : monitors) {
        monitor->on_interaction(event, population);
      }
    }

    if (changed) {
      result.state_changes += 1;
      result.last_change_step = result.interactions;
      change_free_streak = 0;
      next_silence_check = options.initial_silence_streak;
    } else {
      change_free_streak += 1;
    }
    result.interactions += 1;

    if (!options.stop_when_silent) continue;

    // The exact check runs under every scheduler: a globally silent
    // configuration is silent under any schedule, periodic ones included.
    if (change_free_streak >= next_silence_check) {
      silence_checks += 1;
      if (model.silent(population)) {
        result.silent = true;
      } else {
        next_silence_check *= 2;
      }
    }
    // Periodic schedulers keep their deterministic certificate as the
    // fallback for silence the exact check cannot see (a graph scheduler's
    // edge-silent but not globally silent configurations): a change-free
    // full period means every schedulable pair was tried and none changed.
    if (period > 0 && change_free_streak >= period) result.silent = true;
  }

  if (!result.silent && result.interactions >= options.max_interactions) {
    result.budget_exhausted = true;
    // The budget may have stopped us in a configuration that happens to be
    // silent; report it exactly.
    silence_checks += 1;
    result.silent = model.silent(population);
  }

  result.final_outputs = population.output_histogram(protocol);
  for (Monitor* monitor : monitors) monitor->on_finish(population);

  if (options.metrics != nullptr) {
    auto& m = *options.metrics;
    m.counter("engine.runs").add(1);
    m.counter("engine.interactions").add(result.interactions);
    m.counter("engine.state_changes").add(result.state_changes);
    m.counter("engine.silence_checks").add(silence_checks);
  }
  return result;
}

/// Tallies sparse-cache hits in a run-local counter (the kernel's hot path
/// never writes shared memory); Engine::run flushes it once per run.
struct KernelModel {
  const kernel::CompiledProtocol& kernel;
  std::uint64_t* sparse_hits;
  Transition transition(StateId a, StateId b) const {
    return kernel.transition(a, b, sparse_hits);
  }
  bool silent(const Population& population) const {
    return is_silent(population, kernel, sparse_hits);
  }
};

struct VirtualModel {
  const Protocol& protocol;
  Transition transition(StateId a, StateId b) const {
    return protocol.transition(a, b);
  }
  bool silent(const Population& population) const {
    return is_silent(population, protocol);
  }
};

}  // namespace

RunResult Engine::run(const kernel::CompiledProtocol& kernel,
                      Population& population, Scheduler& scheduler,
                      std::span<Monitor* const> monitors) {
  std::uint64_t sparse_hits = 0;
  RunResult result =
      run_loop(options_, kernel.protocol(), KernelModel{kernel, &sparse_hits},
               population, scheduler, monitors);
  kernel.add_sparse_hits(sparse_hits);
  return result;
}

RunResult Engine::run(const Protocol& protocol, Population& population,
                      Scheduler& scheduler,
                      std::span<Monitor* const> monitors) {
  const kernel::CompiledProtocol kernel(protocol,
                                        kernel::CompileOptions::one_shot());
  return run(kernel, population, scheduler, monitors);
}

RunResult Engine::run_virtual(const Protocol& protocol, Population& population,
                              Scheduler& scheduler,
                              std::span<Monitor* const> monitors) {
  return run_loop(options_, protocol, VirtualModel{protocol}, population,
                  scheduler, monitors);
}

RunResult run_protocol(const Protocol& protocol,
                       std::span<const ColorId> colors, Scheduler& scheduler,
                       EngineOptions options,
                       std::span<Monitor* const> monitors) {
  Population population(protocol, colors);
  Engine engine(options);
  return engine.run(protocol, population, scheduler, monitors);
}

}  // namespace circles::pp
