// The simulation engine: drives protocol x population x scheduler.
//
// Termination policy:
//  * Under every scheduler, after change-free streaks the engine runs the
//    exact O(d^2) silence check of silence.hpp, with exponential backoff so
//    nearly-stable phases are not dominated by checking. Global silence
//    holds under any schedule, so periodic runs stop there too, a few
//    backoff streaks after their last change.
//  * For periodic schedulers (fairness_period() > 0) a change-free full
//    period is the fallback certificate: every schedulable agent pair was
//    tried and none changed, hence none can. It is what stops a graph
//    scheduler's edge-silent but not globally silent configurations.
//  * A hard interaction budget bounds runs of protocols that never silence.
#pragma once

#include <cstdint>
#include <span>

#include "pp/monitor.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/run_result.hpp"
#include "pp/scheduler.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::metrics {
class MetricsRegistry;
}

namespace circles::trace {
class Tracer;
}

namespace circles::pp {

struct EngineOptions {
  /// Hard cap on interactions; runs hitting it report budget_exhausted.
  std::uint64_t max_interactions = 500'000'000;

  /// Stop as soon as silence is certified (otherwise run to the budget).
  bool stop_when_silent = true;

  /// First change-free streak length that triggers an exact silence check;
  /// doubles after every failed check.
  std::uint64_t initial_silence_streak = 64;

  /// Optional telemetry sink; every engine consuming EngineOptions (agent,
  /// gillespie, dense, fluid) flushes work counters into it at run
  /// boundaries. Null disables telemetry at zero hot-path cost; results are
  /// bitwise identical either way (metrics never touch an RNG stream).
  metrics::MetricsRegistry* metrics = nullptr;

  /// Optional span tracer; engines consuming EngineOptions emit phase spans
  /// and decimated work events into it (see src/trace/). Same contract as
  /// `metrics`: null disables tracing at the cost of a pointer test, and
  /// spans-on vs spans-off runs are bitwise identical on every backend
  /// (tracing never touches an RNG stream or reorders work).
  trace::Tracer* tracer = nullptr;

  /// Worker threads INSIDE one run. Only the dense engine consumes it (the
  /// multi-urn batched epoch stages fan out across util::ThreadPool::
  /// shared()); the agent/gillespie/fluid engines are inherently serial per
  /// run and ignore it. 1 (default) = fully serial; 0 = one thread per
  /// hardware core; results are bitwise identical for every value (the
  /// parallel stages reduce in a deterministic order). Across-trial
  /// parallelism is a different knob: BatchOptions::threads.
  std::uint32_t run_threads = 1;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  /// Runs until silence (if enabled) or budget exhaustion. Monitors are
  /// optional and may be empty. Compiles a one-shot kernel::CompiledProtocol
  /// internally, so the interaction loop makes no virtual transition()
  /// calls; callers running many trials of one protocol should compile the
  /// kernel once themselves and use the overload below.
  RunResult run(const Protocol& protocol, Population& population,
                Scheduler& scheduler, std::span<Monitor* const> monitors = {});

  /// Same loop over a prebuilt kernel (the BatchRunner compiles one per
  /// spec and shares it across trials and threads).
  RunResult run(const kernel::CompiledProtocol& kernel, Population& population,
                Scheduler& scheduler, std::span<Monitor* const> monitors = {});

  /// The loop paying one virtual transition() call per interaction: the
  /// reference that the kernel tests and bench_throughput's kernel-layer
  /// virtual-vs-compiled section compare run() against. No other code path
  /// reaches it; results are bitwise identical to run().
  RunResult run_virtual(const Protocol& protocol, Population& population,
                        Scheduler& scheduler,
                        std::span<Monitor* const> monitors = {});

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
};

/// Convenience: build a population from colors, run, and return the result.
RunResult run_protocol(const Protocol& protocol,
                       std::span<const ColorId> colors, Scheduler& scheduler,
                       EngineOptions options = {},
                       std::span<Monitor* const> monitors = {});

}  // namespace circles::pp
