// E11 — implementation quality: raw transition throughput and end-to-end
// simulation throughput (interactions/second) for every protocol family,
// single- and multi-threaded.
//
// The end-to-end section runs fixed-budget RunSpecs (silence stop off, so
// items processed = the budget) through the BatchRunner twice: once with
// one worker thread and once with --threads (default: hardware). Results
// are bitwise identical either way; only the wall clock changes. On a
// >= 4-core machine the multi-threaded pass is expected to be > 2x faster.
#include <chrono>
#include <thread>
#include <vector>

#include <algorithm>

#include "bench_report.hpp"
#include "exp_common.hpp"
#include "kernel/compiled_protocol.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace circles;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Raw transition-function calls over a pseudo-random state stream.
double transitions_per_second(const pp::Protocol& protocol,
                              std::uint64_t calls) {
  util::Rng rng(1);
  const auto num_states = protocol.num_states();
  std::vector<pp::StateId> stream(4096);
  for (auto& s : stream) {
    s = static_cast<pp::StateId>(rng.uniform_below(num_states));
  }
  // Fold the results into a checksum so the loop cannot be optimized away.
  volatile std::uint64_t checksum = 0;
  const auto start = Clock::now();
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < calls; ++i) {
    const pp::StateId a = stream[i & 4095];
    const pp::StateId b = stream[(i + 1) & 4095];
    const pp::Transition t = protocol.transition(a, b);
    acc += t.initiator + t.responder;
  }
  const double elapsed = seconds_since(start);
  checksum = acc;
  (void)checksum;
  return elapsed > 0 ? static_cast<double>(calls) / elapsed : 0.0;
}

/// The `dispatch` section: calibrates backend=auto's count-engine floor
/// (sim::kAutoDenseMinN). Circles k=3 runs to silence on the agent array and
/// on dense_batched for n = 16, 32, ..., max_n under the uniform and the
/// two-cluster scheduler, both backends on the same pinned seed (identical
/// per-trial inputs). A cell's time is its whole BatchRunner call, setup
/// included, because that is what auto's pick costs a sweep; cells under
/// 0.2 s are re-run up to five times and keep their fastest pass. Above
/// n = 512 the trial count shrinks as (512/n)^2 (at least 8): the clustered
/// agent cells' silence time grows ~n^2, so this keeps their cost per cell
/// roughly flat. Both backends of a cell always run the same trials.
struct DispatchCheck {
  bool correct = true;  ///< every trial reached a correct silent consensus
  /// dense_batched no slower than the agent array at every n >=
  /// 2 * kAutoDenseMinN (the margin keeps the check off the noisy near-tie
  /// at the floor itself).
  bool floor_holds = true;
};

DispatchCheck dispatch_section(bench::Report& report,
                               const sim::BatchOptions& batch,
                               std::uint32_t trials, std::uint64_t max_n,
                               std::uint64_t seed) {
  struct Scheduler {
    const char* label;
    pp::SchedulerKind kind;
    std::uint32_t clusters;
  };
  const Scheduler schedulers[] = {
      {"uniform", pp::SchedulerKind::kUniformRandom, 0},
      {"clustered-2", pp::SchedulerKind::kClustered, 2},
  };
  DispatchCheck check;
  util::Table table({"scheduler", "n", "trials", "agent s",
                     "dense_batched s", "agent/batched", "faster"});
  std::vector<std::string> crossovers;
  for (const Scheduler& scheduler : schedulers) {
    // Smallest n from which dense_batched is at least as fast at every
    // larger n measured (0 = it never is).
    std::uint64_t crossover = 0;
    for (std::uint64_t n = 16; n <= max_n; n *= 2) {
      const auto cell_trials = static_cast<std::uint32_t>(
          n <= 512 ? trials
                   : std::max<std::uint64_t>(8, trials * 512 * 512 / (n * n)));
      double seconds[2] = {0.0, 0.0};
      const sim::EngineKind backends[2] = {sim::EngineKind::kAgentArray,
                                           sim::EngineKind::kDenseBatched};
      for (int b = 0; b < 2; ++b) {
        sim::RunSpec spec;
        spec.protocol = "circles";
        spec.params.k = 3;
        spec.n = n;
        spec.scheduler = scheduler.kind;
        spec.clusters = scheduler.clusters;
        spec.trials = cell_trials;
        spec.seed = sim::mix_seed(seed, 0xD15 + n);
        spec.backend = backends[b];
        // Never let "hit the budget" cut a clustered agent run short.
        spec.engine.max_interactions = ~std::uint64_t{0};
        auto options = batch;
        options.keep_trials = false;
        sim::SpecResult result;
        seconds[b] = 1e300;
        for (int pass = 0; pass < 5; ++pass) {
          const auto start = Clock::now();
          result = sim::BatchRunner(options).run_one(spec);
          seconds[b] = std::min(seconds[b], seconds_since(start));
          if (seconds[b] >= 0.2) break;
        }
        check.correct = check.correct && result.all_correct();
        report.add_cell(result)
            .set("section", "dispatch")
            .set("scheduler", scheduler.label)
            .set("wall_ms", seconds[b] * 1000.0)
            .set("trial_ms_sum", result.trial_ms.mean *
                                     static_cast<double>(result.trial_ms.count))
            .set("correct", static_cast<std::uint64_t>(result.correct));
      }
      const bool batched_wins = seconds[1] <= seconds[0];
      if (!batched_wins) {
        crossover = 0;
      } else if (crossover == 0) {
        crossover = n;
      }
      if (n >= 2 * sim::kAutoDenseMinN && !batched_wins) {
        check.floor_holds = false;
      }
      table.add_row({scheduler.label, util::Table::num(n),
                     util::Table::num(std::uint64_t{cell_trials}),
                     util::Table::num(seconds[0], 3),
                     util::Table::num(seconds[1], 3),
                     util::Table::num(seconds[0] / seconds[1], 1),
                     batched_wins ? "dense_batched" : "agent"});
    }
    report.add_cell()
        .set("section", "dispatch_crossover")
        .set("scheduler", scheduler.label)
        .set("crossover_n", crossover)
        .set("auto_dense_min_n", sim::kAutoDenseMinN);
    crossovers.push_back(std::string(scheduler.label) + " n=" +
                         (crossover == 0 ? std::string("none")
                                         : std::to_string(crossover)));
  }
  table.print("dispatch calibration — circles k=3 run to silence, agent vs "
              "dense_batched (same seeds)");
  std::printf("\ncrossover (dense_batched at least as fast from here on): ");
  for (std::size_t i = 0; i < crossovers.size(); ++i) {
    std::printf("%s%s", i ? "; " : "", crossovers[i].c_str());
  }
  std::printf("\nbackend=auto floor: kAutoDenseMinN=%llu\n",
              static_cast<unsigned long long>(sim::kAutoDenseMinN));
  return check;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // --smoke shrinks every size so the whole binary finishes in seconds on a
  // CI runner; the determinism/correctness checks still bind but the
  // wall-clock ratio requirements (thread speedup, kernel gain, urn/fluid
  // margins) do not — small sizes cannot amortize anything.
  const bool smoke = cli.bool_flag(
      "smoke", false,
      "CI sizes: identity/correctness checks only, perf ratios reported but "
      "not required");
  const std::string json_path = cli.string_flag(
      "json", "",
      "write the schema-stable throughput report (BENCH_throughput.json) "
      "to this path");
  const auto trials = static_cast<std::uint32_t>(cli.int_flag(
      "trials", smoke ? 4 : 32, "fixed-budget runs per engine spec"));
  const auto budget = static_cast<std::uint64_t>(cli.int_flag(
      "budget", smoke ? 1 << 12 : 1 << 16,
      "interactions per fixed-budget run"));
  const auto calls = static_cast<std::uint64_t>(cli.int_flag(
      "transition_calls", smoke ? 200'000 : 2'000'000,
      "calls per raw transition benchmark"));
  const auto dense_n = static_cast<std::uint64_t>(cli.int_flag(
      "dense_n", smoke ? 2'000 : 10'000,
      "population size for the backend comparison"));
  const auto dense_trials = static_cast<std::uint32_t>(cli.int_flag(
      "dense_trials", smoke ? 2 : 3, "runs-to-silence per backend"));
  const auto urn_n = static_cast<std::uint64_t>(cli.int_flag(
      "urn_n", smoke ? 20'000 : 1'000'000,
      "population size for the clustered urn-vs-agent comparison"));
  const auto urn_bridge = cli.double_flag(
      "urn_bridge", 0.001, "bridge probability of the clustered comparison");
  const auto urn_budget = static_cast<std::uint64_t>(cli.int_flag(
      "urn_budget", smoke ? 200'000 : 20'000'000,
      "interaction budget for the agent-engine rate measurement"));
  const auto parallel_n = static_cast<std::uint64_t>(cli.int_flag(
      "parallel_n", smoke ? 50'000 : 10'000'000,
      "population size for the uniform (single-urn) intra-run parallelism "
      "case"));
  const auto run_threads_flag = static_cast<std::uint32_t>(cli.int_flag(
      "run-threads", 0,
      "worker threads INSIDE each dense run for the non-sweep sections "
      "(0 = serial; the parallel_run section sweeps 1/2/4/8 "
      "regardless; the OUTER across-trial pool is --threads)"));
  const auto fluid_n = static_cast<std::uint64_t>(cli.int_flag(
      "fluid_n", smoke ? 1'000'000 : 1'000'000'000,
      "population size for the fluid run-to-convergence comparison"));
  const auto fluid_sample_budget = static_cast<std::uint64_t>(cli.int_flag(
      "fluid_sample_budget", smoke ? 500'000 : 50'000'000,
      "interaction budget for the dense_batched rate measurement at fluid_n"));
  const bool dispatch_only = cli.bool_flag(
      "dispatch", false,
      "run only the dispatch calibration section (agent vs dense_batched "
      "crossover for backend=auto; write it with --json=BENCH_dispatch.json)");
  // Dispatch calibration size: trials per cell up to n=512, largest n.
  const std::uint32_t dispatch_trials = smoke ? 4 : 200;
  const std::uint64_t dispatch_max_n = smoke ? 256 : 4096;
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 2, "rng seed"));
  const bool progress = cli.bool_flag(
      "progress", false,
      "stderr heartbeat every 2s: trials done, interactions/sec");
  auto batch = bench::batch_options(cli, seed);
  cli.finish();
  if (batch.threads == 0) {
    batch.threads = std::thread::hardware_concurrency();
    if (batch.threads == 0) batch.threads = 1;
  }
  if (progress) {
    batch.progress = [](const sim::BatchProgress& p) {
      std::fprintf(stderr,
                   "progress: %llu/%llu trials, %u/%u specs, %.0f "
                   "interactions/s, %.1fs elapsed\n",
                   static_cast<unsigned long long>(p.trials_done),
                   static_cast<unsigned long long>(p.trials_total),
                   p.specs_done, p.specs_total, p.interactions_per_s(),
                   p.elapsed_s);
    };
  }

  // Batch-wide telemetry: every BatchRunner below flushes engine counters,
  // kernel stats and phase timers here; the snapshot rides along in the
  // JSON report.
  metrics::MetricsRegistry metrics_registry;
  batch.metrics = &metrics_registry;
  bench::Report report(dispatch_only ? "dispatch" : "throughput");
  metrics::RunManifest manifest = metrics::RunManifest::collect();
  manifest.spec = std::string("bench_throughput") +
                  (dispatch_only ? " --dispatch" : "") +
                  (smoke ? " --smoke" : "");
  manifest.backend = "mixed";
  manifest.dispatch = "explicit";  // every cell names its backend
  manifest.kernel = "per-spec";
  manifest.seed = seed;
  manifest.trials = dispatch_only ? dispatch_trials : trials;
  manifest.threads = batch.threads;
  manifest.run_threads = run_threads_flag;
  const auto t_program = Clock::now();

  // Emits the machine-readable report; called before each verdict so a
  // FAIL run still leaves its numbers behind for diagnosis.
  const auto write_report = [&]() {
    if (json_path.empty()) return;
    manifest.finished_utc = metrics::utc_timestamp_now();
    manifest.wall_ms = seconds_since(t_program) * 1000.0;
    report.set_manifest(manifest);
    report.add_metrics(metrics_registry);
    report.write(json_path);
  };

  if (dispatch_only) {
    bench::print_header("E11", "dispatch calibration — where backend=auto "
                               "should switch from agent to dense_batched");
    const DispatchCheck check = dispatch_section(
        report, batch, dispatch_trials, dispatch_max_n, seed);
    const bool ok = check.correct && (smoke || check.floor_holds);
    write_report();
    return bench::verdict(
        ok, ok ? "every cell correct; dense_batched at least as fast as the "
                 "agent array from twice backend=auto's floor on"
               : "a cell failed, or the agent array beat dense_batched above "
                 "twice backend=auto's floor");
  }

  bench::print_header("E11",
                      "implementation quality — transition and engine "
                      "throughput, single- vs multi-threaded");

  {
    util::Table table({"protocol", "raw transitions/sec"});
    const auto& registry = sim::ProtocolRegistry::global();
    struct RawCase {
      std::string label;
      std::string protocol;
      std::uint32_t k;
    };
    const std::vector<RawCase> raw_cases{
        {"circles k=4", "circles", 4},
        {"circles k=16", "circles", 16},
        {"circles k=64", "circles", 64},
        {"tie_report k=4", "tie_report", 4},
        {"tie_report k=16", "tie_report", 16},
        {"pairwise k=3", "pairwise_plurality", 3},
        {"pairwise k=5", "pairwise_plurality", 5},
        {"unordered k=4", "unordered_circles", 4},
        {"unordered k=8", "unordered_circles", 8},
    };
    for (const auto& c : raw_cases) {
      const auto protocol = registry.create(c.protocol, {.k = c.k});
      const double rate = transitions_per_second(*protocol, calls);
      table.add_row({c.label, util::Table::num(rate, 0)});
      report.add_cell()
          .set("section", "raw_transitions")
          .set("protocol", c.protocol)
          .set("k", static_cast<std::uint64_t>(c.k))
          .set("ops_per_sec", rate);
    }
    table.print("raw transition-function throughput");
  }

  // End-to-end engine throughput via the BatchRunner.
  std::vector<sim::RunSpec> specs;
  struct EngineCase {
    std::string protocol;
    std::uint32_t k;
    std::uint64_t n;
  };
  const std::vector<EngineCase> engine_cases{
      {"circles", 8, 256},        {"circles", 8, 4096},
      {"circles", 32, 1024},      {"exact_majority_4state", 2, 1024},
      {"approx_majority_3state", 2, 1024}, {"pairwise_plurality", 4, 256},
  };
  for (const auto& c : engine_cases) {
    sim::RunSpec spec;
    spec.protocol = c.protocol;
    spec.params.k = c.k;
    spec.n = c.n;
    spec.trials = trials;
    spec.engine.max_interactions = budget;
    spec.engine.stop_when_silent = false;
    specs.push_back(std::move(spec));
  }

  // Keep per-trial records so the determinism check below can compare
  // seeds and outcomes trial by trial, not just aggregate means.
  auto single_options = batch;
  single_options.threads = 1;
  auto pooled_options = batch;

  const auto t1 = Clock::now();
  const auto single = sim::BatchRunner(single_options).run(specs);
  const double single_seconds = seconds_since(t1);

  const auto t2 = Clock::now();
  const auto pooled = sim::BatchRunner(pooled_options).run(specs);
  const double pooled_seconds = seconds_since(t2);

  double total_interactions = 0;
  bool identical = true;
  util::Table table({"protocol", "k", "n", "interactions",
                     "mean state changes"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::SpecResult& r = pooled[i];
    identical = identical &&
                single[i].interactions.mean == r.interactions.mean &&
                single[i].state_changes.mean == r.state_changes.mean &&
                single[i].correct == r.correct &&
                single[i].silent == r.silent &&
                single[i].consensus == r.consensus &&
                single[i].trials.size() == r.trials.size();
    for (std::size_t t = 0; identical && t < r.trials.size(); ++t) {
      identical =
          single[i].trials[t].seed == r.trials[t].seed &&
          single[i].trials[t].outcome.run.interactions ==
              r.trials[t].outcome.run.interactions &&
          single[i].trials[t].outcome.run.state_changes ==
              r.trials[t].outcome.run.state_changes &&
          single[i].trials[t].outcome.consensus ==
              r.trials[t].outcome.consensus;
    }
    total_interactions += r.interactions.mean * r.trial_count;
    table.add_row({r.spec.protocol,
                   util::Table::num(std::uint64_t{r.spec.params.k}),
                   util::Table::num(r.spec.n),
                   util::Table::num(r.interactions.mean * r.trial_count, 0),
                   util::Table::num(r.state_changes.mean, 0)});
  }
  table.print("fixed-budget engine workload (" + std::to_string(trials) +
              " trials x " + std::to_string(budget) + " interactions)");

  const double single_rate =
      single_seconds > 0 ? total_interactions / single_seconds : 0;
  const double pooled_rate =
      pooled_seconds > 0 ? total_interactions / pooled_seconds : 0;
  const double speedup =
      pooled_seconds > 0 ? single_seconds / pooled_seconds : 0;
  std::printf("\n1 thread : %8.2fs  (%12.0f interactions/sec)\n",
              single_seconds, single_rate);
  std::printf("%u threads: %8.2fs  (%12.0f interactions/sec)  speedup %.2fx\n",
              batch.threads, pooled_seconds, pooled_rate, speedup);
  std::printf("(aggregated results bitwise identical across thread counts: "
              "%s)\n",
              identical ? "yes" : "NO");
  bench::print_kernel_stats(pooled);
  report.add_cell()
      .set("section", "fixed_budget")
      .set("backend", "agent")
      .set("threads", 1)
      .set("trials", static_cast<std::uint64_t>(trials))
      .set("interactions", total_interactions)
      .set("wall_ms", single_seconds * 1000.0)
      .set("ops_per_sec", single_rate);
  report.add_cell()
      .set("section", "fixed_budget")
      .set("backend", "agent")
      .set("threads", static_cast<std::uint64_t>(batch.threads))
      .set("trials", static_cast<std::uint64_t>(trials))
      .set("interactions", total_interactions)
      .set("wall_ms", pooled_seconds * 1000.0)
      .set("ops_per_sec", pooled_rate)
      .set("speedup_vs_single", speedup);

  // Virtual dispatch vs compiled kernel, at the kernel layer: the same
  // pinned-seed agent runs go to silence twice through pp::Engine, once on
  // run_virtual (a virtual transition() call per interaction) and once on
  // run() over a kernel compiled once per case, its build time included.
  // Results are bitwise identical; the wall-clock ratio is the kernel's
  // gain. Every engine runs through a kernel, so this is the one place the
  // virtual loop still runs.
  double best_kernel_speedup = 0.0;
  double worst_kernel_speedup = 1e300;
  bool kernel_identical = true;
  {
    struct KernelCase {
      std::string protocol;
      std::uint32_t k;
      std::uint64_t n;
      std::uint32_t trials;
    };
    // Sized so the one-time compile amortizes the way it does in real
    // sweeps (many trials share one kernel).
    const std::vector<KernelCase> kernel_cases{
        {"pairwise_plurality", 4, 1'024, 8},
        {"circles", 3, 2'000, 8},
    };
    util::Table table({"protocol", "n", "trials", "kernel", "virtual s",
                       "compiled s", "speedup"});
    for (const auto& c : kernel_cases) {
      const auto protocol =
          sim::ProtocolRegistry::global().create(c.protocol, {.k = c.k});
      const std::uint64_t case_seed = sim::mix_seed(seed, 0xC0DE + c.n);
      pp::EngineOptions options;
      options.max_interactions = ~std::uint64_t{0};
      // One pass over the case's trials; `compiled` null = run_virtual.
      const auto pass = [&](const kernel::CompiledProtocol* compiled) {
        std::vector<pp::RunResult> runs;
        for (std::uint32_t t = 0; t < c.trials; ++t) {
          util::Rng rng(sim::trial_seed(case_seed, t));
          const auto colors =
              sim::WorkloadSpec::unique_winner()
                  .materialize(rng, c.n, c.k)
                  .agent_colors(rng);
          pp::Population population(*protocol, colors);
          const auto scheduler = pp::make_scheduler(
              pp::SchedulerKind::kUniformRandom,
              static_cast<std::uint32_t>(colors.size()), rng.split()(),
              protocol.get());
          pp::Engine engine(options);
          runs.push_back(
              compiled != nullptr
                  ? engine.run(*compiled, population, *scheduler)
                  : engine.run_virtual(*protocol, population, *scheduler));
        }
        return runs;
      };

      const auto t_off = Clock::now();
      const std::vector<pp::RunResult> off = pass(nullptr);
      const double off_seconds = seconds_since(t_off);

      const auto t_on = Clock::now();
      const kernel::CompiledProtocol compiled(*protocol);
      const std::vector<pp::RunResult> on = pass(&compiled);
      const double on_seconds = seconds_since(t_on);

      double on_interactions = 0.0;
      for (std::size_t t = 0; t < on.size(); ++t) {
        kernel_identical =
            kernel_identical && off[t].interactions == on[t].interactions &&
            off[t].state_changes == on[t].state_changes &&
            off[t].last_change_step == on[t].last_change_step &&
            off[t].silent == on[t].silent &&
            off[t].final_outputs == on[t].final_outputs;
        on_interactions += static_cast<double>(on[t].interactions);
      }
      const double speedup = on_seconds > 0 ? off_seconds / on_seconds : 0.0;
      best_kernel_speedup = std::max(best_kernel_speedup, speedup);
      worst_kernel_speedup = std::min(worst_kernel_speedup, speedup);
      const std::string kind = kernel::to_string(compiled.stats().kind);
      report.add_cell()
          .set("section", "kernel")
          .set("protocol", c.protocol)
          .set("k", static_cast<std::uint64_t>(c.k))
          .set("backend", "agent")
          .set("n", c.n)
          .set("trials", static_cast<std::uint64_t>(c.trials))
          .set("kernel", kind)
          .set("interactions", on_interactions)
          .set("wall_ms", on_seconds * 1000.0)
          .set("ops_per_sec",
               on_seconds > 0 ? on_interactions / on_seconds : 0.0)
          .set("virtual_wall_ms", off_seconds * 1000.0)
          .set("speedup_vs_virtual", speedup);
      table.add_row({c.protocol, util::Table::num(c.n),
                     util::Table::num(std::uint64_t{c.trials}), kind,
                     util::Table::num(off_seconds, 2),
                     util::Table::num(on_seconds, 2),
                     util::Table::num(speedup, 1)});
    }
    table.print(
        "virtual dispatch vs compiled kernel, pp::Engine to silence "
        "(bitwise identical results: " +
        std::string(kernel_identical ? "yes" : "NO") + ")");
  }

  // Dense vs agent-array backends: identical specs (same pinned seed, so
  // identical per-trial workloads) run to silence on every backend; the
  // wall-clock ratio is the number this binary exists to track.
  double agent_seconds = 0.0, batched_seconds = 0.0;
  {
    util::Table dense_table({"backend", "trials", "mean interactions",
                             "mean state changes", "wall s",
                             "interactions/s", "speedup vs agent"});
    struct BackendRun {
      sim::EngineKind backend;
      double seconds = 0.0;
      sim::SpecResult result;
    };
    std::vector<BackendRun> runs;
    for (const auto backend :
         {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
          sim::EngineKind::kDenseBatched}) {
      sim::RunSpec spec;
      spec.protocol = "circles";
      spec.params.k = 3;
      spec.n = dense_n;
      spec.trials = dense_trials;
      spec.seed = sim::mix_seed(seed, 0xDE45E);
      spec.backend = backend;
      spec.run_threads = run_threads_flag;
      // Generous cap: circles' interactions-to-silence are strongly
      // superlinear in n; never let "hit the budget" pollute the timing.
      spec.engine.max_interactions = ~std::uint64_t{0};
      auto options = batch;
      options.keep_trials = false;
      const auto start = Clock::now();
      BackendRun run;
      run.result = sim::BatchRunner(options).run_one(spec);
      run.seconds = seconds_since(start);
      run.backend = backend;
      runs.push_back(std::move(run));
    }
    agent_seconds = runs.front().seconds;
    batched_seconds = runs.back().seconds;
    for (const BackendRun& run : runs) {
      const double total =
          run.result.interactions.mean * run.result.trial_count;
      report.add_cell()
          .set("section", "run_to_silence")
          .set("protocol", "circles")
          .set("k", 3)
          .set("backend", sim::to_string(run.backend))
          .set("n", dense_n)
          .set("trials", static_cast<std::uint64_t>(run.result.trial_count))
          .set("interactions", total)
          .set("wall_ms", run.seconds * 1000.0)
          .set("ops_per_sec", run.seconds > 0 ? total / run.seconds : 0.0)
          .set("speedup_vs_agent",
               run.seconds > 0 ? agent_seconds / run.seconds : 0.0);
      dense_table.add_row(
          {sim::to_string(run.backend),
           util::Table::num(std::uint64_t{run.result.trial_count}),
           util::Table::num(run.result.interactions.mean, 0),
           util::Table::num(run.result.state_changes.mean, 0),
           util::Table::num(run.seconds, 2),
           util::Table::num(run.seconds > 0 ? total / run.seconds : 0.0, 0),
           util::Table::num(
               run.seconds > 0 ? agent_seconds / run.seconds : 0.0, 1)});
    }
    dense_table.print("backend comparison — circles k=3, n=" +
                      std::to_string(dense_n) + ", run to silence");
  }

  // Clustered topology at scale: the dense-urn backend runs a two-cluster
  // dumbbell to silence at n = urn_n, while the agent engine (the only
  // alternative for non-uniform schedulers before the urn engine existed)
  // is timed on a fixed budget and extrapolated to the same interaction
  // count — running it to silence outright would take hours, which is the
  // point. The speedup requirement (>= 10x) binds at n >= 10^6.
  double urn_speedup = 0.0;
  bool urn_identical_grading = true;
  {
    sim::RunSpec urn_spec;
    urn_spec.protocol = "circles";
    urn_spec.params.k = 3;
    urn_spec.n = urn_n;
    urn_spec.trials = 1;
    urn_spec.seed = sim::mix_seed(seed, 0x09B);
    urn_spec.scheduler = pp::SchedulerKind::kClustered;
    urn_spec.clusters = 2;
    urn_spec.bridge = urn_bridge;
    urn_spec.backend = sim::EngineKind::kDenseBatched;
    urn_spec.run_threads = run_threads_flag;
    urn_spec.engine.max_interactions = ~std::uint64_t{0};
    auto options = batch;
    options.keep_trials = false;

    const auto t_urn = Clock::now();
    const auto urn = sim::BatchRunner(options).run_one(urn_spec);
    const double urn_seconds = seconds_since(t_urn);
    urn_identical_grading = urn.all_correct() && urn.all_silent();
    const double urn_interactions = urn.interactions.mean;

    sim::RunSpec agent_spec = urn_spec;
    agent_spec.backend = sim::EngineKind::kAgentArray;
    agent_spec.engine.max_interactions = urn_budget;
    agent_spec.engine.stop_when_silent = false;
    const auto t_agent = Clock::now();
    (void)sim::BatchRunner(options).run_one(agent_spec);
    const double agent_seconds = seconds_since(t_agent);
    const double agent_rate =
        agent_seconds > 0 ? static_cast<double>(urn_budget) / agent_seconds
                          : 0.0;
    // Seconds the agent engine would need for the urn run's interactions.
    const double agent_extrapolated_seconds =
        agent_rate > 0 ? urn_interactions / agent_rate : 0.0;
    urn_speedup =
        urn_seconds > 0 ? agent_extrapolated_seconds / urn_seconds : 0.0;

    report.add_cell()
        .set("section", "urn")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("interactions", urn_interactions)
        .set("wall_ms", urn_seconds * 1000.0)
        .set("ops_per_sec",
             urn_seconds > 0 ? urn_interactions / urn_seconds : 0.0)
        .set("speedup_vs_agent", urn_speedup);
    report.add_cell()
        .set("section", "urn")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "agent")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("interactions", static_cast<double>(urn_budget))
        .set("wall_ms", agent_seconds * 1000.0)
        .set("ops_per_sec", agent_rate)
        .set("note", "fixed-budget sample, extrapolated");
    util::Table urn_table({"engine", "interactions", "wall s",
                           "interactions/s", "speedup"});
    urn_table.add_row(
        {"dense_batched (urn), to silence",
         util::Table::num(urn_interactions, 0),
         util::Table::num(urn_seconds, 2),
         util::Table::num(
             urn_seconds > 0 ? urn_interactions / urn_seconds : 0.0, 0),
         util::Table::num(urn_speedup, 1) + "x"});
    urn_table.add_row(
        {"agent (" + std::to_string(urn_budget) + "-interaction sample)",
         util::Table::num(urn_interactions, 0) + " (target)",
         util::Table::num(agent_extrapolated_seconds, 0) + " (extrapolated)",
         util::Table::num(agent_rate, 0), "1.0x"});
    urn_table.print(
        "clustered dumbbell, 2 clusters, bridge " +
        util::Table::num(urn_bridge, 4) + ", circles k=3, n=" +
        std::to_string(urn_n) +
        " — urn backend to silence vs agent engine extrapolation");
  }

  // Fluid tier at the top of the ladder: the mean-field engine runs circles
  // k=3 at n = fluid_n to convergence (silent consensus) in wall-clock time
  // independent of n, while even the batched dense engine pays per
  // interaction; it is timed on a fixed budget and extrapolated to the fluid
  // run's interaction count. Counts are well separated on purpose — a
  // near-tied sub-race would measure the ODE's slow manifold, not its
  // throughput (see src/fluid/fluid_engine.hpp).
  double fluid_speedup = 0.0;
  double fluid_seconds = 0.0;
  bool fluid_converged = false;
  {
    sim::RunSpec fluid_spec;
    fluid_spec.protocol = "circles";
    fluid_spec.params.k = 3;
    fluid_spec.workload = sim::WorkloadSpec::explicit_counts(
        {fluid_n / 2, 3 * fluid_n / 10, fluid_n - fluid_n / 2 - 3 * fluid_n / 10});
    fluid_spec.trials = 1;
    fluid_spec.seed = sim::mix_seed(seed, 0xF1D);
    fluid_spec.backend = sim::EngineKind::kFluid;
    // The default budget is interaction-denominated and would be a fraction
    // of one chemical-time unit at n = 1e9; circles converges near t = 84,
    // so 200 units of horizon is convergence with slack.
    fluid_spec.engine.max_interactions = 200 * fluid_n;
    auto options = batch;
    options.keep_trials = false;

    const auto t_fluid = Clock::now();
    const auto fluid = sim::BatchRunner(options).run_one(fluid_spec);
    fluid_seconds = seconds_since(t_fluid);
    fluid_converged = fluid.all_correct() && fluid.all_silent();
    const double fluid_interactions = fluid.interactions.mean;

    sim::RunSpec batched_spec = fluid_spec;
    batched_spec.backend = sim::EngineKind::kDenseBatched;
    batched_spec.run_threads = run_threads_flag;
    batched_spec.engine.max_interactions = fluid_sample_budget;
    batched_spec.engine.stop_when_silent = false;
    const auto t_batched = Clock::now();
    (void)sim::BatchRunner(options).run_one(batched_spec);
    const double batched_seconds = seconds_since(t_batched);
    const double batched_rate =
        batched_seconds > 0
            ? static_cast<double>(fluid_sample_budget) / batched_seconds
            : 0.0;
    const double batched_extrapolated_seconds =
        batched_rate > 0 ? fluid_interactions / batched_rate : 0.0;
    fluid_speedup = fluid_seconds > 0
                        ? batched_extrapolated_seconds / fluid_seconds
                        : 0.0;

    report.add_cell()
        .set("section", "fluid")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "fluid")
        .set("n", fluid_n)
        .set("interactions", fluid_interactions)
        .set("wall_ms", fluid_seconds * 1000.0)
        .set("ops_per_sec",
             fluid_seconds > 0 ? fluid_interactions / fluid_seconds : 0.0)
        .set("speedup_vs_dense_batched", fluid_speedup);
    report.add_cell()
        .set("section", "fluid")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", fluid_n)
        .set("interactions", static_cast<double>(fluid_sample_budget))
        .set("wall_ms", batched_seconds * 1000.0)
        .set("ops_per_sec", batched_rate)
        .set("note", "fixed-budget sample, extrapolated");
    util::Table fluid_table({"engine", "interactions", "wall s",
                             "interactions/s", "speedup"});
    fluid_table.add_row(
        {"fluid (mean-field), to convergence",
         util::Table::num(fluid_interactions, 0),
         util::Table::num(fluid_seconds, 3),
         util::Table::num(
             fluid_seconds > 0 ? fluid_interactions / fluid_seconds : 0.0, 0),
         util::Table::num(fluid_speedup, 0) + "x"});
    fluid_table.add_row(
        {"dense_batched (" + std::to_string(fluid_sample_budget) +
             "-interaction sample)",
         util::Table::num(fluid_interactions, 0) + " (target)",
         util::Table::num(batched_extrapolated_seconds, 0) +
             " (extrapolated)",
         util::Table::num(batched_rate, 0), "1.0x"});
    fluid_table.print("fluid vs dense_batched — circles k=3, n=" +
                      std::to_string(fluid_n) +
                      ", run to convergence vs extrapolation");
  }

  // Intra-run parallelism: the same dense workload re-run at inner thread
  // counts 1/2/4/8 (spec run_threads, the knob INSIDE one run — the outer
  // --threads pool stays at one worker since each case is a single trial).
  // Results must be bitwise identical at every width; the wall clock is the
  // point. Task parallelism scales with the number of urn blocks, so the
  // >= 4x requirement binds on the 8-cluster case (64 blocks), not the
  // dumbbell (4 blocks) or the uniform single-urn case (no fan-out at all:
  // that row checks the flat hot path did not regress and that run_threads
  // is an exact no-op without urn structure).
  double parallel_speedup8 = 0.0;
  bool parallel_identical = true;
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  {
    struct ParallelCase {
      std::string label;
      sim::RunSpec spec;
      bool scales = false;  // counts toward the 8-thread speedup requirement
    };
    std::vector<ParallelCase> cases;
    {
      sim::RunSpec dumbbell;
      dumbbell.protocol = "circles";
      dumbbell.params.k = 3;
      dumbbell.n = urn_n;
      dumbbell.trials = 1;
      dumbbell.seed = sim::mix_seed(seed, 0x9A7A);
      dumbbell.scheduler = pp::SchedulerKind::kClustered;
      dumbbell.clusters = 2;
      dumbbell.bridge = urn_bridge;
      dumbbell.backend = sim::EngineKind::kDenseBatched;
      dumbbell.engine.max_interactions = ~std::uint64_t{0};
      cases.push_back({"dumbbell n=" + std::to_string(urn_n), dumbbell,
                       false});

      sim::RunSpec clustered = dumbbell;
      clustered.clusters = 8;
      clustered.seed = sim::mix_seed(seed, 0x9A7B);
      cases.push_back({"clustered-8 n=" + std::to_string(urn_n), clustered,
                       true});

      sim::RunSpec uniform;
      uniform.protocol = "circles";
      uniform.params.k = 3;
      uniform.n = parallel_n;
      uniform.trials = 1;
      uniform.seed = sim::mix_seed(seed, 0x9A7C);
      uniform.backend = sim::EngineKind::kDenseBatched;
      uniform.engine.max_interactions = smoke ? 200'000 : 20'000'000;
      uniform.engine.stop_when_silent = false;
      cases.push_back({"uniform n=" + std::to_string(parallel_n), uniform,
                       false});
    }
    util::Table table({"case", "run_threads", "interactions", "wall s",
                       "interactions/s", "speedup vs 1"});
    for (ParallelCase& c : cases) {
      auto options = batch;
      options.keep_trials = true;
      sim::SpecResult serial;
      double serial_seconds = 0.0;
      for (const std::uint32_t width : {1u, 2u, 4u, 8u}) {
        c.spec.run_threads = width;
        const auto start = Clock::now();
        const auto run = sim::BatchRunner(options).run_one(c.spec);
        const double run_seconds = seconds_since(start);
        if (width == 1) {
          serial = run;
          serial_seconds = run_seconds;
        }
        // Bitwise identity against the 1-thread pass, record by record.
        parallel_identical =
            parallel_identical && run.trials.size() == serial.trials.size();
        for (std::size_t t = 0;
             parallel_identical && t < run.trials.size(); ++t) {
          parallel_identical =
              run.trials[t].seed == serial.trials[t].seed &&
              run.trials[t].outcome.run.interactions ==
                  serial.trials[t].outcome.run.interactions &&
              run.trials[t].outcome.run.state_changes ==
                  serial.trials[t].outcome.run.state_changes &&
              run.trials[t].outcome.run.final_outputs ==
                  serial.trials[t].outcome.run.final_outputs;
        }
        const double total = run.interactions.mean * run.trial_count;
        const double rate = run_seconds > 0 ? total / run_seconds : 0.0;
        const double case_speedup =
            run_seconds > 0 ? serial_seconds / run_seconds : 0.0;
        if (c.scales && width == 8) parallel_speedup8 = case_speedup;
        report.add_cell()
            .set("section", "parallel_run")
            .set("case", c.label)
            .set("protocol", "circles")
            .set("k", 3)
            .set("backend", "dense_batched")
            .set("n", c.spec.n)
            .set("run_threads", static_cast<std::uint64_t>(width))
            .set("interactions", total)
            .set("wall_ms", run_seconds * 1000.0)
            .set("ops_per_sec", rate)
            .set("speedup_vs_serial", case_speedup);
        table.add_row({c.label, util::Table::num(std::uint64_t{width}),
                       util::Table::num(total, 0),
                       util::Table::num(run_seconds, 2),
                       util::Table::num(rate, 0),
                       util::Table::num(case_speedup, 2) + "x"});
      }
    }
    table.print("intra-run parallelism — dense_batched, run_threads sweep "
                "(outer pool fixed at 1 worker)");
    std::printf("(parallel runs bitwise identical across thread counts: "
                "%s)\n",
                parallel_identical ? "yes" : "NO");
  }

  // Span-tracing overhead: the clustered dumbbell from the urn section
  // (dense_batched, n = urn_n) re-run to silence with and without a
  // trace::Tracer attached. The tracing contract is observation-only —
  // results must stay bitwise identical record by record — and the
  // decimated spans must stay under 2% wall-clock overhead. Each mode takes
  // the best of several passes so the 2% bound measures tracing, not
  // scheduler noise.
  double spans_overhead = 0.0;
  bool spans_identical = true;
  std::uint64_t spans_events = 0;
  {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = urn_n;
    spec.trials = 1;
    spec.seed = sim::mix_seed(seed, 0x59A2);
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = 2;
    spec.bridge = urn_bridge;
    spec.backend = sim::EngineKind::kDenseBatched;
    spec.run_threads = run_threads_flag;
    spec.engine.max_interactions = ~std::uint64_t{0};
    auto options = batch;
    options.keep_trials = true;
    const int passes = smoke ? 1 : 3;

    double off_seconds = 1e300;
    sim::SpecResult off;
    for (int pass = 0; pass < passes; ++pass) {
      const auto start = Clock::now();
      off = sim::BatchRunner(options).run_one(spec);
      off_seconds = std::min(off_seconds, seconds_since(start));
    }

    double on_seconds = 1e300;
    sim::SpecResult on;
    for (int pass = 0; pass < passes; ++pass) {
      // Fresh tracer per pass: ring buffers start empty, like a real run.
      trace::Tracer tracer;
      auto traced = options;
      traced.tracer = &tracer;
      const auto start = Clock::now();
      on = sim::BatchRunner(traced).run_one(spec);
      on_seconds = std::min(on_seconds, seconds_since(start));
      spans_events = tracer.drain().size();
    }

    spans_identical = off.trials.size() == on.trials.size();
    for (std::size_t t = 0; spans_identical && t < on.trials.size(); ++t) {
      spans_identical =
          off.trials[t].seed == on.trials[t].seed &&
          off.trials[t].outcome.run.interactions ==
              on.trials[t].outcome.run.interactions &&
          off.trials[t].outcome.run.state_changes ==
              on.trials[t].outcome.run.state_changes &&
          off.trials[t].outcome.run.final_outputs ==
              on.trials[t].outcome.run.final_outputs;
    }
    spans_overhead =
        off_seconds > 0 ? on_seconds / off_seconds - 1.0 : 0.0;

    report.add_cell()
        .set("section", "spans_overhead")
        .set("protocol", "circles")
        .set("k", 3)
        .set("backend", "dense_batched")
        .set("n", urn_n)
        .set("bridge", urn_bridge)
        .set("wall_ms", on_seconds * 1000.0)
        .set("baseline_wall_ms", off_seconds * 1000.0)
        .set("overhead", spans_overhead)
        .set("events", spans_events);
    util::Table spans_table({"mode", "wall s", "events", "overhead"});
    spans_table.add_row({"spans off", util::Table::num(off_seconds, 3), "-",
                         "baseline"});
    spans_table.add_row(
        {"spans on", util::Table::num(on_seconds, 3),
         util::Table::num(spans_events),
         util::Table::num(spans_overhead * 100.0, 2) + "%"});
    spans_table.print(
        "span-tracing overhead — clustered dumbbell, dense_batched, n=" +
        std::to_string(urn_n) + ", run to silence (bitwise identical "
        "results: " +
        std::string(spans_identical ? "yes" : "NO") + ")");
  }

  // The auto ladder's agent/dense_batched crossover, same cells as
  // --dispatch (smaller under --smoke).
  const DispatchCheck dispatch = dispatch_section(
      report, batch, dispatch_trials, dispatch_max_n, seed);

  write_report();

  // The speedup requirement only binds where the hardware can deliver it —
  // and never under --smoke, whose sizes are too small to amortize anything
  // (the identity/correctness checks still bind there).
  const bool speedup_ok = smoke || batch.threads < 4 || speedup > 2.0;
  const bool urn_ok =
      urn_identical_grading &&
      (smoke || urn_n < 1'000'000 || urn_speedup >= 10.0);
  // The fluid engine's whole value proposition: silent consensus at huge n
  // for less wall clock than the dense ladder could ever spend. The margin
  // requirement binds once extrapolation is meaningful (n >= 10^8).
  const bool fluid_ok =
      fluid_converged &&
      (smoke || fluid_n < 100'000'000 || fluid_speedup >= 100.0);
  const bool dense_ok = smoke || batched_seconds <= agent_seconds;
  const bool dispatch_ok =
      dispatch.correct && (smoke || dispatch.floor_holds);
  // Inner-pool scaling needs cores to scale onto; the identity half of the
  // check binds everywhere, --smoke included.
  const bool parallel_ok =
      parallel_identical &&
      (smoke || hw_cores < 8 || parallel_speedup8 >= 4.0);
  // The compiled kernel must pay for itself: a >= 2x win on at least one
  // protocol and no real regression anywhere (0.7 allows wall-clock noise
  // on near-parity cells).
  const bool kernel_ok =
      kernel_identical &&
      (smoke || (best_kernel_speedup >= 2.0 && worst_kernel_speedup >= 0.7));
  // Tracing is observation-only by contract: identical results always, and
  // at real sizes the decimated spans must cost under 2% wall clock.
  const bool spans_ok =
      spans_identical && (smoke || spans_overhead < 0.02);
  const bool pass = identical && single_rate > 0 && speedup_ok && dense_ok &&
                    dispatch_ok &&
                    kernel_ok && urn_ok && fluid_ok && parallel_ok &&
                    spans_ok;
  std::string failure;
  if (!identical) {
    failure = "thread count changed the results";
  } else if (single_rate <= 0) {
    failure = "single-threaded throughput measured as zero";
  } else if (!speedup_ok) {
    failure = "multi-threaded speedup below expectation";
  } else if (!parallel_identical) {
    failure = "inner run_threads width changed the results";
  } else if (!parallel_ok) {
    failure = "intra-run 8-thread speedup below the 4x requirement (" +
              std::to_string(parallel_speedup8) + "x on " +
              std::to_string(hw_cores) + " cores)";
  } else if (!dense_ok) {
    failure = "dense backend slower than the agent array";
  } else if (!dispatch_ok) {
    failure = "dispatch calibration: a cell failed, or the agent array beat "
              "dense_batched above twice backend=auto's floor";
  } else if (!kernel_identical) {
    failure = "compiled kernel changed the results";
  } else if (!kernel_ok) {
    failure = "compiled-kernel speedup below expectation (best " +
              std::to_string(best_kernel_speedup) + "x, worst " +
              std::to_string(worst_kernel_speedup) + "x)";
  } else if (!urn_identical_grading) {
    failure = "clustered urn run failed to reach silent consensus";
  } else if (!urn_ok) {
    failure = "clustered urn speedup below the 10x requirement (" +
              std::to_string(urn_speedup) + "x at n=" +
              std::to_string(urn_n) + ")";
  } else if (!spans_identical) {
    failure = "span tracing changed the results";
  } else if (!spans_ok) {
    failure = "span-tracing overhead above the 2% requirement (" +
              std::to_string(spans_overhead * 100.0) + "%)";
  } else if (!fluid_converged) {
    failure = "fluid run failed to reach silent consensus at n=" +
              std::to_string(fluid_n);
  } else {
    failure = "fluid speedup below the 100x requirement (" +
              std::to_string(fluid_speedup) + "x at n=" +
              std::to_string(fluid_n) + ")";
  }
  return bench::verdict(
      pass, pass ? "throughput measured; deterministic results at every "
                   "thread count; dense backend at least matches the agent "
                   "array; compiled kernels beat virtual dispatch; clustered "
                   "urn backend beats the agent engine by " +
                       util::Table::num(urn_speedup, 0) + "x at n=" +
                       std::to_string(urn_n) +
                       "; fluid tier reaches consensus at n=" +
                       std::to_string(fluid_n) + " " +
                       util::Table::num(fluid_speedup, 0) +
                       "x faster than the dense extrapolation"
                 : failure);
}
