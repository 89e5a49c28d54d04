// perfbench harness: drives the circles library through its public API
// (sim::RunSpec, sim::BatchRunner, and for the traced run the per-layer
// entry points) on one named workload and prints the measurements.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--small] [--spans-out FILE]
//
// --trace 0 measures end to end with telemetry off: BatchRunner::run over
// the workload's specs, repeated for --seconds, plus the set-up cost of the
// public constructors. --trace 1 is a separate traced run: it drives every
// trial one layer at a time inside spans recorded here (materialize, initial
// configuration, engine run, grading), reads the engines' own counters
// through BatchOptions::metrics / EngineOptions::metrics, times a few layer
// entry points in isolation, and reports self times, counts and ratios.
// No instrumentation lives in src/ for this; everything is measured from
// outside.
//
// Output: informational lines, then one JSON object as the last line
// (correct, attempted, failed, metrics). run.py builds this program and
// relays its output.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/dense_engine.hpp"
#include "dense/sampling.hpp"
#include "dense/urn_config.hpp"
#include "fluid/fluid_engine.hpp"
#include "kernel/compiled_protocol.hpp"
#include "metrics/manifest.hpp"
#include "metrics/metrics.hpp"
#include "pp/engine.hpp"
#include "pp/population.hpp"
#include "pp/scheduler.hpp"
#include "sim/batch_runner.hpp"
#include "sim/registry.hpp"
#include "sim/run_spec.hpp"
#include "sim/trial.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace circles;
using Clock = std::chrono::steady_clock;

// Mirrors the workload-stream salt of BatchRunner::execute_trial, so the
// traced run materializes exactly the inputs the BatchRunner does and its
// fixed-seed totals can be compared with the end-to-end pass.
constexpr std::uint64_t kWorkloadSalt = 0x574f524b4c4f4144ULL;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// Peak resident set of this process image. VmHWM rather than ru_maxrss:
// Linux carries ru_maxrss across exec, so it would report the launching
// process's footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank quantile of a sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Workloads. Each is a list of RunSpec strings (RunSpec::parse format) plus
// the outer BatchRunner width. The --small variants keep every cell's shape
// and backend but shrink n and trials so all four run in seconds; they exist
// for the benchmark's own test, not for measurement.

struct Workload {
  std::vector<std::string> specs;
  std::uint32_t outer = 4;
};

Workload make_workload(const std::string& name, bool small) {
  Workload w;
  if (name == "sweep_grid") {
    // Many short cells under backend=auto: auto dispatch, kernel compile and
    // lookup, the agent engine, per-step dense, obs probes and the outer
    // pool, plus one n=1e8 cell that auto sends to fluid, so O(n) input
    // generation and the ODE are measured here too (mean_field_1e9, their
    // own workload, is not in BENCHMARK.json; see below). Left out, all on per-step dense under auto: k=5 n=4096
    // clustered-2 and k=16 n=4096 (minutes per cell), and k=3 n=2048
    // clustered-2, whose silence time is so heavy-tailed that single trials
    // ranged 0.1-23 s, so no pass of a few seconds can repeat across seeds.
    struct Cell {
      const char* protocol;
      int n, small_n;
      const char* scheduler;
      int trials, small_trials;
      const char* backend;
    };
    // Heavy-tailed cells (clustered, n=4096) come first: the BatchRunner
    // hands out jobs in spec order, so the short cells fill in behind them
    // instead of leaving one straggler to run alone at the end of a pass.
    static constexpr Cell kCells[] = {
        {"circles(k=3)", 100000000, 1000000, "uniform", 2, 2,
         "auto budget=5000000000000000"},
        {"circles(k=5)", 512, 512, "clustered clusters=2", 8, 2, "auto"},
        {"circles(k=3)", 512, 512, "clustered clusters=2", 24, 2, "auto"},
        {"circles(k=5)", 4096, 512, "uniform", 12, 2, "auto"},
        {"circles(k=3)", 4096, 512, "uniform", 16, 2, "auto"},
        {"circles(k=3)", 4096, 512, "uniform", 16, 2,
         "auto trace=energy@log:256"},
        {"circles(k=3)", 4096, 512, "round_robin", 8, 2, "auto"},
        {"circles(k=16)", 4096, 512, "uniform", 8, 2, "agent"},
        {"circles(k=3)", 512, 512, "uniform", 128, 4, "auto"},
        {"circles(k=5)", 512, 512, "uniform", 64, 4, "auto"},
        {"exact_majority_4state(k=2)", 4096, 512, "uniform", 64, 2, "auto"},
        {"approx_majority_3state(k=2)", 4096, 512, "uniform", 64, 2, "auto"},
    };
    for (const Cell& c : kCells) {
      w.specs.push_back(std::string(c.protocol) +
                        " n=" + std::to_string(small ? c.small_n : c.n) +
                        " workload=dominant:0.5 scheduler=" + c.scheduler +
                        " trials=" +
                        std::to_string(small ? c.small_trials : c.trials) +
                        " backend=" + c.backend);
    }
  } else if (name == "batched_uniform") {
    // One single-urn batched run per trial: deal, pair, apply and
    // fast-forward; no pool, O(k) input generation, a 729-entry kernel.
    // A run needs ~7.4e9 interactions to silence, past the 5e8 default
    // budget.
    const std::string counts = small ? "counts:40000,35000,25000"
                                     : "counts:4000000,3500000,2500000";
    w.specs = {"circles(k=3) n=0 workload=" + counts +
               " scheduler=uniform trials=4 backend=dense_batched"
               " budget=20000000000"};
  } else if (name == "clustered_few") {
    // Multi-urn batched runs with the inner width left at its default: with
    // two trials on four cores the BatchRunner moves two cores inside each
    // run, so the pooled epoch stages do the work. Not in BENCHMARK.json:
    // its wall time follows the pool's wake latency, which on a shared
    // 4-vCPU VM moved between 3.1 and 6.3 s per pass across runs at equal
    // CPU time, so it cannot repeat within a bound. Run it by name.
    const std::string counts =
        small ? "counts:8000,7000,5000" : "counts:80000,70000,50000";
    w.specs = {"circles(k=3) n=0 workload=" + counts +
               " scheduler=clustered clusters=8 bridge=0.01 trials=2"
               " backend=dense_batched"};
  } else if (name == "mean_field_1e9") {
    // n = 1e9 on the fluid tier: k=3 `unique` inputs (O(n) materialize) and
    // a k=8 explicit split whose cost is the ODE itself. The budget is
    // exp_scaling's n^2/2: circles needs ~n^2/30 interactions to silence.
    // Not in BENCHMARK.json: its pass is four ALU-bound input loops at
    // once, and on a shared 4-vCPU VM the same inputs took 4.9-8.1 s per
    // pass over minutes, past what a 0.25 bound over ten runs can hold.
    // Run it by name.
    const std::string n = small ? "1000000" : "1000000000";
    const std::string k8 =
        small ? "counts:387500,87500,87500,87500,87500,87500,87500,87500"
              : "counts:387500000,87500000,87500000,87500000,87500000,"
                "87500000,87500000,87500000";
    w.specs = {
        "circles(k=3) n=" + n +
            " workload=unique scheduler=uniform trials=4 backend=fluid"
            " budget=500000000000000000",
        "circles(k=8) n=0 workload=" + k8 +
            " scheduler=uniform trials=2 backend=fluid"
            " budget=500000000000000000",
    };
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: sweep_grid, batched_uniform, clustered_few, "
        "mean_field_1e9)");
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  w.outer = std::min<std::uint32_t>(w.outer, hw);
  return w;
}

std::vector<sim::RunSpec> parse_specs(const Workload& workload) {
  std::vector<sim::RunSpec> specs;
  for (const std::string& text : workload.specs) {
    specs.push_back(sim::RunSpec::parse(text));
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string out(1, '"');
  out += metrics::json_escape(s);
  out += '"';
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics_out) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_out.size(); ++i) {
    if (i) out += ", ";
    out += json_str(metrics_out[i].name) + ": {\"value\": " +
           metrics::json_number(metrics_out[i].value) +
           ", \"unit\": " + json_str(metrics_out[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Output check shared by both modes. A trial is the benchmark's operation:
// it succeeds when silent and correct. A silent (or consensus) verdict on
// the wrong symbol fails the whole run; a trial that ran out of budget is a
// failed operation that trial_fail_rate counts.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t wrong = 0;
  std::uint64_t interactions = 0;
  std::uint64_t state_changes = 0;

  void add(const sim::TrialOutcome& outcome) {
    ++attempted;
    interactions += outcome.run.interactions;
    state_changes += outcome.run.state_changes;
    if (outcome.correct) {
      ++correct;
    } else if (outcome.run.budget_exhausted) {
      ++budget_exhausted;
    } else {
      ++wrong;
    }
  }
  Tally& operator+=(const Tally& other) {
    attempted += other.attempted;
    correct += other.correct;
    budget_exhausted += other.budget_exhausted;
    wrong += other.wrong;
    interactions += other.interactions;
    state_changes += other.state_changes;
    return *this;
  }
  std::uint64_t failed() const { return attempted - correct; }
  bool operator==(const Tally&) const = default;
};

Tally tally(const std::vector<sim::SpecResult>& results) {
  Tally t;
  for (const sim::SpecResult& result : results) {
    for (const sim::TrialRecord& rec : result.trials) t.add(rec.outcome);
  }
  return t;
}

void print_totals(const char* label, std::uint64_t seed, const Tally& t) {
  std::printf(
      "totals %s seed=%llu trials=%llu correct=%llu budget_exhausted=%llu "
      "wrong=%llu interactions=%llu state_changes=%llu\n",
      label, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.correct),
      static_cast<unsigned long long>(t.budget_exhausted),
      static_cast<unsigned long long>(t.wrong),
      static_cast<unsigned long long>(t.interactions),
      static_cast<unsigned long long>(t.state_changes));
}

// Provenance: build/host environment, nproc, seed, and per spec the
// resolved backend and widths. Results from a non-Release or dirty (or
// unidentifiable) build are flagged.
void print_provenance(const std::string& workload, std::uint64_t seed,
                      const std::vector<sim::SpecResult>& results) {
  const metrics::RunManifest env = metrics::RunManifest::collect();
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
      "\"git_describe\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"host\": %s}\n",
      json_str(workload).c_str(), static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(), json_str(env.git_describe).c_str(),
      json_str(env.build_type).c_str(), json_str(env.compiler).c_str(),
      json_str(env.hostname).c_str());
  if (env.build_type != "Release") {
    std::printf("provenance-flag: build type is '%s', not Release\n",
                env.build_type.c_str());
  }
  if (env.git_describe == "unknown" ||
      env.git_describe.find("-dirty") != std::string::npos) {
    std::printf("provenance-flag: source revision '%s' is dirty or unknown\n",
                env.git_describe.c_str());
  }
  for (const sim::SpecResult& r : results) {
    std::printf(
        "spec backend=%s outer=%u run_threads=%u kernel=%s correct=%u/%u "
        "budget_exhausted=%u trial_ms_mean=%.1f trial_ms_max=%.1f | %s\n",
        r.manifest.backend.c_str(), r.manifest.threads, r.manifest.run_threads,
        r.manifest.kernel.empty() ? "-" : r.manifest.kernel.c_str(), r.correct,
        r.trial_count, r.budget_exhausted, r.trial_ms.mean, r.trial_ms.max,
        r.manifest.spec.c_str());
  }
}

// The integrator tolerances a spec asks for, as the BatchRunner applies them.
fluid::FluidOptions fluid_options(const sim::RunSpec& spec) {
  fluid::FluidOptions options;
  if (spec.rtol > 0.0) options.rtol = spec.rtol;
  if (spec.atol > 0.0) options.atol = spec.atol;
  return options;
}

// ---------------------------------------------------------------------------
// Set-up: per spec, protocol creation, kernel compile and dense/fluid engine
// construction through the public constructors, with the backend and inner
// width the BatchRunner resolved. Returns seconds for the whole workload.

double setup_once(const std::vector<sim::RunSpec>& specs,
                  const std::vector<sim::SpecResult>& resolved) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::RunSpec& spec = specs[i];
    auto protocol =
        sim::ProtocolRegistry::global().create(spec.protocol, spec.params);
    auto kernel = std::make_shared<const kernel::CompiledProtocol>(*protocol);
    const sim::EngineKind backend = resolved[i].backend_resolved;
    pp::EngineOptions options = spec.engine;
    options.run_threads = resolved[i].manifest.run_threads;
    if (backend == sim::EngineKind::kDense ||
        backend == sim::EngineKind::kDenseBatched) {
      const dense::DenseEngine engine(
          kernel, options,
          backend == sim::EngineKind::kDenseBatched ? dense::DenseMode::kBatched
                                                    : dense::DenseMode::kPerStep,
          *sim::scheduler_lumping(spec, protocol.get()));
    } else if (backend == sim::EngineKind::kFluid) {
      const fluid::FluidEngine engine(
          kernel, options, fluid_options(spec),
          *sim::scheduler_lumping(spec, protocol.get()));
    }
  }
  return seconds_since(start);
}

double measure_setup(const std::vector<sim::RunSpec>& specs,
                     const std::vector<sim::SpecResult>& resolved) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 9 ||
         (seconds_since(start) < 0.5 && samples.size() < 2001)) {
    samples.push_back(setup_once(specs, resolved));
  }
  return median(samples);
}

// ---------------------------------------------------------------------------
// End-to-end mode.

int run_end_to_end(const std::string& name, const Workload& workload,
                   std::uint64_t seed, double seconds) {
  const std::vector<sim::RunSpec> specs = parse_specs(workload);
  std::vector<double> walls, cpus, rates, trial_ms;
  Tally all;
  Tally first;
  std::vector<sim::SpecResult> first_results;
  const auto start = Clock::now();
  for (std::uint64_t pass = 0;; ++pass) {
    sim::BatchOptions options;
    options.threads = workload.outer;
    options.base_seed = sim::mix_seed(seed, pass);
    const sim::BatchRunner runner(options);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<sim::SpecResult> results = runner.run(specs);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    const Tally t = tally(results);
    walls.push_back(wall);
    cpus.push_back(cpu);
    rates.push_back(static_cast<double>(t.state_changes) / wall);
    for (const sim::SpecResult& r : results) {
      for (const sim::TrialRecord& rec : r.trials) {
        trial_ms.push_back(rec.wall_ms);
      }
    }
    all += t;
    std::printf("pass %llu wall_s=%.4f cpu_s=%.4f trials=%llu\n",
                static_cast<unsigned long long>(pass), wall, cpu,
                static_cast<unsigned long long>(t.attempted));
    if (pass == 0) {
      first = t;
      first_results = std::move(results);
    }
    // Stop before a pass that would overrun the measuring window.
    if (seconds_since(start) + median(walls) > seconds) break;
  }
  print_provenance(name, seed, first_results);
  print_totals("pass0", sim::mix_seed(seed, 0), first);

  const double setup_s = measure_setup(specs, first_results);
  const auto p90_samples = static_cast<std::size_t>(
      std::floor(0.1 * static_cast<double>(trial_ms.size())));
  std::printf(
      "trial_ms samples=%zu beyond_p90=%zu%s\n", trial_ms.size(), p90_samples,
      p90_samples < 10 ? " (fewer than 10 samples beyond p90: indicative)"
                       : "");
  const double fail_rate =
      static_cast<double>(all.failed()) / static_cast<double>(all.attempted);
  std::printf(
      "trial_fail_rate=%.6f (%llu of %llu trials not silent-and-correct; "
      "%llu budget-exhausted, %llu wrong verdicts)\n",
      fail_rate, static_cast<unsigned long long>(all.failed()),
      static_cast<unsigned long long>(all.attempted),
      static_cast<unsigned long long>(all.budget_exhausted),
      static_cast<unsigned long long>(all.wrong));
  std::printf("passes=%zu wall_s_min=%.4f wall_s_max=%.4f\n", walls.size(),
              *std::min_element(walls.begin(), walls.end()),
              *std::max_element(walls.begin(), walls.end()));

  const std::vector<Metric> out = {
      {"wall_s", median(walls), "s"},
      {"setup_s", setup_s, "s"},
      {"cpu_s", median(cpus), "s"},
      {"trial_ms_p50", quantile(trial_ms, 0.5), "ms"},
      {"trial_ms_p90", quantile(trial_ms, 0.9), "ms"},
      {"state_changes_per_s", median(rates), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const bool correct = all.wrong == 0;
  if (!correct) std::printf("FAIL: %llu wrong-winner verdicts\n",
                            static_cast<unsigned long long>(all.wrong));
  print_result(correct, all.attempted, all.failed(), out);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark itself around calls into each layer.

struct Span {
  const char* name;
  int parent;  // index into the same thread's log, -1 = root
  int spec;    // spec index the span works for, -1 = none
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int tid) : epoch_(epoch), tid_(tid) {}

  // A span without its own spec index inherits its parent's.
  void begin(const char* name, int spec = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (spec < 0 && parent >= 0) spec = spans_[parent].spec;
    spans_.push_back({name, parent, spec, now(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
  }
  void end() {
    spans_[stack_.back()].end_ns = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  Clock::time_point epoch_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int spec = -1) : log_(log) {
    log_.begin(name, spec);
  }
  ~ScopedSpan() { log_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

// Self time per span name (duration minus the direct children's durations),
// over every span or only those working for spec `spec`.
std::map<std::string, double> self_ms(const std::vector<SpanLog>& logs,
                                      int spec = -1) {
  std::map<std::string, double> out;
  for (const SpanLog& log : logs) {
    const auto& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spec >= 0 && spans[i].spec != spec) continue;
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      out[spans[i].name] += (dur - child_ns[i]) / 1e6;
    }
  }
  return out;
}

double value_or_zero(const std::map<std::string, double>& values,
                     const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

double total_ms(const std::vector<SpanLog>& logs, const std::string& name) {
  double ns = 0.0;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (name == s.name) ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return ns / 1e6;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::printf("spans: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (!first) out << ",";
      first = false;
      out << "\n{\"name\": " << json_str(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << log.tid()
          << ", \"ts\": " << metrics::json_number(s.start_ns / 1e3)
          << ", \"dur\": "
          << metrics::json_number((s.end_ns - s.start_ns) / 1e3) << "}";
    }
  }
  out << "\n]}\n";
  std::printf("spans: wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Traced mode: per-spec state the layer-by-layer drive shares across trials.

struct TracedSpec {
  sim::RunSpec spec;
  sim::EngineKind backend = sim::EngineKind::kAgentArray;
  std::uint32_t run_threads = 1;
  std::uint64_t seed = 0;
  std::unique_ptr<pp::Protocol> protocol;
  std::shared_ptr<const kernel::CompiledProtocol> kernel;
  std::optional<pp::UrnLumping> lumping;
  std::unique_ptr<dense::DenseEngine> dense;
  std::unique_ptr<fluid::FluidEngine> fluid;
  std::unique_ptr<metrics::MetricsRegistry> registry;
  // States seen in the trials' initial and final configurations, for the
  // kernel lookup microbench.
  std::mutex mutex;
  std::set<pp::StateId> reached;
};

void note_states(TracedSpec& ts, std::span<const std::uint64_t> counts) {
  std::lock_guard<std::mutex> lock(ts.mutex);
  for (std::size_t s = 0; s < counts.size() && ts.reached.size() < 256; ++s) {
    if (counts[s] != 0) ts.reached.insert(static_cast<pp::StateId>(s));
  }
}

// One trial, layer by layer, mirroring BatchRunner::execute_trial's stream
// discipline (without obs probes, which obs.probe_overhead measures apart).
sim::TrialOutcome traced_trial(TracedSpec& ts, int spec, std::uint32_t trial,
                               SpanLog& log) {
  const ScopedSpan trial_span(log, "trial", spec);
  const std::uint64_t seed = sim::trial_seed(ts.seed, trial);
  const pp::Protocol& protocol = *ts.protocol;
  analysis::Workload workload;
  {
    const ScopedSpan span(log, "analysis.materialize");
    util::Rng workload_rng(sim::mix_seed(seed, kWorkloadSalt));
    workload = ts.spec.workload.materialize(workload_rng, ts.spec.n,
                                            protocol.num_colors());
  }
  pp::RunResult run;
  util::Rng rng(seed);
  if (ts.backend == sim::EngineKind::kAgentArray) {
    std::optional<pp::Population> population;
    std::unique_ptr<pp::Scheduler> scheduler;
    {
      const ScopedSpan span(log, "pp.population");
      const auto colors = workload.agent_colors(rng);
      const std::uint64_t derived = rng.split()();
      population.emplace(protocol, colors);
      const pp::ClusteredOptions clustered = ts.spec.clustered_options();
      scheduler = pp::make_scheduler(ts.spec.scheduler,
                                     static_cast<std::uint32_t>(colors.size()),
                                     derived, &protocol, &clustered);
    }
    note_states(ts, population->counts());
    {
      const ScopedSpan span(log, "pp.run");
      pp::EngineOptions options = ts.spec.engine;
      options.metrics = ts.registry.get();
      run = pp::Engine(options).run(*ts.kernel, *population, *scheduler);
    }
    note_states(ts, population->counts());
  } else {
    const std::uint64_t engine_seed = rng.split()();
    const bool is_fluid = ts.backend == sim::EngineKind::kFluid;
    const char* config_name = is_fluid ? "fluid.config" : "dense.config";
    const char* run_name = is_fluid ? "fluid.run" : "dense.run";
    const bool multi_urn = ts.lumping->num_urns() > 1;
    std::optional<dense::DenseConfig> single;
    std::optional<dense::UrnConfig> urns;
    {
      const ScopedSpan span(log, config_name);
      if (multi_urn) {
        urns = dense::UrnConfig::from_workload(protocol, workload,
                                               ts.lumping->sizes, rng);
      } else {
        single = dense::DenseConfig::from_workload(protocol, workload);
      }
    }
    const auto note = [&]() {
      note_states(ts, multi_urn ? urns->aggregate().counts : single->counts);
    };
    note();
    {
      const ScopedSpan span(log, run_name);
      if (is_fluid) {
        run = multi_urn ? ts.fluid->run(*urns, engine_seed)
                        : ts.fluid->run(*single, engine_seed);
      } else {
        run = multi_urn ? ts.dense->run(*urns, engine_seed)
                        : ts.dense->run(*single, engine_seed);
      }
    }
    note();
  }
  const ScopedSpan span(log, "sim.grade_run");
  return sim::grade_run(run, workload);
}

// Runs `fn` `reps` times and returns the mean time of one call in
// microseconds (after one untimed warm-up call).
template <typename Fn>
double time_us(std::size_t reps, Fn&& fn) {
  fn();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return seconds_since(start) * 1e6 / static_cast<double>(reps);
}

double batch_wall(const std::vector<sim::RunSpec>& specs,
                  std::uint32_t outer, std::uint64_t base_seed,
                  metrics::MetricsRegistry* registry = nullptr,
                  trace::Tracer* tracer = nullptr) {
  sim::BatchOptions options;
  options.threads = outer;
  options.base_seed = base_seed;
  options.metrics = registry;
  options.tracer = tracer;
  const auto t0 = Clock::now();
  (void)sim::BatchRunner(options).run(specs);
  return seconds_since(t0);
}

// Ratio of median walls of `a` against `b` minus one, from alternating runs
// (at least one pair, more while the total stays under `budget_s`).
template <typename A, typename B>
double overhead(A&& a, B&& b, double budget_s) {
  std::vector<double> wa, wb;
  const auto start = Clock::now();
  do {
    wb.push_back(b());
    wa.push_back(a());
  } while (wa.size() < 9 &&
           seconds_since(start) * (1.0 + 1.0 / wa.size()) < budget_s);
  return median(wa) / median(wb) - 1.0;
}

int run_traced(const std::string& name, const Workload& workload,
               std::uint64_t seed, const std::string& spans_out) {
  const std::vector<sim::RunSpec> specs = parse_specs(workload);
  const std::uint64_t base_seed = sim::mix_seed(seed, 0);

  // 1. A plain pass (telemetry off) for the resolved backends and widths,
  //    outer-pool utilization, kernel stats and the fixed-seed totals.
  sim::BatchOptions plain_options;
  plain_options.threads = workload.outer;
  plain_options.base_seed = base_seed;
  const auto plain_start = Clock::now();
  const std::vector<sim::SpecResult> plain =
      sim::BatchRunner(plain_options).run(specs);
  const double plain_wall = seconds_since(plain_start);
  std::printf("plain pass wall_s=%.4f\n", plain_wall);
  print_provenance(name, seed, plain);
  const Tally batch_tally = tally(plain);
  print_totals("batch", base_seed, batch_tally);

  std::uint32_t auto_per_step = 0;
  double kernel_build_ms = 0.0;
  for (const sim::SpecResult& r : plain) {
    if (r.spec.backend == sim::EngineKind::kAuto &&
        r.backend_resolved == sim::EngineKind::kDense) {
      ++auto_per_step;
    }
    if (r.kernel_compiled) kernel_build_ms += r.kernel_stats.build_ms;
  }
  const std::uint32_t outer = plain.front().manifest.threads;

  // 2. Set-up and trials, layer by layer, inside the benchmark's spans.
  const auto epoch = Clock::now();
  std::vector<SpanLog> logs;
  for (std::uint32_t t = 0; t <= outer; ++t) logs.emplace_back(epoch, t);
  std::vector<std::unique_ptr<TracedSpec>> traced;
  {
    SpanLog& log = logs[0];
    const ScopedSpan setup_span(log, "setup");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto ts = std::make_unique<TracedSpec>();
      ts->spec = specs[i];
      ts->spec.probes.clear();
      ts->backend = plain[i].backend_resolved;
      ts->run_threads = plain[i].manifest.run_threads;
      ts->seed = sim::spec_seed(specs[i], base_seed, i);
      ts->registry = std::make_unique<metrics::MetricsRegistry>();
      {
        const ScopedSpan span(log, "sim.protocol_create");
        ts->protocol = sim::ProtocolRegistry::global().create(
            ts->spec.protocol, ts->spec.params);
      }
      {
        // Default options, as the BatchRunner compiles without a registry:
        // sparse-hit counting would put a shared atomic on the hot path.
        const ScopedSpan span(log, "kernel.compile");
        ts->kernel =
            std::make_shared<const kernel::CompiledProtocol>(*ts->protocol);
      }
      pp::EngineOptions options = ts->spec.engine;
      options.metrics = ts->registry.get();
      options.run_threads = ts->run_threads;
      if (ts->backend != sim::EngineKind::kAgentArray) {
        ts->lumping = sim::scheduler_lumping(ts->spec, ts->protocol.get());
      }
      if (ts->backend == sim::EngineKind::kFluid) {
        const ScopedSpan span(log, "fluid.engine");
        ts->fluid = std::make_unique<fluid::FluidEngine>(
            ts->kernel, options, fluid_options(ts->spec), *ts->lumping);
      } else if (ts->backend != sim::EngineKind::kAgentArray) {
        const ScopedSpan span(log, "dense.engine");
        ts->dense = std::make_unique<dense::DenseEngine>(
            ts->kernel, options,
            ts->backend == sim::EngineKind::kDenseBatched
                ? dense::DenseMode::kBatched
                : dense::DenseMode::kPerStep,
            *ts->lumping);
      }
      traced.push_back(std::move(ts));
    }
  }
  struct Job {
    std::uint32_t spec;
    std::uint32_t trial;
  };
  std::vector<Job> jobs;
  for (std::uint32_t i = 0; i < traced.size(); ++i) {
    for (std::uint32_t t = 0; t < traced[i]->spec.trials; ++t) {
      jobs.push_back({i, t});
    }
  }
  std::vector<sim::TrialOutcome> outcomes(jobs.size());
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&](SpanLog& log) {
    for (std::size_t j = cursor.fetch_add(1); j < jobs.size();
         j = cursor.fetch_add(1)) {
      outcomes[j] = traced_trial(*traced[jobs[j].spec],
                                 static_cast<int>(jobs[j].spec), jobs[j].trial,
                                 log);
    }
  };
  {
    std::vector<std::thread> pool;
    for (std::uint32_t t = 1; t <= outer; ++t) {
      pool.emplace_back(worker, std::ref(logs[t]));
    }
    for (std::thread& thread : pool) thread.join();
  }
  std::printf("traced drive wall_s=%.4f\n", seconds_since(epoch));
  Tally traced_tally;
  for (const sim::TrialOutcome& outcome : outcomes) traced_tally.add(outcome);
  print_totals("traced", base_seed, traced_tally);
  const bool totals_match = traced_tally == batch_tally;
  std::printf("traced totals %s the batch totals\n",
              totals_match ? "match" : "DIFFER FROM");
  if (!spans_out.empty()) write_spans(spans_out, logs);

  const std::map<std::string, double> self = self_ms(logs);
  const auto self_of = [&](const std::string& key) {
    return value_or_zero(self, key);
  };
  const double trial_wall_ms = total_ms(logs, "trial");
  const double attributed = trial_wall_ms - self_of("trial");
  const double coverage = trial_wall_ms > 0.0 ? attributed / trial_wall_ms : 0.0;
  std::printf("self_ms");
  for (const auto& [key, ms] : self) std::printf(" %s=%.3f", key.c_str(), ms);
  std::printf("\ncoverage %.4f of %.3f ms traced trial wall time\n", coverage,
              trial_wall_ms);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    std::printf("layers spec=%zu backend=%s", i,
                sim::to_string(traced[i]->backend).c_str());
    for (const auto& [key, ms] : self_ms(logs, static_cast<int>(i))) {
      std::printf(" %s=%.3f", key.c_str(), ms);
    }
    std::printf(" | %s\n", traced[i]->spec.to_string().c_str());
  }
  if (coverage < 0.95) {
    std::printf("coverage below 0.95: %.3f ms of trial time is unattributed "
                "(trial bookkeeping between layer spans)\n",
                self_of("trial"));
  }

  // 3. Engine counters read through EngineOptions::metrics.
  std::map<std::string, double> counters;
  std::vector<double> utilizations;
  double per_step_ms = 0.0, per_step_interactions = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (traced[jobs[j].spec]->backend == sim::EngineKind::kDense) {
      per_step_interactions +=
          static_cast<double>(outcomes[j].run.interactions);
    }
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i]->backend == sim::EngineKind::kDense) {
      per_step_ms += self_ms(logs, static_cast<int>(i))["dense.run"];
    }
  }
  for (const auto& ts : traced) {
    for (const metrics::MetricsRegistry::Sample& s :
         ts->registry->snapshot()) {
      if (s.kind == "counter") counters[s.name] += s.value;
      if (s.kind == "gauge" && s.name == "dense.parallel_utilization") {
        utilizations.push_back(s.value);
      }
    }
  }
  const auto counter = [&](const std::string& key) {
    return value_or_zero(counters, key);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // 4. Layer entry points timed in isolation at this workload's sizes.
  double lookup_ns_total = 0.0, lookups = 0.0;
  double sparse_ns_total = 0.0, sparse_lookups = 0.0;
  double mvhg_us = 0.0, drift_us = 0.0;
  std::uint64_t sink = 0;
  for (const auto& ts : traced) {
    std::vector<pp::StateId> states(ts->reached.begin(), ts->reached.end());
    const std::size_t pairs = states.size() * states.size();
    if (pairs > 0) {
      const std::size_t reps = std::max<std::size_t>(1, 2'000'000 / pairs);
      const double us = time_us(reps, [&]() {
        for (const pp::StateId a : states) {
          for (const pp::StateId b : states) {
            const pp::Transition tr = ts->kernel->transition(a, b);
            sink += tr.initiator ^ tr.responder;
          }
        }
      });
      lookup_ns_total += us * 1e3;
      lookups += static_cast<double>(pairs);
      if (ts->kernel->stats().kind == kernel::TableKind::kSparse) {
        sparse_ns_total += us * 1e3;
        sparse_lookups += static_cast<double>(pairs);
      }
    }
    if (ts->dense != nullptr && mvhg_us == 0.0) {
      util::Rng rng(seed);
      const analysis::Workload w = ts->spec.workload.materialize(
          rng, ts->spec.n, ts->protocol->num_colors());
      const dense::DenseConfig config =
          dense::DenseConfig::from_workload(*ts->protocol, w);
      std::vector<std::uint64_t> out(config.counts.size());
      const auto draws = static_cast<std::uint64_t>(
          std::sqrt(static_cast<double>(config.n())));
      mvhg_us = time_us(20000, [&]() {
        dense::multivariate_hypergeometric(rng, config.counts, draws, out);
        sink += out[0];
      });
    }
    if (ts->fluid != nullptr && drift_us == 0.0) {
      const std::size_t dim =
          std::max<std::size_t>(ts->lumping->num_urns(), 1) *
          ts->fluid->drift().num_species();
      std::vector<double> x(dim, 1.0 / static_cast<double>(dim));
      std::vector<double> dxdt(dim);
      drift_us = time_us(20000, [&]() {
        ts->fluid->eval_drift(x, dxdt);
        sink += dxdt[0] > 0.0;
      });
    }
  }
  // A region round trip whose `width` tasks each wait (up to 1 ms) until
  // all have started, so it includes waking the parked helpers.
  const auto pool_region_us = [&](unsigned width) {
    return time_us(5000, [&]() {
      std::atomic<unsigned> started{0};
      util::ThreadPool::shared().parallel_for(
          width, width, [&](std::size_t) {
            started.fetch_add(1);
            const auto t0 = Clock::now();
            while (started.load() < width &&
                   Clock::now() - t0 < std::chrono::milliseconds(1)) {
            }
          });
    });
  };
  const double pool_w2 = pool_region_us(2);
  const double pool_w4 = pool_region_us(4);

  // 5. Costs measured against a twin run through the BatchRunner. The
  //    instrumented twin also yields the sparse-cache hit counts, which the
  //    BatchRunner only collects with a registry attached.
  double sparse_hits = 0.0, sparse_misses = 0.0;
  const double trace_overhead = overhead(
      [&]() {
        metrics::MetricsRegistry registry;
        trace::Tracer tracer;
        const double wall =
            batch_wall(specs, workload.outer, base_seed, &registry, &tracer);
        sparse_hits = static_cast<double>(
            registry.counter("kernel.sparse_hits").value());
        sparse_misses = static_cast<double>(
            registry.counter("kernel.sparse_filled").value() +
            registry.counter("kernel.sparse_overflow").value());
        return wall;
      },
      [&]() { return batch_wall(specs, workload.outer, base_seed); },
      std::max(6.0, 4.0 * plain_wall));
  double probe_overhead = 0.0;
  for (const sim::RunSpec& spec : specs) {
    if (spec.probes.empty()) continue;
    sim::RunSpec bare = spec;
    bare.probes.clear();
    probe_overhead = overhead(
        [&]() { return batch_wall({spec}, workload.outer, base_seed); },
        [&]() { return batch_wall({bare}, workload.outer, base_seed); }, 6.0);
  }
  // Pooled inner width against serial, on specs where the BatchRunner
  // moved cores inside the runs.
  double pooled_wall_ratio = 0.0;
  {
    std::vector<sim::RunSpec> serial = specs;
    bool pooled = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (plain[i].manifest.run_threads > 1 &&
          plain[i].backend_resolved == sim::EngineKind::kDenseBatched) {
        serial[i].run_threads = 1;
        pooled = true;
      }
    }
    if (pooled) {
      pooled_wall_ratio =
          1.0 + overhead(
                    [&]() {
                      return batch_wall(specs, workload.outer, base_seed);
                    },
                    [&]() {
                      return batch_wall(serial, workload.outer, base_seed);
                    },
                    std::max(6.0, 4.0 * plain_wall));
    }
  }
  std::printf("checksum %llu\n", static_cast<unsigned long long>(sink));

  const double dense_run_ms = self_of("dense.run");
  double util_mean = 0.0;
  for (const double u : utilizations) {
    util_mean += u / static_cast<double>(utilizations.size());
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i]->backend != sim::EngineKind::kFluid) continue;
    const std::map<std::string, double> spec_self =
        self_ms(logs, static_cast<int>(i));
    const double m = value_or_zero(spec_self, "analysis.materialize");
    const double f = value_or_zero(spec_self, "fluid.run");
    std::printf("finding: %s dominates spec %zu (materialize %.1f ms, fluid "
                "run %.1f ms) | %s\n",
                m > f ? "analysis.materialize_ms" : "fluid.run_ms", i, m, f,
                traced[i]->spec.to_string().c_str());
  }
  if (pooled_wall_ratio > 0.0) {
    std::printf(
        "finding: pooled inner width takes %.2fx the serial wall time with "
        "dense.parallel_utilization %.3f over %.0f parallel epochs\n",
        pooled_wall_ratio, util_mean, counter("dense.parallel_epochs"));
  }

  const std::vector<Metric> out = {
      {"sim.pool_utilization", plain.front().manifest.utilization, "ratio"},
      {"sim.auto_per_step_specs", static_cast<double>(auto_per_step), "count"},
      {"sim.grade_ms", self_of("sim.grade_run"), "ms"},
      {"analysis.materialize_ms", self_of("analysis.materialize"), "ms"},
      {"kernel.build_ms", kernel_build_ms, "ms"},
      {"kernel.lookup_ns", ratio(lookup_ns_total, lookups), "ns"},
      {"kernel.sparse_lookup_ns", ratio(sparse_ns_total, sparse_lookups),
       "ns"},
      {"kernel.sparse_hit_ratio",
       ratio(sparse_hits, sparse_hits + sparse_misses), "ratio"},
      {"pp.population_ms", self_of("pp.population"), "ms"},
      {"pp.run_ms", self_of("pp.run"), "ms"},
      {"pp.silence_checks_per_interaction",
       ratio(counter("engine.silence_checks"), counter("engine.interactions")),
       "ratio"},
      {"dense.config_ms", self_of("dense.config"), "ms"},
      {"dense.run_ms", dense_run_ms, "ms"},
      {"dense.epochs", counter("dense.epochs"), "count"},
      {"dense.fast_forward_jumps", counter("dense.fast_forward_jumps"),
       "count"},
      {"dense.state_changes", counter("dense.state_changes"), "count"},
      {"dense.ff_share",
       ratio(counter("dense.fast_forward_interactions"),
             counter("dense.interactions")),
       "ratio"},
      {"dense.us_per_epoch",
       ratio(dense_run_ms * 1e3, counter("dense.epochs")),
       "us"},
      {"dense.mvhg_us", mvhg_us, "us"},
      {"dense.per_step_rate", ratio(per_step_interactions, per_step_ms / 1e3),
       "1/s"},
      {"dense.parallel_utilization", util_mean, "ratio"},
      {"dense.parallel_epochs", counter("dense.parallel_epochs"), "count"},
      {"dense.pooled_wall_ratio", pooled_wall_ratio, "ratio"},
      {"util.pool_region_us_w2", pool_w2, "us"},
      {"util.pool_region_us_w4", pool_w4, "us"},
      {"fluid.config_ms", self_of("fluid.config"), "ms"},
      {"fluid.run_ms", self_of("fluid.run"), "ms"},
      {"fluid.ode_steps_accepted", counter("fluid.ode_steps_accepted"),
       "count"},
      {"fluid.ode_steps_rejected", counter("fluid.ode_steps_rejected"),
       "count"},
      {"fluid.accept_ratio",
       ratio(counter("fluid.ode_steps_accepted"),
             counter("fluid.ode_steps_accepted") +
                 counter("fluid.ode_steps_rejected")),
       "ratio"},
      {"fluid.drift_us", drift_us, "us"},
      {"obs.probe_overhead", probe_overhead, "ratio"},
      {"trace.overhead", trace_overhead, "ratio"},
      {"trace.coverage", coverage, "ratio"},
  };
  const bool correct = batch_tally.wrong == 0 && traced_tally.wrong == 0 &&
                       totals_match;
  print_result(correct, traced_tally.attempted, traced_tally.failed(), out);
  return correct ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: blocks up to 32 MiB come from the heap and
  // freed memory stays mapped, so a multi-MiB kernel table rebuilt in
  // set-up reuses pages instead of page-faulting them afresh. Fault cost
  // on a virtual machine swings by tens of percent between runs, and a
  // process pays it once, not per spec. Fixed values also stop glibc's
  // dynamic threshold from making set-up depend on what passes freed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.small);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    return args.trace ? run_traced(args.workload, workload, args.seed,
                                   args.spans_out)
                      : run_end_to_end(args.workload, workload, args.seed,
                                       args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
