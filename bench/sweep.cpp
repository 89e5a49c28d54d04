// Generic sweep driver: any protocol x k x n x scheduler grid straight from
// the command line, no code changes. The whole binary is specs_from_flags +
// BatchRunner + a table:
//
//   $ ./build/bench/sweep --protocol=circles,tie_report --k=2,4 \
//       --n=100,1000 --scheduler=uniform,shuffled --trials=10 --threads=8
//
// Prints one row per grid cell with correctness, silence and interaction
// stats. Exit code 0 iff every cell was 100% correct (use --workload=tie:2
// with tie-capable protocols and --tie_aware for tie grading).
//
// Trajectory recording (obs::): --trace attaches probes to every cell, e.g.
//   --trace=energy@log:256,counts --trace-out=traces/
// writes one cross-trial envelope per (cell, probe) as CSV + JSONL under
// traces/. --sample-points=0.1,0.5,0.9 overrides every probe's grid with
// explicit horizon fractions.
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "exp_common.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace circles;
  util::Cli cli(argc, argv);
  auto sweep = sim::specs_from_flags(cli);
  const bool tie_aware = cli.bool_flag(
      "tie_aware", false, "grade ties against the TIE symbol (= k)");
  if (!cli.string_flag("kernel", "", "removed: kernels are always compiled")
           .empty()) {
    throw std::invalid_argument(
        "--kernel was removed (kernels are always compiled); drop the flag");
  }
  const std::string trace_flag = cli.string_flag(
      "trace", "",
      "comma-separated count-trajectory probes per cell (counts, states, "
      "energy, active, convergence; optional @grid like energy@log:256) — "
      "for Chrome-trace span timelines use --spans-out instead");
  const std::string trace_out = cli.string_flag(
      "trace-out", "", "directory for per-cell trace envelopes (CSV + JSONL)");
  const std::string spans_out = cli.string_flag(
      "spans-out", "",
      "directory for per-cell span timelines (spec<i>.trace.json, Chrome "
      "Trace Event Format; open in chrome://tracing or ui.perfetto.dev) — "
      "span timelines, not the --trace count probes; failing trials also "
      "dump flight-recorder REPRO lines to stderr");
  const std::string repro_spec = cli.string_flag(
      "spec", "",
      "replay exactly one trial from a full RunSpec string (as printed by "
      "REPRO lines); needs --trial-seed and ignores the sweep grid");
  const std::string repro_seed_text = cli.string_flag(
      "trial-seed", "",
      "the replayed trial's exact seed, copied from the REPRO line");
  const std::vector<double> sample_points = cli.double_list_flag(
      "sample-points", "",
      "explicit sample fractions of the budget overriding every probe grid");
  const std::string metrics_out = cli.string_flag(
      "metrics-out", "",
      "directory for per-cell telemetry: spec<i>.jsonl counters/timers plus "
      "spec<i>.manifest.json provenance");
  const bool progress = cli.bool_flag(
      "progress", false,
      "stderr heartbeat every 2s: trials done, interactions/sec");
  auto batch = bench::batch_options(cli, sweep.base_seed);
  cli.finish();

  // Seed-exact replay of one (spec, trial): the flight recorder's REPRO
  // lines point here. Prints the verdict and final counts in the dump's
  // exact format so a failure and its replay diff cleanly.
  if (!repro_spec.empty() || !repro_seed_text.empty()) {
    if (repro_spec.empty() || repro_seed_text.empty()) {
      throw std::invalid_argument(
          "--spec and --trial-seed go together: both come from one REPRO "
          "line");
    }
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(repro_seed_text.c_str(), &end, 10);
    if (end == repro_seed_text.c_str() || *end != '\0') {
      throw std::invalid_argument(
          "--trial-seed expects the unsigned integer from the REPRO line");
    }
    const sim::RunSpec spec = sim::RunSpec::parse(repro_spec);
    if (spec.backend == sim::EngineKind::kAuto) {
      throw std::invalid_argument(
          "--spec replay needs a concrete backend= (REPRO lines bake the "
          "resolved one in); backend=auto would leave the engine choice to "
          "the batch runner");
    }
    const sim::TrialRecord rec = sim::BatchRunner::execute_trial(spec, seed);
    bench::print_header("SWEEP REPRO",
                        "seed-exact single-trial replay of a REPRO line");
    std::printf("spec: %s\n", spec.to_string().c_str());
    std::printf("backend: %s\n", sim::to_string(spec.backend).c_str());
    std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));
    std::printf("verdict: correct=%d silent=%d budget_exhausted=%d "
                "interactions=%llu state_changes=%llu\n",
                rec.outcome.correct ? 1 : 0, rec.outcome.run.silent ? 1 : 0,
                rec.outcome.run.budget_exhausted ? 1 : 0,
                static_cast<unsigned long long>(rec.outcome.run.interactions),
                static_cast<unsigned long long>(
                    rec.outcome.run.state_changes));
    std::printf("final outputs:");
    for (const std::uint64_t count : rec.outcome.run.final_outputs) {
      std::printf(" %llu", static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    return bench::verdict(rec.outcome.correct,
                          rec.outcome.correct
                              ? "replayed trial graded correct"
                              : "replayed trial reproduced the failure");
  }

  // --trace splits on commas, but frac: grids legitimately contain commas
  // ("energy@frac:0.1,0.9"): a purely numeric token continues the previous
  // probe's grid (no probe kind is a number), everything else starts one.
  std::vector<std::string> probe_texts;
  for (const std::string& token : util::split_commas(trace_flag)) {
    char* end = nullptr;
    (void)std::strtod(token.c_str(), &end);
    const bool numeric = end != token.c_str() && *end == '\0';
    if (numeric && !probe_texts.empty()) {
      probe_texts.back() += "," + token;
    } else {
      probe_texts.push_back(token);
    }
  }
  std::vector<obs::ProbeSpec> probes;
  for (const std::string& text : probe_texts) {
    probes.push_back(obs::ProbeSpec::parse(text));
  }
  if (!sample_points.empty()) {
    if (probes.empty()) {
      throw std::invalid_argument("--sample-points needs --trace probes");
    }
    for (const double f : sample_points) {
      // Same domain GridSpec::parse enforces for frac: grids, so the spec
      // still round-trips through to_string()/parse().
      if (!(f > 0.0) || f > 1.0) {
        throw std::invalid_argument(
            "--sample-points fractions must lie in (0, 1]");
      }
    }
    for (auto& probe : probes) probe.grid.fractions = sample_points;
  }
  if (!trace_out.empty() && probes.empty()) {
    throw std::invalid_argument("--trace-out needs --trace probes");
  }

  if (tie_aware) {
    for (auto& spec : sweep.specs) spec.grading = sim::Grading::kTieAware;
  }
  for (auto& spec : sweep.specs) spec.probes = probes;

  if (!metrics_out.empty()) {
    std::filesystem::create_directories(metrics_out);
    for (std::size_t i = 0; i < sweep.specs.size(); ++i) {
      sweep.specs[i].metrics_out =
          metrics_out + "/spec" + std::to_string(i) + ".jsonl";
    }
  }
  if (!spans_out.empty()) {
    std::filesystem::create_directories(spans_out);
    for (std::size_t i = 0; i < sweep.specs.size(); ++i) {
      sweep.specs[i].spans_out =
          spans_out + "/spec" + std::to_string(i) + ".trace.json";
    }
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

  bench::print_header("SWEEP", "declarative protocol sweep (" +
                                   std::to_string(sweep.specs.size()) +
                                   " grid cells)");

  const auto results = sim::BatchRunner(batch).run(sweep.specs);

  util::Table table({"protocol", "k", "n", "scheduler", "backend", "workload",
                     "trials", "correct", "silent", "mean interactions",
                     "p90 interactions", "kernel"});
  bool all_correct = true;
  for (const sim::SpecResult& r : results) {
    all_correct = all_correct && r.all_correct();
    // auto cells show what the runner actually picked.
    const std::string backend_cell =
        r.spec.backend == sim::EngineKind::kAuto
            ? "auto:" + sim::to_string(r.backend_resolved)
            : sim::to_string(r.backend_resolved);
    table.add_row({r.spec.protocol,
                   util::Table::num(std::uint64_t{r.spec.params.k}),
                   util::Table::num(r.spec.effective_n()),
                   pp::to_string(r.spec.scheduler),
                   backend_cell,
                   r.spec.workload.to_string(),
                   util::Table::num(std::uint64_t{r.trial_count}),
                   util::Table::percent(r.correct_rate(), 0),
                   util::Table::percent(r.silent_rate(), 0),
                   util::Table::num(r.interactions.mean, 0),
                   util::Table::num(r.interactions.p90, 0),
                   kernel::to_string(r.kernel_stats.kind)});
  }
  table.print("sweep results");
  // One-time compile cost per distinct kernel, so table-build time is
  // visible next to the simulation numbers instead of hiding inside them.
  bench::print_kernel_stats(results);

  if (!metrics_out.empty()) {
    std::printf("\nwrote %zu metric sinks (+manifests) to %s\n",
                results.size(), metrics_out.c_str());
  }
  if (!spans_out.empty()) {
    std::printf("\nwrote %zu span timelines to %s (chrome://tracing / "
                "ui.perfetto.dev)\n",
                results.size(), spans_out.c_str());
  }

  if (!trace_out.empty()) {
    std::filesystem::create_directories(trace_out);
    std::size_t written = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sim::SpecResult& r = results[i];
      for (std::size_t j = 0; j < r.trace_envelopes.size(); ++j) {
        const std::string stem =
            trace_out + "/spec" + std::to_string(i) + "_probe" +
            std::to_string(j) + "_" + obs::to_string(r.spec.probes[j].kind);
        r.trace_envelopes[j].write_csv(stem + ".csv");
        r.trace_envelopes[j].write_jsonl(stem + ".jsonl");
        written += 2;
      }
    }
    std::printf("\nwrote %zu trace envelope files to %s\n", written,
                trace_out.c_str());
  }

  return bench::verdict(all_correct, all_correct
                                         ? "every cell 100% correct"
                                         : "some cells had failures");
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
