// E12 — approximation error, two claims in one binary.
//
// Section 1 (why always-correct matters): the 3-state approximate majority
// baseline (Angluin–Aspnes–Eisenstat) converges fast but decides the
// MINORITY with real probability at small margins; Circles never errs on
// the same instances. Error rate vs margin, k = 2. Both protocols share
// per-margin RunSpec seeds, so they face identical schedule streams.
//
// Section 2 (why the fluid tier is trustworthy): the mean-field ODE is the
// n -> infinity limit of the count chain, so its trajectory should track the
// dense_batched median within O(1/sqrt(n)). For a grid of n the section runs
// the same circles instance on both backends with an opinion-counts trace,
// compares the fluid curve with the dense per-trial median at the points of
// the dense envelope grid, and reports the worst per-agent gap; the verdict
// line asserts the gap shrinks with n and lands under a fixed bound at the
// largest n (EXPERIMENTS.md quotes it, CI greps it).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using circles::obs::TraceTable;

/// Piecewise-linear lookup of a trace column at x (clamped to the grid
/// ends). The fluid trajectory is a smooth curve sampled on a log grid;
/// linear interpolation keeps the comparison from charging the sampling
/// resolution to the integrator.
double interp(const TraceTable& table, std::size_t x_col, std::size_t v_col,
              double x) {
  const std::size_t rows = table.num_rows();
  if (x <= table.at(0, x_col)) return table.at(0, v_col);
  for (std::size_t row = 1; row < rows; ++row) {
    const double x1 = table.at(row, x_col);
    if (x1 < x) continue;
    const double x0 = table.at(row - 1, x_col);
    const double v0 = table.at(row - 1, v_col);
    const double v1 = table.at(row, v_col);
    if (x1 <= x0) return v1;
    return v0 + (v1 - v0) * (x - x0) / (x1 - x0);
  }
  return table.at(rows - 1, v_col);
}

/// Worst absolute per-agent gap between the fluid trajectory and the dense
/// per-trial median, over every opinion column and every point of the dense
/// envelope grid. Both sides are read off the per-trial traces at their
/// actual sample positions, interpolated linearly between samples (a
/// finished run holds its final counts). The envelopes themselves will not
/// do: they carry each sample forward to the next grid point, and the two
/// backends' samples and grids fall differently, so comparing envelopes
/// charges up to one log-grid interval of trajectory slope to the gap — a
/// floor near 0.009 per agent at every n that hides the O(1/sqrt(n)) model
/// error this section measures.
double worst_opinion_gap(const circles::sim::SpecResult& fluid,
                         const circles::sim::SpecResult& dense,
                         std::uint64_t n, std::uint32_t k) {
  const TraceTable& grid = dense.trace_envelopes.at(0);
  const std::size_t grid_x = grid.column_index("interactions");
  const TraceTable& fluid_trace = fluid.trials.at(0).traces.at(0);
  const std::size_t fluid_x = fluid_trace.column_index("interactions");
  const TraceTable& dense_header = dense.trials.at(0).traces.at(0);
  const std::size_t dense_x = dense_header.column_index("interactions");
  double worst = 0.0;
  std::vector<double> values;
  for (std::uint32_t s = 0; s < k; ++s) {
    const std::string column = "out_" + std::to_string(s);
    const std::size_t fluid_v = fluid_trace.column_index(column);
    const std::size_t dense_v = dense_header.column_index(column);
    for (std::size_t row = 0; row < grid.num_rows(); ++row) {
      const double x = grid.at(row, grid_x);
      values.clear();
      for (const circles::sim::TrialRecord& rec : dense.trials) {
        values.push_back(interp(rec.traces.at(0), dense_x, dense_v, x));
      }
      std::sort(values.begin(), values.end());
      const double median = circles::util::quantile_sorted(values, 0.5);
      const double gap =
          std::abs(interp(fluid_trace, fluid_x, fluid_v, x) - median);
      worst = std::max(worst, gap / static_cast<double>(n));
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace circles;
  util::Cli cli(argc, argv);
  const auto trials = static_cast<std::uint32_t>(
      cli.int_flag("trials", 200, "trials per margin"));
  const auto n = static_cast<std::uint64_t>(
      cli.int_flag("n", 100, "population size"));
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 11, "rng seed"));
  const bool smoke = cli.bool_flag(
      "smoke", false, "CI preset: trim the fluid-vs-dense grid to seconds");
  const auto batch = bench::batch_options(cli, seed);
  cli.finish();

  bench::print_header("E12",
                      "always-correct vs w.h.p. — 3-state approximate "
                      "majority error rate vs margin (k=2, n=" +
                          std::to_string(n) + ")");

  const std::vector<std::uint64_t> margins{2, 6, 10, 20, 40};
  std::vector<sim::RunSpec> specs;
  for (const std::uint64_t margin : margins) {
    const std::vector<std::uint64_t> counts{(n + margin) / 2,
                                            n - (n + margin) / 2};
    for (const char* protocol :
         {"approx_majority_3state", "circles"}) {
      sim::RunSpec spec;
      spec.protocol = protocol;
      spec.params.k = 2;
      spec.workload = sim::WorkloadSpec::explicit_counts(counts);
      spec.trials = trials;
      spec.seed = sim::mix_seed(seed, margin);  // shared per margin
      specs.push_back(std::move(spec));
    }
  }

  const auto results = sim::BatchRunner(batch).run(specs);

  util::Table table({"margin", "approx errors", "approx error rate",
                     "approx mean interactions", "circles errors",
                     "circles mean interactions"});
  bool circles_perfect = true;
  bool approx_errs_somewhere = false;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const sim::SpecResult& approx = results[2 * i];
    const sim::SpecResult& circles = results[2 * i + 1];
    const std::uint32_t approx_errors = approx.trial_count - approx.correct;
    const std::uint32_t circles_errors = circles.trial_count - circles.correct;
    circles_perfect = circles_perfect && circles_errors == 0;
    approx_errs_somewhere = approx_errs_somewhere || approx_errors > 0;
    table.add_row({util::Table::num(margins[i]),
                   util::Table::num(std::uint64_t{approx_errors}),
                   util::Table::percent(
                       double(approx_errors) / approx.trial_count, 1),
                   util::Table::num(approx.interactions.mean, 0),
                   util::Table::num(std::uint64_t{circles_errors}),
                   util::Table::num(circles.interactions.mean, 0)});
  }
  table.print("error rate vs margin (expected: approx errs at small margins, "
              "decays with margin; Circles: zero errors)");
  bench::print_kernel_stats(results);

  const bool margins_pass = circles_perfect && approx_errs_somewhere;

  // --- Section 2: fluid-vs-dense_batched error vs n -------------------------
  //
  // Same circles k=3 instance per n (well-separated counts n/2 : 3n/10 :
  // rest — a near-tied sub-race would park the fluctuation-free ODE, see
  // src/fluid/fluid_engine.hpp), opinion-counts trace on a shared log grid.
  // The dense spec runs a handful of seeded trials and contributes its p50
  // envelope; the fluid spec is deterministic, one trial.
  std::vector<std::uint64_t> fluid_ns{10'000, 100'000, 1'000'000};
  std::uint32_t dense_trials = 8;
  if (smoke) {
    fluid_ns = {10'000, 100'000};
    dense_trials = 4;
  }

  std::vector<sim::RunSpec> fluid_specs;
  for (const std::uint64_t fn : fluid_ns) {
    const std::vector<std::uint64_t> counts{fn / 2, 3 * fn / 10,
                                            fn - fn / 2 - 3 * fn / 10};
    for (const sim::EngineKind backend :
         {sim::EngineKind::kDenseBatched, sim::EngineKind::kFluid}) {
      sim::RunSpec spec;
      spec.protocol = "circles";
      spec.params.k = 3;
      spec.workload = sim::WorkloadSpec::explicit_counts(counts);
      spec.backend = backend;
      spec.trials = backend == sim::EngineKind::kFluid ? 1 : dense_trials;
      spec.seed = sim::mix_seed(seed, fn);  // shared per n
      spec.probes.push_back(obs::ProbeSpec{
          .kind = obs::ProbeSpec::Kind::kCounts,
          .grid = obs::GridSpec{.spacing = obs::GridSpec::Spacing::kLog,
                                .points = 512}});
      fluid_specs.push_back(std::move(spec));
    }
  }
  const auto fluid_results = sim::BatchRunner(batch).run(fluid_specs);

  util::Table fluid_table({"n", "max |fluid - dense p50| / n",
                           "time gap", "dense mean interactions",
                           "fluid interactions"});
  std::vector<double> gaps;
  bool fluid_all_correct = true;
  for (std::size_t i = 0; i < fluid_ns.size(); ++i) {
    const sim::SpecResult& dense = fluid_results[2 * i];
    const sim::SpecResult& fluid = fluid_results[2 * i + 1];
    fluid_all_correct = fluid_all_correct &&
                        dense.correct == dense.trial_count &&
                        fluid.correct == fluid.trial_count;
    const double gap = worst_opinion_gap(fluid, dense, fluid_ns[i], 3);
    gaps.push_back(gap);
    const double time_gap =
        std::abs(fluid.interactions.mean - dense.interactions.mean) /
        dense.interactions.mean;
    fluid_table.add_row(
        {util::Table::num(fluid_ns[i]), util::Table::num(gap, 4),
         util::Table::percent(time_gap, 2),
         util::Table::num(dense.interactions.mean, 0),
         util::Table::num(fluid.interactions.mean, 0)});
  }
  fluid_table.print(
      "fluid-vs-dense_batched trajectory gap vs n (expected: the opinion "
      "gap shrinks with n — the O(1/sqrt(n)) finite-size error)");

  // The bound EXPERIMENTS.md and CI quote: at the largest n of the grid the
  // worst per-agent opinion gap stays under 2% of the population, and the
  // gap at the largest n improves on the smallest.
  const double bound = 0.02;
  const bool fluid_pass = fluid_all_correct && gaps.back() <= bound &&
                          gaps.back() < gaps.front();
  std::printf("\nfluid-vs-dense agreement: %s (max per-agent gap %.4f at "
              "n=%llu, bound %.2f)\n",
              fluid_pass ? "PASS" : "FAIL", gaps.back(),
              static_cast<unsigned long long>(fluid_ns.back()), bound);

  const bool pass = margins_pass && fluid_pass;
  return bench::verdict(
      pass, pass ? "Circles: 0 errors everywhere; approximate majority pays "
                   "for its speed at small margins; fluid tier tracks the "
                   "dense median within the stated bound"
                 : margins_pass ? "fluid-vs-dense gap outside the bound"
                                : "unexpected outcome pattern");
}
