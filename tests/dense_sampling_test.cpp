#include "dense/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace circles::dense {
namespace {

TEST(LogFactorialTest, MatchesDirectSummation) {
  double acc = 0.0;
  for (std::uint64_t x = 1; x <= 300; ++x) {
    acc += std::log(static_cast<double>(x));
    EXPECT_NEAR(log_factorial(x), acc, 1e-9) << "x=" << x;
  }
  EXPECT_EQ(log_factorial(0), 0.0);
}

TEST(LogFactorialTest, StirlingAgreesWithLgamma) {
  for (const std::uint64_t x :
       {std::uint64_t{2048}, std::uint64_t{5000}, std::uint64_t{1000000},
        std::uint64_t{100000000}}) {
    const double expected = std::lgamma(static_cast<double>(x) + 1.0);
    EXPECT_NEAR(log_factorial(x) / expected, 1.0, 1e-12) << "x=" << x;
  }
}

TEST(LogFactorialTest, TableMeetsTheSeriesAtBothEnds) {
  // The table runs to 16383 and the series takes over at 16384; where both
  // are valid (from 2048 on) they agree to the series' own accuracy, and
  // the hand-over is seamless.
  for (const std::uint64_t x : {std::uint64_t{2047}, std::uint64_t{2048},
                                std::uint64_t{16383}, std::uint64_t{16384}}) {
    EXPECT_NEAR(log_factorial(x) / log_factorial_series(x), 1.0, 1e-14)
        << "x=" << x;
  }
  EXPECT_NEAR((log_factorial(16383) + std::log(16384.0)) /
                  log_factorial(16384),
              1.0, 1e-14);
}

TEST(LogFactorialTest, TableMatchesLgammaSpotValues) {
  for (const std::uint64_t x :
       {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{170},
        std::uint64_t{1000}, std::uint64_t{4096}, std::uint64_t{10000},
        std::uint64_t{16383}}) {
    const double expected = std::lgamma(static_cast<double>(x) + 1.0);
    EXPECT_NEAR(log_factorial(x), expected, 1e-14 * std::max(expected, 1.0))
        << "x=" << x;
  }
}

TEST(LogChooseTest, SmallValuesExact) {
  EXPECT_NEAR(log_choose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_choose(10, 5), std::log(252.0), 1e-12);
  EXPECT_EQ(log_choose(7, 0), 0.0);
  EXPECT_EQ(log_choose(7, 7), 0.0);
}

TEST(HypergeometricTest, DegenerateSupportsNeedNoRandomness) {
  util::Rng rng(1);
  // draws == 0, successes == 0, all-success and forced draws never consume
  // the rng and return the forced value.
  EXPECT_EQ(hypergeometric(rng, 10, 4, 0), 0u);
  EXPECT_EQ(hypergeometric(rng, 10, 0, 7), 0u);
  EXPECT_EQ(hypergeometric(rng, 10, 10, 7), 7u);
  EXPECT_EQ(hypergeometric(rng, 10, 4, 10), 4u);
  // lo == hi via the pigeonhole bound: drawing 9 of 10 with 4 successes
  // forces at least 3.
  EXPECT_EQ(hypergeometric(rng, 4, 2, 4), 2u);
}

TEST(HypergeometricTest, StaysInSupport) {
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t total = 2 + rng.uniform_below(200);
    const std::uint64_t successes = rng.uniform_below(total + 1);
    const std::uint64_t draws = rng.uniform_below(total + 1);
    const std::uint64_t failures = total - successes;
    const std::uint64_t lo = draws > failures ? draws - failures : 0;
    const std::uint64_t hi = std::min(draws, successes);
    const std::uint64_t x = hypergeometric(rng, total, successes, draws);
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi);
  }
}

TEST(HypergeometricTest, MatchesExactPmfOnSmallCase) {
  // HG(N=10, K=4, m=5): pmf over x in [0..4] is C(4,x)C(6,5-x)/C(10,5).
  const double denom = 252.0;
  const std::vector<double> pmf = {6 / denom, 60 / denom, 120 / denom,
                                   60 / denom, 6 / denom};
  util::Rng rng(42);
  std::vector<double> freq(5, 0.0);
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    freq[hypergeometric(rng, 10, 4, 5)] += 1.0 / samples;
  }
  for (std::size_t x = 0; x < pmf.size(); ++x) {
    EXPECT_NEAR(freq[x], pmf[x], 0.01) << "x=" << x;
  }
}

TEST(HypergeometricTest, LargeParameterMeanIsRight) {
  // Exercises the log-gamma anchor path (all parameters above the
  // sequential cutoff): mean must be draws * successes / total.
  util::Rng rng(3);
  const std::uint64_t total = 1'000'000, successes = 300'000, draws = 2'000;
  double mean = 0.0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    mean += static_cast<double>(
                hypergeometric(rng, total, successes, draws)) /
            samples;
  }
  // stddev of one draw ~ sqrt(2000 * .3 * .7) ~ 20.5; of the mean ~ 0.15.
  EXPECT_NEAR(mean, 600.0, 1.0);
}

TEST(HypergeometricTest, DeterministicPerSeed) {
  util::Rng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(hypergeometric(a, 5000, 1234, 777),
              hypergeometric(b, 5000, 1234, 777));
  }
}

TEST(MultivariateHypergeometricTest, SumsToDrawsAndRespectsCounts) {
  util::Rng rng(5);
  const std::vector<std::uint64_t> counts = {17, 0, 5, 40, 1, 0, 30};
  std::vector<std::uint64_t> out(counts.size());
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t draws = rng.uniform_below(94);  // total is 93
    multivariate_hypergeometric(rng, counts, draws, out);
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      EXPECT_LE(out[j], counts[j]);
      sum += out[j];
    }
    EXPECT_EQ(sum, draws);
  }
}

TEST(MultivariateHypergeometricTest, MarginalMeansMatch) {
  util::Rng rng(11);
  const std::vector<std::uint64_t> counts = {100, 300, 600};
  std::vector<std::uint64_t> out(3);
  std::vector<double> mean(3, 0.0);
  const int samples = 50000;
  for (int i = 0; i < samples; ++i) {
    multivariate_hypergeometric(rng, counts, 100, out);
    for (int j = 0; j < 3; ++j) mean[j] += static_cast<double>(out[j]) / samples;
  }
  EXPECT_NEAR(mean[0], 10.0, 0.15);
  EXPECT_NEAR(mean[1], 30.0, 0.25);
  EXPECT_NEAR(mean[2], 60.0, 0.25);
}

TEST(CollisionFreeRunLengthTest, TwoAgentsAlwaysRunOne) {
  CollisionFreeRunLength dist(2);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(dist.sample(rng), 1u);
}

TEST(CollisionFreeRunLengthTest, SamplesMatchSurvivalMean) {
  const std::uint64_t n = 400;
  CollisionFreeRunLength dist(n);
  util::Rng rng(17);
  double mean = 0.0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t len = dist.sample(rng);
    ASSERT_GE(len, 1u);
    ASSERT_LE(len, dist.max_length());
    mean += static_cast<double>(len) / samples;
  }
  // E[L] = sum_j P(L >= j) = mean_length(); ~0.88 sqrt(n) ~ 17.6 here.
  EXPECT_NEAR(mean, dist.mean_length(), 0.15);
  EXPECT_GT(dist.mean_length(), 0.5 * std::sqrt(static_cast<double>(n)));
}

TEST(CollisionFreeRunLengthTest, NeverExceedsHalfThePopulation) {
  CollisionFreeRunLength dist(9);  // max floor((9-1)/2)+... = 4 free pairs
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) EXPECT_LE(dist.sample(rng), 4u);
}

TEST(LastSpecialSlotTest, BoundsAndDegenerates) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(last_special_slot(rng, 6, 6), 6u);
    const std::uint64_t m = last_special_slot(rng, 10, 3);
    EXPECT_GE(m, 3u);
    EXPECT_LE(m, 10u);
  }
}

TEST(LastSpecialSlotTest, MatchesExactDistribution) {
  // slots=5, special=2: P(max=j) = C(j-1,1)/C(5,2) = (j-1)/10, j in 2..5.
  util::Rng rng(23);
  std::map<std::uint64_t, double> freq;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    freq[last_special_slot(rng, 5, 2)] += 1.0 / samples;
  }
  EXPECT_NEAR(freq[2], 0.1, 0.01);
  EXPECT_NEAR(freq[3], 0.2, 0.01);
  EXPECT_NEAR(freq[4], 0.3, 0.01);
  EXPECT_NEAR(freq[5], 0.4, 0.01);
}

// --- null-aware contingency sampling ---------------------------------------

/// Exact law of the non-null cells: enumerates every table with the given
/// margins, weighs it by P(N) = prod r_a! prod c_j! / (L! prod N_aj!), and
/// sums the mass of tables that agree on the active cells.
std::map<std::vector<std::uint64_t>, double> exact_active_cell_law(
    const std::vector<std::uint64_t>& rows,
    const std::vector<std::uint64_t>& cols,
    const std::vector<std::uint8_t>& active) {
  const std::size_t num_rows = rows.size();
  const std::size_t num_cols = cols.size();
  std::uint64_t total = 0;
  double log_margins = 0.0;
  for (const auto r : rows) log_margins += log_factorial(r);
  for (const auto c : cols) {
    log_margins += log_factorial(c);
    total += c;
  }
  log_margins -= log_factorial(total);

  std::map<std::vector<std::uint64_t>, double> law;
  std::vector<std::uint64_t> table(num_rows * num_cols, 0);
  std::vector<std::uint64_t> col_left = cols;
  std::function<void(std::size_t, std::uint64_t)> fill =
      [&](std::size_t cell, std::uint64_t row_left) {
        const std::size_t a = cell / num_cols;
        const std::size_t j = cell % num_cols;
        if (j == num_cols - 1) {
          // The row's last cell takes what the row has left.
          if (row_left > col_left[j]) return;
          table[cell] = row_left;
          col_left[j] -= row_left;
          if (a + 1 < num_rows) {
            fill(cell + 1, rows[a + 1]);
          } else {
            double log_p = log_margins;
            std::vector<std::uint64_t> key;
            for (std::size_t k = 0; k < table.size(); ++k) {
              log_p -= log_factorial(table[k]);
              if (active[k] != 0) key.push_back(table[k]);
            }
            law[key] += std::exp(log_p);
          }
          col_left[j] += row_left;
          return;
        }
        for (std::uint64_t m = 0; m <= std::min(row_left, col_left[j]); ++m) {
          table[cell] = m;
          col_left[j] -= m;
          fill(cell + 1, row_left - m);
          col_left[j] += m;
        }
      };
  fill(0, rows[0]);
  return law;
}

/// The sampler's bitmask rows for a row-major 0/1 activity matrix.
std::vector<std::uint64_t> activity_masks(const std::vector<std::uint8_t>& active,
                                          std::size_t num_cols) {
  const std::size_t words = active_words(num_cols);
  const std::size_t num_rows = active.size() / num_cols;
  std::vector<std::uint64_t> masks(num_rows * words, 0);
  for (std::size_t i = 0; i < num_rows; ++i) {
    for (std::size_t j = 0; j < num_cols; ++j) {
      if (active[i * num_cols + j] != 0) {
        masks[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }
  return masks;
}

/// Chi-square goodness of fit of sample_active_cells against the exact law
/// of the active cells, at alpha = 1e-3 with a fixed seed. Bins expecting
/// fewer than 5 samples are pooled into one.
void expect_active_cells_match_exact_law(
    const std::vector<std::uint64_t>& rows,
    const std::vector<std::uint64_t>& cols,
    const std::vector<std::uint8_t>& active, std::uint64_t seed) {
  const auto law = exact_active_cell_law(rows, cols, active);
  double mass = 0.0;
  for (const auto& [key, p] : law) mass += p;
  ASSERT_NEAR(mass, 1.0, 1e-9);

  std::vector<std::size_t> active_index(active.size(), 0);
  std::size_t num_active = 0;
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (active[k] != 0) active_index[k] = num_active++;
  }
  util::Rng rng(seed);
  const std::vector<std::uint64_t> masks = activity_masks(active, cols.size());
  std::vector<std::uint64_t> scratch(masks.size());
  std::vector<ContingencyCell> out;
  std::map<std::vector<std::uint64_t>, double> observed;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    std::vector<std::uint64_t> col_left = cols;
    out.clear();
    sample_active_cells(rng, rows, col_left, masks, scratch, out);
    std::vector<std::uint64_t> key(num_active, 0);
    for (const ContingencyCell& cell : out) {
      const std::size_t k = cell.row * cols.size() + cell.col;
      ASSERT_NE(active[k], 0) << "reported a null cell";
      ASSERT_GT(cell.m, 0u);
      key[active_index[k]] += cell.m;
    }
    ASSERT_TRUE(law.count(key)) << "sampled a projection of zero mass";
    observed[key] += 1.0;
  }

  double chi2 = 0.0;
  double pooled_expected = 0.0;
  double pooled_observed = 0.0;
  int bins = 0;
  for (const auto& [key, p] : law) {
    const double expected = p * samples;
    const double seen = observed.count(key) ? observed.at(key) : 0.0;
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += seen;
      continue;
    }
    chi2 += (seen - expected) * (seen - expected) / expected;
    ++bins;
  }
  if (pooled_expected > 0.0) {
    chi2 += (pooled_observed - pooled_expected) *
            (pooled_observed - pooled_expected) / pooled_expected;
    ++bins;
  }
  ASSERT_GE(bins, 2);
  // Wilson-Hilferty upper quantile of chi-square(df) at alpha = 1e-3
  // (z = 3.0902).
  const double df = bins - 1;
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + 3.0902 * std::sqrt(h), 3);
  EXPECT_LT(chi2, critical) << "df=" << df;
}

TEST(SampleActiveCellsTest, MatchesTheExactTableLawOnTheNonNullCells) {
  // 4 x 4, L = 8. Row 1 is fully null (never drawn); column 1 is active
  // only for row 0 (it retires into the lump after it); column 3 is active
  // only for the last row.
  const std::vector<std::uint64_t> rows = {2, 3, 1, 2};
  const std::vector<std::uint64_t> cols = {3, 1, 2, 2};
  const std::vector<std::uint8_t> active = {
      1, 1, 0, 0,  //
      0, 0, 0, 0,  //
      1, 0, 1, 0,  //
      0, 0, 0, 1,  //
  };
  expect_active_cells_match_exact_law(rows, cols, active, 2026);
}

TEST(SampleActiveCellsTest, AllActiveCellsGiveTheFullTableLaw) {
  const std::vector<std::uint64_t> rows = {3, 2, 3};
  const std::vector<std::uint64_t> cols = {2, 4, 2};
  const std::vector<std::uint8_t> active(9, 1);
  expect_active_cells_match_exact_law(rows, cols, active, 77);
}

TEST(SampleActiveCellsTest, SkipsNullRowsAndLumpsRetiredColumns) {
  // Only cell (2, 0) is non-null: rows 0, 1 and 3 are never drawn and
  // columns 1..3 share one lump, so the table costs a single draw.
  const std::vector<std::uint64_t> rows = {2, 3, 1, 2};
  const std::vector<std::uint64_t> cols = {3, 1, 2, 2};
  std::vector<std::uint64_t> masks(4, 0);
  masks[2] = 1;  // row 2, column 0
  util::Rng rng(5);
  std::vector<std::uint64_t> scratch(masks.size());
  std::vector<ContingencyCell> out;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint64_t> col_left = cols;
    out.clear();
    EXPECT_EQ(sample_active_cells(rng, rows, col_left, masks, scratch, out),
              1u);
    for (const ContingencyCell& cell : out) {
      EXPECT_EQ(cell.row, 2u);
      EXPECT_EQ(cell.col, 0u);
      EXPECT_EQ(cell.m, 1u);
    }
  }
  // An all-null table draws nothing.
  std::fill(masks.begin(), masks.end(), 0);
  std::vector<std::uint64_t> col_left = cols;
  out.clear();
  EXPECT_EQ(sample_active_cells(rng, rows, col_left, masks, scratch, out),
            0u);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace circles::dense
