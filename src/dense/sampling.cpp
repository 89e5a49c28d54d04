#include "dense/sampling.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace circles::dense {

namespace {

// 16384 entries (128 KiB) cover every argument of the epoch-sized draws the
// batched engine makes at practical n: role deals of a few thousand
// participants and the log-gamma anchors of their pairings.
constexpr std::size_t kFactorialTableSize = 16384;

const std::array<double, kFactorialTableSize>& log_factorial_table() {
  // Magic-static initialization is thread-safe; the BatchRunner calls the
  // samplers from many worker threads at once.
  static const std::array<double, kFactorialTableSize> table = [] {
    std::array<double, kFactorialTableSize> t{};
    // Kahan-compensated running sum of log(i): every entry stays within
    // 1.1e-16 relative of log(x!), where a plain running sum drifts to
    // 3.8e-15 (against an 80-bit sum).
    double acc = 0.0;
    double carry = 0.0;
    t[0] = 0.0;
    for (std::size_t i = 1; i < kFactorialTableSize; ++i) {
      const double y = std::log(static_cast<double>(i)) - carry;
      const double next = acc + y;
      carry = (next - acc) - y;
      acc = next;
      t[i] = acc;
    }
    return t;
  }();
  return table;
}

}  // namespace

void warm_log_factorial() { (void)log_factorial_table(); }

double log_factorial_series(std::uint64_t x) {
  // Stirling series for log Gamma(x + 1).
  const double n = static_cast<double>(x);
  const double n2 = n * n;
  return (n + 0.5) * std::log(n) - n +
         0.91893853320467274178 /* log(2*pi)/2 */ + 1.0 / (12.0 * n) -
         1.0 / (360.0 * n2 * n) + 1.0 / (1260.0 * n2 * n2 * n);
}

double log_factorial(std::uint64_t x) {
  if (x < kFactorialTableSize) return log_factorial_table()[x];
  return log_factorial_series(x);
}

double log_choose(std::uint64_t n, std::uint64_t k) {
  CIRCLES_DCHECK(k <= n);
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

std::uint64_t hypergeometric(util::Rng& rng, std::uint64_t total,
                             std::uint64_t successes, std::uint64_t draws) {
  CIRCLES_CHECK_MSG(successes <= total && draws <= total,
                    "hypergeometric parameters out of range");
  const std::uint64_t failures = total - successes;
  const std::uint64_t lo = draws > failures ? draws - failures : 0;
  const std::uint64_t hi = std::min(draws, successes);
  if (lo >= hi) return lo;

  // Small draws dominate the batched engine's contingency sampling; drawing
  // them item by item is exact *integer* sampling and beats the log-gamma
  // anchor below. HG(N, K, m) == HG(N, m, K) (both count |draws ∩
  // successes|), so a small success count works just as well.
  constexpr std::uint64_t kSequentialCutoff = 16;
  std::uint64_t seq_m = draws, seq_k = successes;
  if (std::min(seq_m, seq_k) <= kSequentialCutoff) {
    if (seq_k < seq_m) std::swap(seq_m, seq_k);
    std::uint64_t x = 0;
    std::uint64_t pool = total, hits = seq_k;
    for (std::uint64_t i = 0; i < seq_m; ++i) {
      if (rng.uniform_below(pool) < hits) {
        ++x;
        --hits;
      }
      --pool;
    }
    return x;
  }

  const double dm = static_cast<double>(draws);
  const double dk = static_cast<double>(successes);
  const double df = static_cast<double>(failures);

  std::uint64_t mode = static_cast<std::uint64_t>(
      ((dm + 1.0) * (dk + 1.0)) / (static_cast<double>(total) + 2.0));
  mode = std::clamp(mode, lo, hi);

  const auto log_pmf = [&](std::uint64_t x) {
    return log_choose(successes, x) + log_choose(failures, draws - x) -
           log_choose(total, draws);
  };

  // Chop-down inversion from the mode: the anchor probability comes from
  // log-gamma once; every neighbour is reached by exact pmf ratios.
  const double p_mode = std::exp(log_pmf(mode));
  double remaining = rng.uniform01() - p_mode;
  if (remaining < 0.0) return mode;

  std::uint64_t up = mode, down = mode;
  double pu = p_mode, pd = p_mode;
  while (up < hi || down > lo) {
    if (up < hi) {
      const double x = static_cast<double>(up);
      pu *= (dk - x) * (dm - x) / ((x + 1.0) * (df - dm + x + 1.0));
      ++up;
      remaining -= pu;
      if (remaining < 0.0) return up;
    }
    if (down > lo) {
      const double x = static_cast<double>(down);
      pd *= x * (df - dm + x) / ((dk - x + 1.0) * (dm - x + 1.0));
      --down;
      remaining -= pd;
      if (remaining < 0.0) return down;
    }
  }
  // The accumulated mass fell a few ulps short of u; any in-range value has
  // the right distribution up to that rounding.
  return mode;
}

void multivariate_hypergeometric(util::Rng& rng,
                                 std::span<const std::uint64_t> counts,
                                 std::uint64_t draws,
                                 std::span<std::uint64_t> out) {
  CIRCLES_DCHECK(counts.size() == out.size());
  std::uint64_t pool = 0;
  for (const std::uint64_t c : counts) pool += c;
  CIRCLES_CHECK_MSG(draws <= pool,
                    "multivariate hypergeometric overdraws the pool");
  std::uint64_t need = draws;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (need == 0) {
      out[i] = 0;
      continue;
    }
    const std::uint64_t d = hypergeometric(rng, pool, counts[i], need);
    out[i] = d;
    pool -= counts[i];
    need -= d;
  }
  CIRCLES_DCHECK(need == 0);
}

std::uint64_t sample_active_cells(util::Rng& rng,
                                  std::span<const std::uint64_t> rows,
                                  std::span<std::uint64_t> cols,
                                  std::span<const std::uint64_t> active,
                                  std::span<std::uint64_t> scratch,
                                  std::vector<ContingencyCell>& out) {
  const std::size_t num_rows = rows.size();
  const std::size_t words = active_words(cols.size());
  CIRCLES_CHECK_MSG(active.size() == num_rows * words &&
                        scratch.size() >= num_rows * words,
                    "contingency sampler spans are mis-sized");
  // live[i]: the non-empty columns active for some drawn row i' >= i —
  // exactly the columns row i must draw on their own. Built backwards, one
  // mask word at a time.
  const std::span<std::uint64_t> live = scratch.first(num_rows * words);
  std::uint64_t pool = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t nonempty = 0;
    for (std::size_t j = w * 64; j < std::min(cols.size(), w * 64 + 64); ++j) {
      pool += cols[j];
      if (cols[j] > 0) nonempty |= std::uint64_t{1} << (j % 64);
    }
    std::uint64_t acc = 0;
    for (std::size_t i = num_rows; i-- > 0;) {
      if (rows[i] > 0) acc |= active[i * words + w] & nonempty;
      live[i * words + w] = acc;
    }
  }

  std::uint64_t draws = 0;
  for (std::size_t i = 0; i < num_rows; ++i) {
    const std::uint64_t* row_active = active.data() + i * words;
    const std::uint64_t* row_live = live.data() + i * words;
    // A row with no active non-empty column is never drawn: whatever it
    // takes comes out of the columns no drawn row can change with.
    bool drawn = false;
    for (std::size_t w = 0; w < words; ++w) {
      drawn = drawn || (row_active[w] & row_live[w]) != 0;
    }
    if (rows[i] == 0 || !drawn) continue;
    // The row's multivariate draw: each live column in turn, then the lump
    // of every other column last, which takes the rest without a draw.
    std::uint64_t need = rows[i];
    std::uint64_t rest = pool;
    for (std::size_t w = 0; w < words && need > 0; ++w) {
      for (std::uint64_t bits = row_live[w]; bits != 0 && need > 0;
           bits &= bits - 1) {
        const std::size_t j = w * 64 + std::countr_zero(bits);
        const std::uint64_t avail = cols[j];
        if (avail == 0) continue;
        const std::uint64_t m = hypergeometric(rng, rest, avail, need);
        draws += 1;
        rest -= avail;
        cols[j] -= m;
        need -= m;
        if (m > 0 && (row_active[w] >> (j % 64) & 1) != 0) {
          out.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), m});
        }
      }
    }
    pool -= rows[i];
  }
  return draws;
}

CollisionFreeRunLength::CollisionFreeRunLength(std::uint64_t n) {
  CIRCLES_CHECK_MSG(n >= 2, "collision-free run length needs n >= 2");
  const double denom =
      static_cast<double>(n) * static_cast<double>(n - 1);
  survival_.push_back(1.0);
  double s = 1.0;
  for (std::uint64_t j = 0;; ++j) {
    const double fresh = static_cast<double>(n) - 2.0 * static_cast<double>(j);
    if (fresh < 2.0) break;
    s *= fresh * (fresh - 1.0) / denom;
    if (s <= 0.0) break;
    survival_.push_back(s);
    mean_ += s;
    if (s < 1e-18) break;
  }
}

std::uint64_t CollisionFreeRunLength::sample(util::Rng& rng) const {
  const double u = rng.uniform01();
  // Largest j with survival_[j] > u; survival_[1] == 1, so L >= 1 always
  // (the first interaction cannot collide).
  std::size_t lo = 0, hi = survival_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (survival_[mid] > u) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint64_t last_special_slot(util::Rng& rng, std::uint64_t slots,
                                std::uint64_t special) {
  CIRCLES_CHECK_MSG(special >= 1 && special <= slots,
                    "last_special_slot needs 1 <= special <= slots");
  // Reservoir-style scan from the top: slot j is in a uniform special-subset
  // with probability special/j given that no higher slot is; the first hit
  // is the maximum.
  for (std::uint64_t j = slots; j > special; --j) {
    if (rng.uniform_below(j) < special) return j;
  }
  return special;  // slots 1..special must all be special
}

}  // namespace circles::dense
