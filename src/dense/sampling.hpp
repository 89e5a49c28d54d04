// Exact samplers for the dense (count-based) engines.
//
// The batched engine advances ~sqrt(n) interactions per epoch; turning an
// epoch into O(present_states^2) work instead of O(sqrt(n)) requires draws
// from hypergeometric distributions ("how many of the 2L distinct agents of
// this epoch hold state s?"). Everything here is built directly on util::Rng
// inversion, so results are deterministic per seed; the only platform
// dependence is ordinary double arithmetic, the same caliber as the
// Gillespie module's exponential clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace circles::dense {

/// log(x!) — table-backed for x < 16384, log_factorial_series beyond.
double log_factorial(std::uint64_t x);

/// The Stirling series for log(x!), x >= 1 (relative error < 1e-14 from
/// x = 2048 on, far below the samplers' inversion tolerance).
double log_factorial_series(std::uint64_t x);

/// Forces the shared log-factorial table to build now. The table is a
/// thread-safe magic static either way; warming it from an engine's serial
/// setup keeps the one-time initialization (and its guard) off the first
/// parallel epoch's worker threads.
void warm_log_factorial();

/// log of the binomial coefficient C(n, k). Requires k <= n.
double log_choose(std::uint64_t n, std::uint64_t k);

/// Number of "success" items among `draws` draws without replacement from a
/// population of `total` items containing `successes` successes. Exact
/// inversion by chop-down from the mode: one uniform draw from `rng`,
/// O(stddev) expected walk length. Degenerate supports return without
/// consuming randomness.
std::uint64_t hypergeometric(util::Rng& rng, std::uint64_t total,
                             std::uint64_t successes, std::uint64_t draws);

/// Multivariate hypergeometric: splits `draws` items drawn without
/// replacement from sum(counts) across the categories of `counts`.
/// `out` (same size as `counts`) receives the per-category draw counts,
/// which always sum to `draws`. Requires draws <= sum(counts).
void multivariate_hypergeometric(util::Rng& rng,
                                 std::span<const std::uint64_t> counts,
                                 std::uint64_t draws,
                                 std::span<std::uint64_t> out);

/// One non-null cell of a sampled contingency table: `m` matched pairs of
/// row `row` with column `col` (indices into the caller's margins).
struct ContingencyCell {
  std::uint32_t row;
  std::uint32_t col;
  std::uint64_t m;
};

/// Words per row of a sample_active_cells activity mask over `cols`
/// columns.
constexpr std::size_t active_words(std::size_t cols) { return (cols + 63) / 64; }

/// Samples the non-null cells of the contingency table of a uniformly
/// random perfect matching between row items (row i holds rows[i]) and
/// column items (column j holds cols[j]); sum(rows) must equal sum(cols).
/// `active` holds one bitmask per row, active_words(cols.size()) words each:
/// bit j % 64 of word j / 64 marks cell (i, j) non-null. Appends every
/// non-null cell with m > 0 to `out` and returns the number of
/// hypergeometric draws made.
///
/// The table is drawn row by row as hypergeometric draws, which is exact
/// for any row order, but only the non-null cells are resolved:
///  * rows with no active non-empty column are never drawn;
///  * within a drawn row, a column gets its own draw only while it is active
///    for this row or for a later drawn row; every other column falls into
///    one remainder lump, the row's last category, which needs no draw;
///  * a row stops drawing once it is matched.
/// So the joint law of the reported cells is exactly the contingency-table
/// law projected onto the non-null cells. `cols` is clobbered (lumped
/// columns end unspecified). `scratch` needs as many words as `active`.
std::uint64_t sample_active_cells(util::Rng& rng,
                                  std::span<const std::uint64_t> rows,
                                  std::span<std::uint64_t> cols,
                                  std::span<const std::uint64_t> active,
                                  std::span<std::uint64_t> scratch,
                                  std::vector<ContingencyCell>& out);

/// Distribution of the collision-free prefix of the uniform scheduler over n
/// agents: P(the first j interactions touch 2j distinct agents) =
/// prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)). One instance precomputes this
/// survival table for a fixed n and samples the prefix length L >= 1 by
/// inversion (one uniform draw per sample). The table is truncated once
/// survival drops below 1e-18 — beneath uniform01's 2^-53 resolution, so
/// the truncation is unobservable.
class CollisionFreeRunLength {
 public:
  explicit CollisionFreeRunLength(std::uint64_t n);

  /// Samples L = the number of collision-free interactions before the first
  /// interaction that re-touches an already-used agent.
  std::uint64_t sample(util::Rng& rng) const;

  /// Largest sampleable L (where the survival table was truncated).
  std::uint64_t max_length() const { return survival_.size() - 1; }

  /// E[L] (sum of the survival table) — used to decide when an epoch is no
  /// longer worth its fixed cost.
  double mean_length() const { return mean_; }

 private:
  std::vector<double> survival_;  // survival_[j] = P(L >= j)
  double mean_ = 0.0;
};

/// The position (1-based) of the last of `special` marked slots among
/// `slots` exchangeable slots: the maximum of a uniform `special`-subset of
/// {1..slots}. Used to place the final state change exactly within the final
/// epoch. Requires 1 <= special <= slots.
std::uint64_t last_special_slot(util::Rng& rng, std::uint64_t slots,
                                std::uint64_t special);

}  // namespace circles::dense
