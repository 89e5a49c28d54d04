// DenseEngine: simulate lumpable schedulers directly on counts.
//
// The agent-array engine (pp::Engine) costs O(1) per interaction plus two
// random accesses into an O(n) array; at n >= 10^7 those accesses are cache
// misses and the array itself dominates memory. The dense engine never
// materializes agents — a configuration is its count vector(s) and a
// simulation step is a draw from the counts.
//
// The engine's data model is a *multi-urn* partition: the population splits
// into urns (clusters), each holding its own count vector, and an ordered
// urn-pair rate matrix (pp::UrnLumping) fixes which block every interaction
// lands in. The uniform scheduler is the 1-urn specialization; the clustered
// scheduler is the canonical multi-urn instance (its lumping() IS this
// contract). Two modes:
//
//  * kPerStep — every interaction samples the urn-pair block (skipped when
//    there is one urn), then the ordered (initiator, responder) state pair
//    exactly as the lumped scheduler would: initiator weighted by the
//    initiator urn's counts, responder by the responder urn's counts (with
//    the initiator removed on intra blocks). A null interaction costs
//    O(present states) and a state change O(U + degree) (the per-block
//    active-pair counts are updated incrementally, see below), all
//    independent of n. This is the reference semantics used by the
//    cross-validation tests.
//
//  * kBatched — the sqrt(n) batching of Berenbrink et al., "Simulating
//    Population Protocols in Sub-Constant Time per Interaction" (ESA 2020),
//    generalized across the block structure: sample the exact
//    collision-free prefix (single urn: precomputed survival table, one
//    uniform; multi-urn: the exact sequential block/collision chain — all
//    participants distinct *within each urn*), draw the participants' states
//    per urn via multivariate hypergeometrics, split them across their
//    initiator/responder roles per block, pair initiators with responders by
//    hypergeometric contingency sampling per block, apply all transitions to
//    the counts at once, then resolve the single colliding interaction
//    explicitly and start the next epoch. The pairing is null-aware: most
//    meetings of an energy-minimizing run change nothing, so it draws only
//    the table's non-null cells (sample_active_cells in dense/sampling.hpp
//    — rows with no non-null partner are never drawn, and columns no
//    remaining row can change with are lumped), which is still the exact
//    law of every state-changing group. When activity is sparse the engine
//    switches to geometric fast-forward: the number of null interactions
//    before the next state change is Geometric(p) with p = sum_b rate_b *
//    active_b / pairs_b, so null-dominated phases — the dominant regime of
//    slow-mixing clustered runs — cost one active-pair draw and an
//    O(U + degree) update per state change instead of O(1) per
//    interaction. The choice is priced: the engine jumps while an epoch's
//    expected state changes, at a measured kJumpCostDraws hypergeometric
//    draws each, cost less than the draws the previous epoch made (an
//    estimate from the configuration before the first epoch).
//
// Active-pair bookkeeping: per urn the engine keeps the active-partner sums
// A_v[s] (urn v's count of responders t with (s, t) non-null) and R_u[t]
// (urn u's count of initiators s with (s, t) non-null). A change of c_x[q]
// by d then moves block (x, v) by d A_v[q], block (u, x) by d R_u[q] and
// block (x, x) by d (A_x[q] + R_x[q]) + (d^2 - d) nn(q, q), after which
// A_x and R_x move over q's kernel adjacency (over the states seen so far
// when the kernel has none): O(U + degree) per change, applied to every
// per-step interaction, jump, collision and productive epoch's net
// per-(urn, state) deltas. Debug builds check every update against a full
// recompute.
//
// Both modes sample the same lumped Markov chain as pp::Engine under the
// corresponding scheduler (agents within an urn are anonymous, so the
// per-urn count process is exactly lumpable): state_changes,
// last_change_step and the final configuration are identical in
// distribution. Silence is detected exactly — the per-block counts of
// active ordered pairs, summed over blocks with positive rate, hit zero —
// so a silent run reports interactions = last_change_step + 1, without the
// agent engine's streak-heuristic detection overhead.
//
// Determinism: results are a pure function of (configuration, seed).
// Single-urn runs draw everything from the main RNG stream. Per-step runs
// replay the original single-urn engine bit for bit; batched runs do not,
// because the null-aware pairing consumes a different (equally
// distributed) stream than the full-table pairing it replaced. Multi-urn
// epochs give every urn and every urn-pair block a sub-stream derived with
// util::Rng::fork, so per-block draws are reproducible regardless of block
// iteration order.
//
// Intra-run parallelism: that same sub-stream structure makes the batched
// multi-urn epoch stages embarrassingly parallel — per-urn participant
// deals and per-block contingency pairing write task-indexed disjoint
// state, and the recorded transition groups are applied serially in
// ascending (block, group) order. EngineOptions::run_threads > 1 fans the
// stages out across util::ThreadPool::shared(); results are bitwise
// identical for every thread count, including 1. Single-urn runs and
// per-step mode never pool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "kernel/compiled_protocol.hpp"
#include "pp/engine.hpp"
#include "pp/protocol.hpp"
#include "pp/run_result.hpp"
#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace circles::obs {
class Recorder;
}

namespace circles::dense {

enum class DenseMode {
  kPerStep,  // one sampled state pair per interaction
  kBatched,  // collision-free epochs of ~sqrt(n) interactions
};

class DenseEngine {
 public:
  /// Compiles a kernel::CompiledProtocol for `protocol` (dense transition
  /// table when the state space fits the kernel's budget, lazily-hashed
  /// pair cache otherwise) and delegates to the kernel constructor below;
  /// `protocol` must outlive the engine. EngineOptions is shared with
  /// pp::Engine: max_interactions and stop_when_silent apply;
  /// initial_silence_streak is meaningless here (silence is exact) and
  /// ignored. `lumping` fixes the urn structure: empty (default) means a
  /// single urn sized by whatever configuration run() receives (the uniform
  /// scheduler); a validated multi-urn lumping makes run(UrnConfig&)
  /// simulate that block structure.
  explicit DenseEngine(const pp::Protocol& protocol,
                       pp::EngineOptions options = {},
                       DenseMode mode = DenseMode::kPerStep,
                       pp::UrnLumping lumping = {});

  /// Shares a prebuilt immutable kernel (the BatchRunner compiles one per
  /// spec and hands it to every trial on every thread).
  DenseEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
              pp::EngineOptions options = {},
              DenseMode mode = DenseMode::kPerStep,
              pp::UrnLumping lumping = {});

  /// Advances `config` in place until exact silence (if stop_when_silent)
  /// or budget exhaustion. Thread-safe: all mutable state is local, so one
  /// engine may serve concurrent trials. `recorder`, when non-null,
  /// receives count snapshots at its grid's cadence — exact per-interaction
  /// indices in per-step mode, epoch-boundary indices in batched mode (the
  /// recorder is per-trial state and does not affect thread safety of the
  /// engine itself). Multi-urn hosts feed the recorder aggregate counts
  /// (plus the per-urn matrix on the Snapshot). The DenseConfig overloads
  /// require a single-urn engine; the UrnConfig overloads accept either (a
  /// 1-urn UrnConfig on a single-urn engine consumes the identical RNG
  /// stream as the DenseConfig path).
  pp::RunResult run(DenseConfig& config, util::Rng& rng,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(DenseConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(UrnConfig& config, util::Rng& rng,
                    obs::Recorder* recorder = nullptr) const;
  pp::RunResult run(UrnConfig& config, std::uint64_t seed,
                    obs::Recorder* recorder = nullptr) const;

  const pp::Protocol& protocol() const { return kernel_->protocol(); }
  const kernel::CompiledProtocol& compiled() const { return *kernel_; }
  DenseMode mode() const { return mode_; }
  const pp::EngineOptions& options() const { return options_; }
  /// Empty sizes = single urn of whatever n the configuration carries.
  const pp::UrnLumping& lumping() const { return lumping_; }
  /// Resolved intra-run worker budget: EngineOptions::run_threads with 0
  /// expanded to the hardware's core count. 1 = fully serial.
  std::uint32_t run_threads() const { return run_threads_; }

 private:
  struct Sim;

  /// The 1x1 rate matrix of the uniform scheduler (single-urn runs).
  static const double kUniformRate;

  pp::RunResult run_impl(Sim& sim, obs::Recorder* recorder) const;
  void run_per_step(Sim& sim, pp::RunResult& result,
                    obs::Recorder* recorder) const;
  void run_batched(Sim& sim, pp::RunResult& result,
                   obs::Recorder* recorder) const;

  pp::Transition transition(pp::StateId a, pp::StateId b) const {
    return kernel_->transition(a, b);
  }
  bool nonnull(pp::StateId a, pp::StateId b) const {
    return kernel_->nonnull(a, b);
  }

  std::shared_ptr<const kernel::CompiledProtocol> kernel_;  // never null
  pp::EngineOptions options_;
  DenseMode mode_;
  std::uint64_t num_states_;
  pp::UrnLumping lumping_;
  std::uint32_t run_threads_ = 1;  // resolved at construction (0 -> cores)
};

}  // namespace circles::dense
