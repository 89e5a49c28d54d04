#include "dense/dense_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "dense/sampling.hpp"
#include "metrics/metrics.hpp"
#include "obs/recorder.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace circles::dense {

namespace {

/// Sentinel "no state excluded" for the categorical walks below.
constexpr std::uint64_t kNoExclude = ~std::uint64_t{0};

/// The cost of one fast-forward jump (an active-pair draw plus the O(U +
/// degree) count update) in units of one hypergeometric draw of an epoch,
/// the measure of an epoch's cost. Measured on circles k=3 n=10^7 single-urn
/// runs (see CHANGES.md); run_batched jumps instead of running an epoch when
/// expected_changes * kJumpCostDraws falls below the previous epoch's draws.
constexpr double kJumpCostDraws = 1.8;

/// Span decimation: the first kTraceFullEpochs epochs (and fast-forward
/// jumps, and pooled stage regions) get full begin/end spans — enough to see
/// the run's structure in a timeline — after which epochs collapse to one
/// instant every kTraceStride so a billion-interaction run stays under the
/// <2% tracing-overhead budget and inside the ring window.
constexpr std::uint64_t kTraceFullEpochs = 512;
constexpr std::uint64_t kTraceStride = 256;

/// Where the most recent state change happened, at epoch granularity. The
/// exact step index inside the epoch is only sampled once, at the end of the
/// run, for the epoch that turned out to contain the final change. Single-urn
/// epochs need only (length, productive); multi-urn epochs also snapshot the
/// block sequence so the last productive slot can be placed per block.
struct LastChangeMark {
  bool valid = false;
  bool exact = false;           // index holds the step directly
  std::uint64_t index = 0;      // exact: the step of the change
  std::uint64_t start = 0;      // else: epoch start step ...
  std::uint64_t length = 0;     // ... its collision-free slot count ...
  std::uint64_t productive = 0; // ... and how many slots changed state
  bool multi = false;           // multi-urn epoch: the fields below are live
  std::vector<std::uint32_t> seq;              // block id per epoch slot
  std::vector<std::uint64_t> block_len;        // per-block slot counts
  std::vector<std::uint64_t> block_productive; // per-block state changes
};

}  // namespace

DenseEngine::DenseEngine(const pp::Protocol& protocol,
                         pp::EngineOptions options, DenseMode mode,
                         pp::UrnLumping lumping)
    : DenseEngine(std::make_shared<const kernel::CompiledProtocol>(protocol),
                  options, mode, std::move(lumping)) {}

DenseEngine::DenseEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
                         pp::EngineOptions options, DenseMode mode,
                         pp::UrnLumping lumping)
    : kernel_(std::move(kernel)),
      options_(options),
      mode_(mode),
      num_states_(kernel_->num_states()),
      lumping_(std::move(lumping)) {
  CIRCLES_CHECK_MSG(num_states_ >= 1, "protocol needs at least one state");
  if (!lumping_.sizes.empty()) lumping_.validate();
  run_threads_ = options_.run_threads != 0
                     ? options_.run_threads
                     : util::ThreadPool::shared().helpers() + 1;
}

/// Run-local state shared by both modes. The per-urn count/presence/used
/// fields live in a few contiguous (urn, state)-indexed arena slabs so the
/// epoch hot loops walk adjacent memory; the caller's count storage is
/// copied in once here and copied back by sync_out() when the run ends.
struct DenseEngine::Sim {
  /// One urn (cluster): a count-vector view plus its presence bookkeeping.
  /// `present` contains every state with count > 0, possibly plus stale
  /// zero-count entries; compact() drops the latter. The categorical walks
  /// skip zero counts naturally.
  struct Urn {
    std::span<std::uint64_t> counts;  // arena slab row, num_states wide
    std::span<std::uint64_t> out;     // the caller's storage (copy-back)
    std::uint64_t n = 0;  // fixed urn size (counts always sum to this)
    std::vector<pp::StateId> present;
    std::span<std::uint8_t> in_present;  // arena slab row
    // Epoch scratch: post-transition state histogram of this epoch's
    // participants, reset via `touched`.
    std::span<std::uint64_t> used;  // arena slab row
    std::vector<pp::StateId> touched;
    std::uint64_t used_total = 0;
    // Epoch scratch: net count deltas of this epoch's productive groups
    // (two's complement), flushed through change() and reset via `dirty`.
    std::span<std::uint64_t> delta;  // arena slab row
    std::vector<pp::StateId> dirty;
  };

  const DenseEngine& engine;
  util::Rng& rng;
  util::Arena arena;  // backs every flat slab below; append-only, run-local
  std::vector<Urn> urns;
  std::size_t num_urns = 0;
  std::uint64_t n = 0;  // total population

  // Block structure: row-major num_urns x num_urns. rates sums to 1;
  // pair_capacity[b] is the number of ordered agent pairs block b can
  // schedule (n_u * n_v off-diagonal, n_u * (n_u - 1) on it).
  std::vector<double> rates;
  std::vector<double> pair_capacity;

  // Number of ordered agent pairs per block whose interaction would change
  // a state; live_active sums the blocks with positive rate. live_active is
  // zero iff the configuration is silent under the lumped scheduler (the
  // exact certificate).
  std::span<std::uint64_t> active;
  std::uint64_t live_active = 0;

  // Active-partner sums per (urn, state), urn-major, num_states wide:
  // fwd[v * S + s] = A_v[s], the count in urn v of responders t with (s, t)
  // non-null, and rev[u * S + t] = R_u[t], the count in urn u of initiators
  // s with (s, t) non-null. Block (u, v) holds
  //   active[(u, v)] = sum_s c_u[s] A_v[s] - [u == v] sum_s c_u[s] nn(s, s),
  // so change() keeps the blocks current in O(U + degree) per count change,
  // and pick_active_pair reads initiator row masses c_u[s] A_v[s] directly.
  std::span<std::uint64_t> fwd;
  std::span<std::uint64_t> rev;
  // With a kernel adjacency index the sums cover every state. Without one,
  // partners are found by walking `tracked`: every state present in some
  // urn since the run began (never untracked; an untracked state has count
  // zero in every urn), and fwd/rev hold the tracked states' sums only.
  const kernel::CompiledProtocol* adjacency = nullptr;
  std::vector<pp::StateId> tracked;
  std::vector<std::uint8_t> is_tracked;

  // This run's span buffer (the run thread's; null = tracing off). Workers
  // resolve their own buffers through engine.options_.tracer inside
  // run_tasks — a span always lands on the emitting thread's track.
  trace::TraceBuffer* trace = nullptr;

  // Intra-run worker budget (the engine's resolved run_threads) and pool
  // telemetry. Parallel stages only ever run when pool_threads > 1 and the
  // run is multi-urn; results are bitwise identical either way.
  unsigned pool_threads = 1;
  std::uint64_t m_parallel_epochs = 0;  // batched epochs using the pool
  std::uint64_t m_pool_regions = 0;     // parallel_for regions issued
  std::uint64_t m_pool_busy_ns = 0;     // summed worker busy time
  std::uint64_t m_pool_wall_ns = 0;     // summed region wall time

  // Telemetry scratch: plain locals bumped on the hot path, flushed once
  // into EngineOptions::metrics by run_impl.
  std::uint64_t m_epochs = 0;       // batched epochs executed
  std::uint64_t m_ff_jumps = 0;     // sparse-activity fast-forward jumps
  std::uint64_t m_ff_skipped = 0;   // null interactions skipped by them
  std::uint64_t m_mvhg_draws = 0;   // multivariate hypergeometric deals
  std::uint64_t m_pair_draws = 0;   // hypergeometric draws of the pairing

  // Aggregate view for the recorder: single-urn runs alias urn 0; multi-urn
  // runs maintain summed counts incrementally (only when a recorder is
  // attached — aggregate_enabled).
  bool aggregate_enabled = false;
  std::vector<std::uint64_t> agg_counts;
  std::vector<pp::StateId> agg_present;
  std::vector<std::uint8_t> agg_in_present;
  std::vector<std::uint64_t> urn_sizes;
  std::vector<std::span<const std::uint64_t>> urn_spans;

  Sim(const DenseEngine& engine, std::span<std::span<std::uint64_t>> counts,
      std::span<const double> rate_matrix, util::Rng& rng, bool want_aggregate)
      : engine(engine), rng(rng) {
    num_urns = counts.size();
    pool_threads = engine.run_threads_;
    const std::size_t states = engine.num_states_;
    const std::size_t num_blocks = num_urns * num_urns;
    rates.assign(rate_matrix.begin(), rate_matrix.end());

    const std::span<std::uint64_t> counts_flat =
        arena.alloc<std::uint64_t>(num_urns * states);
    const std::span<std::uint8_t> in_present_flat =
        arena.alloc<std::uint8_t>(num_urns * states);
    const std::span<std::uint64_t> used_flat =
        arena.alloc<std::uint64_t>(num_urns * states);
    const std::span<std::uint64_t> delta_flat =
        arena.alloc<std::uint64_t>(num_urns * states);
    active = arena.alloc<std::uint64_t>(num_blocks);
    fwd = arena.alloc<std::uint64_t>(num_urns * states);
    rev = arena.alloc<std::uint64_t>(num_urns * states);

    urns.resize(num_urns);
    for (std::size_t u = 0; u < num_urns; ++u) {
      Urn& urn = urns[u];
      CIRCLES_DCHECK(counts[u].size() == states);
      urn.out = counts[u];
      urn.counts = counts_flat.subspan(u * states, states);
      urn.in_present = in_present_flat.subspan(u * states, states);
      urn.used = used_flat.subspan(u * states, states);
      urn.delta = delta_flat.subspan(u * states, states);
      std::copy(urn.out.begin(), urn.out.end(), urn.counts.begin());
      for (std::size_t s = 0; s < urn.counts.size(); ++s) {
        urn.n += urn.counts[s];
        if (urn.counts[s] > 0) {
          urn.present.push_back(static_cast<pp::StateId>(s));
          urn.in_present[s] = 1;
        }
      }
      n += urn.n;
      urn_sizes.push_back(urn.n);
      urn_spans.push_back(
          std::span<const std::uint64_t>(urn.counts.data(), urn.counts.size()));
    }
    pair_capacity.resize(num_urns * num_urns);
    for (std::size_t u = 0; u < num_urns; ++u) {
      for (std::size_t v = 0; v < num_urns; ++v) {
        const double nu = static_cast<double>(urns[u].n);
        const double nv = static_cast<double>(urns[v].n);
        pair_capacity[u * num_urns + v] = u == v ? nu * (nv - 1.0) : nu * nv;
      }
    }
    aggregate_enabled = want_aggregate && num_urns > 1;
    if (aggregate_enabled) {
      agg_counts.assign(engine.num_states_, 0);
      agg_in_present.assign(engine.num_states_, 0);
      for (const Urn& urn : urns) {
        for (std::size_t s = 0; s < urn.counts.size(); ++s) {
          agg_counts[s] += urn.counts[s];
        }
      }
      for (std::size_t s = 0; s < agg_counts.size(); ++s) {
        if (agg_counts[s] > 0) {
          agg_present.push_back(static_cast<pp::StateId>(s));
          agg_in_present[s] = 1;
        }
      }
    }
    init_active();
  }

  /// Copies the working counts back into the caller's storage. run_impl
  /// calls this once, after the run loop; everything in between mutates
  /// only the arena slabs.
  void sync_out() {
    for (Urn& urn : urns) {
      std::copy(urn.counts.begin(), urn.counts.end(), urn.out.begin());
    }
  }

  /// Runs fn(0), ..., fn(count - 1): on the shared pool when `pooled`,
  /// serially otherwise. Pooled callers write task-indexed disjoint state
  /// and reduce serially afterwards, so results are bitwise identical for
  /// any worker count — `pooled` is purely a performance gate. `stage` names
  /// the region in the span timeline: the issuing thread gets a pool-region
  /// span and every task wraps itself in a `stage` span on its OWN thread's
  /// buffer, so pool workers show up as distinct attributed tracks. Tracing
  /// reads deterministic state only and never reorders the tasks.
  template <typename Fn>
  void run_tasks(std::size_t count, bool pooled, const char* stage, Fn&& fn) {
    if (!pooled || count <= 1 || pool_threads <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    // Stage/worker spans follow the epoch decimation window so a long run's
    // per-epoch fan-out does not swamp the ring or the overhead budget.
    trace::Tracer* tracer =
        m_epochs <= kTraceFullEpochs ? engine.options_.tracer : nullptr;
    const trace::ScopedSpan region(tracer != nullptr ? trace : nullptr,
                                   "dense.pool", "tasks", count);
    const auto start = std::chrono::steady_clock::now();
    if (tracer != nullptr) {
      m_pool_busy_ns += util::ThreadPool::shared().parallel_for(
          count, pool_threads, [&](std::size_t i) {
            const trace::ScopedSpan task(trace::buffer(tracer, "worker"),
                                         stage);
            fn(i);
          });
    } else {
      m_pool_busy_ns +=
          util::ThreadPool::shared().parallel_for(count, pool_threads, fn);
    }
    m_pool_wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    m_pool_regions += 1;
  }

  void note_state(Urn& urn, pp::StateId s) {
    if (!urn.in_present[s]) {
      urn.in_present[s] = 1;
      urn.present.push_back(s);
    }
  }

  void note_agg(pp::StateId s) {
    if (!agg_in_present[s]) {
      agg_in_present[s] = 1;
      agg_present.push_back(s);
    }
  }

  /// Mirrors one applied transition group onto the aggregate view.
  void apply_agg(pp::StateId si, pp::StateId sr, const pp::Transition& tr,
                 std::uint64_t m) {
    if (!aggregate_enabled) return;
    agg_counts[si] -= m;
    agg_counts[sr] -= m;
    agg_counts[tr.initiator] += m;
    agg_counts[tr.responder] += m;
    note_agg(tr.initiator);
    note_agg(tr.responder);
  }

  void compact(Urn& urn) {
    std::size_t w = 0;
    for (const pp::StateId s : urn.present) {
      if (urn.counts[s] > 0) {
        urn.present[w++] = s;
      } else {
        urn.in_present[s] = 0;
      }
    }
    urn.present.resize(w);
  }

  /// Calls fn(s) for every initiator s with (s, t) non-null.
  template <typename Fn>
  void for_each_initiator(pp::StateId t, Fn&& fn) const {
    if (adjacency != nullptr) {
      for (const pp::StateId s : adjacency->active_initiators(t)) fn(s);
      return;
    }
    for (const pp::StateId s : tracked) {
      if (engine.nonnull(s, t)) fn(s);
    }
  }

  /// Calls fn(t) for every responder t with (s, t) non-null.
  template <typename Fn>
  void for_each_responder(pp::StateId s, Fn&& fn) const {
    if (adjacency != nullptr) {
      for (const pp::StateId t : adjacency->active_responders(s)) fn(t);
      return;
    }
    for (const pp::StateId t : tracked) {
      if (engine.nonnull(s, t)) fn(t);
    }
  }

  /// Sets A_v[q] and R_v[q] of every urn v from the counts (no-adjacency
  /// mode: walks the tracked states).
  void compute_sums(pp::StateId q, std::span<std::uint64_t> f,
                    std::span<std::uint64_t> r) const {
    const std::size_t states = engine.num_states_;
    for (std::size_t v = 0; v < num_urns; ++v) {
      f[v * states + q] = 0;
      r[v * states + q] = 0;
    }
    for_each_responder(q, [&](pp::StateId t) {
      for (std::size_t v = 0; v < num_urns; ++v) {
        f[v * states + q] += urns[v].counts[t];
      }
    });
    for_each_initiator(q, [&](pp::StateId t) {
      for (std::size_t v = 0; v < num_urns; ++v) {
        r[v * states + q] += urns[v].counts[t];
      }
    });
  }

  /// Full recompute of the partner sums and block counts from the counts
  /// into f, r and act (f and r zeroed on entry): the setup path, and the
  /// Debug cross-check of change(). uint64 arithmetic is exact mod 2^64 and
  /// the true values fit, so incremental and full sums agree bit for bit.
  void recompute(std::span<std::uint64_t> f, std::span<std::uint64_t> r,
                 std::span<std::uint64_t> act) const {
    const std::size_t states = engine.num_states_;
    if (adjacency != nullptr) {
      // Push each present state's count to its partners' sums.
      for (std::size_t v = 0; v < num_urns; ++v) {
        const Urn& urn = urns[v];
        for (const pp::StateId s : urn.present) {
          const std::uint64_t c = urn.counts[s];
          for (const pp::StateId t : adjacency->active_responders(s)) {
            r[v * states + t] += c;
          }
          for (const pp::StateId t : adjacency->active_initiators(s)) {
            f[v * states + t] += c;
          }
        }
      }
    } else {
      for (const pp::StateId q : tracked) compute_sums(q, f, r);
    }
    for (std::size_t u = 0; u < num_urns; ++u) {
      const Urn& urn_i = urns[u];
      for (std::size_t v = 0; v < num_urns; ++v) {
        const std::uint64_t* a_v = f.data() + v * states;
        std::uint64_t sum = 0;
        for (const pp::StateId s : urn_i.present) {
          const std::uint64_t c = urn_i.counts[s];
          sum += c * a_v[s];
          // On diagonal blocks an agent cannot meet itself.
          if (u == v && engine.nonnull(s, s)) sum -= c;
        }
        act[u * num_urns + v] = sum;
      }
    }
  }

  /// Setup: compacts the urns and computes every active-pair count.
  void init_active() {
    if (engine.kernel_->has_adjacency()) adjacency = engine.kernel_.get();
    for (Urn& urn : urns) compact(urn);
    if (adjacency == nullptr) {
      is_tracked.assign(engine.num_states_, 0);
      for (const Urn& urn : urns) {
        for (const pp::StateId s : urn.present) {
          if (!is_tracked[s]) {
            is_tracked[s] = 1;
            tracked.push_back(s);
          }
        }
      }
    }
    recompute(fwd, rev, active);
    live_active = 0;
    for (std::size_t b = 0; b < num_urns * num_urns; ++b) {
      if (rates[b] > 0.0) live_active += active[b];
    }
  }

  /// Debug cross-check: the incrementally maintained sums and counts equal
  /// a full recompute from the current counts.
  bool matches_recompute() const {
    std::vector<std::uint64_t> f(fwd.size()), r(rev.size()),
        act(active.size());
    recompute(f, r, act);
    std::uint64_t live = 0;
    for (std::size_t b = 0; b < act.size(); ++b) {
      if (rates[b] > 0.0) live += act[b];
    }
    return std::equal(f.begin(), f.end(), fwd.begin()) &&
           std::equal(r.begin(), r.end(), rev.begin()) &&
           std::equal(act.begin(), act.end(), active.begin()) &&
           live == live_active;
  }

  void bump_block(std::size_t b, std::uint64_t d) {
    active[b] += d;
    if (rates[b] > 0.0) live_active += d;
  }

  /// Adds d (two's complement, so -m is 0 - m) to urn x's count of state q
  /// and updates the active-pair counts in O(U + degree): block (x, v)
  /// gains d A_v[q], block (u, x) gains d R_u[q], and block (x, x) gains
  /// d (A_x[q] + R_x[q]) + (d^2 - d) nn(q, q) (the cross term and the
  /// own-agent correction); then A_x and R_x move over q's partners.
  void change(std::size_t x, pp::StateId q, std::uint64_t d) {
    if (adjacency == nullptr && !is_tracked[q]) {
      // q has count zero everywhere, so no other state's sums include it.
      is_tracked[q] = 1;
      tracked.push_back(q);
      compute_sums(q, fwd, rev);
    }
    const std::size_t states = engine.num_states_;
    const std::uint64_t self = engine.nonnull(q, q) ? d * d - d : 0;
    for (std::size_t v = 0; v < num_urns; ++v) {
      if (v == x) {
        bump_block(x * num_urns + x,
                   d * (fwd[x * states + q] + rev[x * states + q]) + self);
      } else {
        bump_block(x * num_urns + v, d * fwd[v * states + q]);
        bump_block(v * num_urns + x, d * rev[v * states + q]);
      }
    }
    std::uint64_t* const f_x = fwd.data() + x * states;
    std::uint64_t* const r_x = rev.data() + x * states;
    for_each_initiator(q, [&](pp::StateId s) { f_x[s] += d; });
    for_each_responder(q, [&](pp::StateId t) { r_x[t] += d; });
    urns[x].counts[q] += d;
  }

  /// An epoch's draw count predicted from the configuration, standing in
  /// for a measured one before the first epoch: one participant and one
  /// role deal per live block side, plus one pairing draw per present
  /// non-null (s, t) cell of every live block.
  double estimate_epoch_draws() const {
    std::uint64_t draws = 0;
    for (std::size_t b = 0; b < num_urns * num_urns; ++b) {
      if (rates[b] <= 0.0) continue;
      const Urn& urn_i = urns[b / num_urns];
      const Urn& urn_r = urns[b % num_urns];
      draws += 2;
      for (const pp::StateId s : urn_i.present) {
        for_each_responder(s, [&](pp::StateId t) {
          draws += urn_r.counts[t] > 0 ? 1 : 0;
        });
      }
    }
    return static_cast<double>(std::max<std::uint64_t>(draws, 1));
  }

  /// Records an epoch group's count delta for flush_deltas().
  void add_delta(Urn& urn, pp::StateId s, std::uint64_t d) {
    if (urn.delta[s] == 0) urn.dirty.push_back(s);
    urn.delta[s] += d;
  }

  /// Applies every urn's net epoch deltas through change().
  void flush_deltas() {
    for (std::size_t x = 0; x < num_urns; ++x) {
      Urn& urn = urns[x];
      for (const pp::StateId s : urn.dirty) {
        const std::uint64_t d = urn.delta[s];
        if (d == 0) continue;  // netted out, or listed twice
        urn.delta[s] = 0;
        change(x, s, d);
      }
      urn.dirty.clear();
    }
  }

  /// Weighted draw of a state from an urn's counts; `exclude` (a StateId,
  /// or kNoExclude) has its count reduced by one — the "responder cannot be
  /// the initiator" correction on intra blocks. `total` must equal the
  /// walked mass.
  pp::StateId pick_state(Urn& urn, std::uint64_t total, std::uint64_t exclude) {
    std::uint64_t r = rng.uniform_below(total);
    for (const pp::StateId s : urn.present) {
      std::uint64_t c = urn.counts[s];
      if (s == exclude) c -= 1;
      if (r < c) return s;
      r -= c;
    }
    CIRCLES_CHECK_MSG(false, "dense state draw walked past the population");
    return urn.present.back();
  }

  /// Applies one state-changing interaction of block (bu, bv), then drops
  /// the states it emptied from the two urns' present lists (the other
  /// urns have none to drop).
  void apply(std::size_t bu, std::size_t bv, pp::StateId si, pp::StateId sr,
             const pp::Transition& tr) {
    if (tr.initiator != si) {
      change(bu, si, ~std::uint64_t{0});
      change(bu, tr.initiator, 1);
    }
    if (tr.responder != sr) {
      change(bv, sr, ~std::uint64_t{0});
      change(bv, tr.responder, 1);
    }
    note_state(urns[bu], tr.initiator);
    note_state(urns[bv], tr.responder);
    apply_agg(si, sr, tr, 1);
    compact(urns[bu]);
    if (bv != bu) compact(urns[bv]);
    CIRCLES_DCHECK(matches_recompute());
  }

  /// Draw an ordered block with probability proportional to its rate.
  /// Callers skip this for single-urn runs (there is nothing to draw), so
  /// the single-urn RNG stream matches the historical engine's.
  std::size_t pick_block_by_rate() {
    const double r = rng.uniform01();
    double acc = 0.0;
    std::size_t last = 0;
    for (std::size_t b = 0; b < rates.size(); ++b) {
      if (rates[b] <= 0.0) continue;
      last = b;
      if (r < acc + rates[b]) return b;
      acc += rates[b];
    }
    return last;  // numeric fallback for r at the rounded-off tail
  }

  /// Draw the block containing the next state change: weights
  /// rate_b * active_b / capacity_b, whose sum `total` the caller computed.
  std::size_t pick_block_by_activity(double total) {
    double r = rng.uniform01() * total;
    std::size_t last = 0;
    for (std::size_t b = 0; b < rates.size(); ++b) {
      if (rates[b] <= 0.0 || active[b] == 0) continue;
      last = b;
      const double w =
          rates[b] * (static_cast<double>(active[b]) / pair_capacity[b]);
      if (r < w) return b;
      r -= w;
    }
    return last;
  }

  /// Draw the ordered active state pair within block (bu, bv), conditioned
  /// on being active (weights c_u[s] * (c_v[t] - [diag][s == t])). Whole
  /// initiator rows are skipped in O(1) through their mass c_u[s] A_v[s]
  /// (less the own-agent term) and only the selected row rewalks its
  /// responders — the same pair a full (s, t) walk lands on, because each
  /// row's mass equals its walked prefix.
  void pick_active_pair(std::size_t bu, std::size_t bv, pp::StateId& si,
                        pp::StateId& sr) {
    const Urn& urn_i = urns[bu];
    const Urn& urn_r = urns[bv];
    const bool diag = bu == bv;
    const std::uint64_t* a_v = fwd.data() + bv * engine.num_states_;
    std::uint64_t r = rng.uniform_below(active[bu * num_urns + bv]);
    for (const pp::StateId s : urn_i.present) {
      std::uint64_t row = urn_i.counts[s] * a_v[s];
      if (diag && engine.nonnull(s, s)) row -= urn_i.counts[s];
      if (r >= row) {
        r -= row;
        continue;
      }
      for (const pp::StateId t : urn_r.present) {
        if (!engine.nonnull(s, t)) continue;
        const std::uint64_t w =
            urn_i.counts[s] * (urn_r.counts[t] - (diag && s == t ? 1 : 0));
        if (r < w) {
          si = s;
          sr = t;
          return;
        }
        r -= w;
      }
      break;  // unreachable: the row walk covers exactly rows[s] mass
    }
    CIRCLES_CHECK_MSG(false, "active-pair draw walked past the count");
  }

  void touch_used(Urn& urn, pp::StateId s, std::uint64_t m) {
    if (urn.used[s] == 0) urn.touched.push_back(s);
    urn.used[s] += m;
    urn.used_total += m;
  }

  /// Removes m agents of state s from the used masses; s stays listed in
  /// `touched` (a zero entry walks as an empty category).
  void untouch_used(Urn& urn, pp::StateId s, std::uint64_t m) {
    urn.used[s] -= m;
    urn.used_total -= m;
  }

  void reset_used() {
    for (Urn& urn : urns) {
      for (const pp::StateId s : urn.touched) urn.used[s] = 0;
      urn.touched.clear();
      urn.used_total = 0;
    }
  }

  pp::StateId pick_used(Urn& urn, std::uint64_t total, std::uint64_t exclude) {
    std::uint64_t r = rng.uniform_below(total);
    for (const pp::StateId s : urn.touched) {
      std::uint64_t c = urn.used[s];
      if (s == exclude) c -= 1;
      if (r < c) return s;
      r -= c;
    }
    CIRCLES_CHECK_MSG(false, "used-agent draw walked past the epoch");
    return urn.touched.back();
  }

  pp::StateId pick_fresh(Urn& urn, std::uint64_t total) {
    std::uint64_t r = rng.uniform_below(total);
    for (const pp::StateId s : urn.present) {
      const std::uint64_t c = urn.counts[s] - urn.used[s];
      if (r < c) return s;
      r -= c;
    }
    CIRCLES_CHECK_MSG(false, "fresh-agent draw walked past the epoch");
    return urn.present.back();
  }

  // --- recorder views ------------------------------------------------------

  std::span<const std::uint64_t> rec_counts() const {
    if (num_urns == 1) {
      return std::span<const std::uint64_t>(urns[0].counts.data(),
                                            urns[0].counts.size());
    }
    return agg_counts;
  }
  std::span<const pp::StateId> rec_present() const {
    return num_urns == 1 ? std::span<const pp::StateId>(urns[0].present)
                         : std::span<const pp::StateId>(agg_present);
  }
  std::span<const std::span<const std::uint64_t>> rec_urns() const {
    if (num_urns == 1) return {};
    return urn_spans;
  }

  std::vector<std::uint64_t> output_histogram() const {
    std::vector<std::uint64_t> histogram(
        engine.protocol().num_output_symbols(), 0);
    for (const Urn& urn : urns) {
      for (std::size_t s = 0; s < urn.counts.size(); ++s) {
        if (urn.counts[s] > 0) {
          histogram[engine.protocol().output(static_cast<pp::StateId>(s))] +=
              urn.counts[s];
        }
      }
    }
    return histogram;
  }
};

pp::RunResult DenseEngine::run(DenseConfig& config, std::uint64_t seed,
                               obs::Recorder* recorder) const {
  util::Rng rng(seed);
  return run(config, rng, recorder);
}

pp::RunResult DenseEngine::run(DenseConfig& config, util::Rng& rng,
                               obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(config.num_states() == num_states_,
                    "configuration does not match the engine's protocol");
  CIRCLES_CHECK_MSG(lumping_.sizes.size() <= 1,
                    "engine was built for a multi-urn lumping; pass an "
                    "UrnConfig partitioned to match");
  std::span<std::uint64_t> span(config.counts);
  Sim sim(*this, std::span<std::span<std::uint64_t>>(&span, 1),
          std::span<const double>(&kUniformRate, 1), rng,
          recorder != nullptr);
  if (!lumping_.sizes.empty()) {
    CIRCLES_CHECK_MSG(sim.n == lumping_.sizes[0],
                      "configuration does not match the engine's urn sizes");
  }
  return run_impl(sim, recorder);
}

pp::RunResult DenseEngine::run(UrnConfig& config, std::uint64_t seed,
                               obs::Recorder* recorder) const {
  util::Rng rng(seed);
  return run(config, rng, recorder);
}

pp::RunResult DenseEngine::run(UrnConfig& config, util::Rng& rng,
                               obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(config.num_urns() >= 1, "urn config needs >= 1 urn");
  CIRCLES_CHECK_MSG(config.num_states() == num_states_,
                    "configuration does not match the engine's protocol");
  std::vector<std::span<std::uint64_t>> spans;
  spans.reserve(config.num_urns());
  for (auto& urn : config.urns) spans.push_back(std::span<std::uint64_t>(urn));

  if (lumping_.sizes.empty()) {
    CIRCLES_CHECK_MSG(config.num_urns() == 1,
                      "multi-urn configuration on a single-urn engine; "
                      "construct the DenseEngine with the scheduler's "
                      "UrnLumping");
    Sim sim(*this, spans, std::span<const double>(&kUniformRate, 1), rng,
            recorder != nullptr);
    return run_impl(sim, recorder);
  }
  CIRCLES_CHECK_MSG(config.num_urns() == lumping_.num_urns(),
                    "configuration urn count does not match the engine's "
                    "lumping");
  Sim sim(*this, spans, lumping_.rates, rng, recorder != nullptr);
  for (std::size_t u = 0; u < sim.num_urns; ++u) {
    CIRCLES_CHECK_MSG(sim.urns[u].n == lumping_.sizes[u],
                      "urn population does not match the engine's lumping");
  }
  return run_impl(sim, recorder);
}

const double DenseEngine::kUniformRate = 1.0;

pp::RunResult DenseEngine::run_impl(Sim& sim, obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(sim.n >= 2, "dense engine requires at least two agents");
  // The active-pair count is bounded by n(n-1), which must fit in uint64;
  // beyond 2^32 agents the arithmetic would silently wrap.
  CIRCLES_CHECK_MSG(sim.n <= (1ull << 32),
                    "dense engine supports at most 2^32 agents");

  pp::RunResult result;
  if (options_.stop_when_silent && sim.live_active == 0) result.silent = true;

  // One span per run on the calling thread; epochs/stages/jumps nest inside
  // (decimated — see kTraceFullEpochs). Null tracer: sim.trace stays null
  // and every emission site below is a pointer test.
  sim.trace = trace::buffer(options_.tracer);
  const trace::ScopedSpan run_span(sim.trace,
                                   mode_ == DenseMode::kBatched
                                       ? "dense.run_batched"
                                       : "dense.run_per_step",
                                   "n", sim.n);

  if (recorder != nullptr) {
    obs::ProbeContext ctx;
    ctx.protocol = &protocol();
    ctx.kernel = kernel_.get();
    ctx.n = sim.n;
    if (sim.num_urns > 1) ctx.urn_sizes = sim.urn_sizes;
    recorder->begin(ctx, sim.rec_counts(), sim.live_active, sim.rec_present(),
                    sim.rec_urns());
  }

  if (mode_ == DenseMode::kPerStep) {
    run_per_step(sim, result, recorder);
  } else {
    run_batched(sim, result, recorder);
  }
  sim.sync_out();

  if (!result.silent && result.interactions >= options_.max_interactions) {
    result.budget_exhausted = true;
    result.silent = sim.live_active == 0;
  } else if (result.silent) {
    // The run stopped on the exact silence certificate: the minimal stopping
    // time is the step after the final change (the epoch tail processed
    // past it contains only null interactions).
    result.interactions =
        result.state_changes == 0 ? 0 : result.last_change_step + 1;
  }

  result.final_outputs = sim.output_histogram();
  if (recorder != nullptr) {
    recorder->finish(result.interactions, 0.0, sim.rec_counts(),
                     sim.live_active, sim.rec_present(), sim.rec_urns());
  }

  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    m.counter("dense.runs").add(1);
    m.counter("dense.interactions").add(result.interactions);
    m.counter("dense.state_changes").add(result.state_changes);
    m.counter("dense.epochs").add(sim.m_epochs);
    m.counter("dense.fast_forward_jumps").add(sim.m_ff_jumps);
    m.counter("dense.fast_forward_interactions").add(sim.m_ff_skipped);
    m.counter("dense.mvhg_draws").add(sim.m_mvhg_draws);
    m.counter("dense.pair_draws").add(sim.m_pair_draws);
    m.counter("dense.parallel_epochs").add(sim.m_parallel_epochs);
    if (sim.m_pool_regions > 0) {
      // Summed worker busy time across this run's parallel regions, and the
      // fraction of the regions' (wall x budget) area it filled.
      m.timer("dense.parallel_workers")
          .record_ms(static_cast<double>(sim.m_pool_busy_ns) / 1e6);
      const double area = static_cast<double>(sim.m_pool_wall_ns) *
                          static_cast<double>(run_threads_);
      if (area > 0.0) {
        m.gauge("dense.parallel_utilization")
            .set(static_cast<double>(sim.m_pool_busy_ns) / area);
      }
    }
  }
  return result;
}

void DenseEngine::run_per_step(Sim& sim, pp::RunResult& result,
                               obs::Recorder* recorder) const {
  const std::size_t u_count = sim.num_urns;
  while (!result.silent && result.interactions < options_.max_interactions) {
    std::size_t block = 0;
    if (u_count > 1) block = sim.pick_block_by_rate();
    const std::size_t bu = block / u_count;
    const std::size_t bv = block % u_count;
    Sim::Urn& urn_i = sim.urns[bu];
    Sim::Urn& urn_r = sim.urns[bv];
    pp::StateId si, sr;
    if (bu == bv) {
      si = sim.pick_state(urn_i, urn_i.n, kNoExclude);
      sr = sim.pick_state(urn_i, urn_i.n - 1, si);
    } else {
      si = sim.pick_state(urn_i, urn_i.n, kNoExclude);
      sr = sim.pick_state(urn_r, urn_r.n, kNoExclude);
    }
    const pp::Transition tr = transition(si, sr);
    if (tr.initiator != si || tr.responder != sr) {
      sim.apply(bu, bv, si, sr, tr);
      result.state_changes += 1;
      result.last_change_step = result.interactions;
    }
    result.interactions += 1;
    if (options_.stop_when_silent && sim.live_active == 0) {
      result.silent = true;
    }
    // Per-step interactions are far too hot for per-event spans; one instant
    // every 64Ki steps keeps the timeline alive at zero measurable cost.
    if (sim.trace != nullptr && (result.interactions & 0xFFFF) == 0) {
      sim.trace->instant("dense.steps", "interactions", result.interactions);
    }
    if (recorder != nullptr) {
      recorder->advance(result.interactions, 0.0, sim.rec_counts(),
                        sim.live_active, sim.rec_present(), sim.rec_urns());
    }
  }
}

void DenseEngine::run_batched(Sim& sim, pp::RunResult& result,
                              obs::Recorder* recorder) const {
  auto& rng = sim.rng;
  const std::size_t u_count = sim.num_urns;
  const std::size_t num_blocks = u_count * u_count;
  const bool single = u_count == 1;

  // Single-urn epochs sample their length from the precomputed survival
  // table (one uniform draw — the historical engine's stream, preserved
  // bitwise). Multi-urn epochs have no closed-form length distribution (the
  // collision hazard depends on the drawn block sequence), so they sample
  // the exact sequential chain instead.
  std::optional<CollisionFreeRunLength> run_length;
  if (single) run_length.emplace(sim.n);

  // Expected epoch length, for the epoch-vs-jump price only (any value
  // yields an exact sampler; this is purely a performance choice).
  // Multi-urn: birthday heuristic — collisions appear once
  // sum_u (drawn_u^2 / n_u) ~ 2.
  double epoch_mean;
  if (single) {
    epoch_mean = run_length->mean_length();
  } else {
    double inv = 0.0;
    for (std::size_t u = 0; u < u_count; ++u) {
      double r_u = 0.0;
      for (std::size_t v = 0; v < u_count; ++v) {
        r_u += sim.rates[u * u_count + v] + sim.rates[v * u_count + u];
      }
      inv += r_u * r_u / static_cast<double>(sim.urns[u].n);
    }
    epoch_mean = 0.886 * std::sqrt(2.0 / inv);
  }

  // Multi-urn epochs fan their per-urn and per-block stages out across the
  // shared worker pool. Every stage writes task-indexed disjoint state and
  // the reductions below run serially in ascending index order, so results
  // are bitwise identical for any thread count (single-urn runs are pinned
  // to the historical main-stream order and never pool).
  const bool pooled = !single && sim.pool_threads > 1;
  if (pooled) warm_log_factorial();

  LastChangeMark mark;

  // Draws made by the latest epoch, and the run's draw total before it.
  double epoch_draws = sim.estimate_epoch_draws();
  std::uint64_t draws_before = 0;

  // Per-epoch scratch, carved from the run's arena once: stride-S rows per
  // block for the role deals, per-urn rows for the participant draws. Only
  // `seq` and the recorded pair groups keep dynamic vectors (their length
  // varies per epoch); both reuse their capacity across epochs.
  const std::size_t states = num_states_;
  std::vector<std::uint32_t> seq;                  // multi-urn block sequence
  const std::span<std::uint64_t> block_len =
      sim.arena.alloc<std::uint64_t>(num_blocks);
  const std::span<std::uint64_t> block_productive =
      sim.arena.alloc<std::uint64_t>(num_blocks);
  const std::span<std::uint64_t> phase1_used =
      sim.arena.alloc<std::uint64_t>(u_count);
  const std::span<std::size_t> width = sim.arena.alloc<std::size_t>(u_count);
  const std::span<std::uint64_t> init_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> resp_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> pool_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);
  const std::span<std::uint64_t> drawn_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);
  const std::span<std::uint64_t> rem_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);
  const std::span<std::uint64_t> mvhg_draws =
      sim.arena.alloc<std::uint64_t>(u_count);
  const std::span<std::uint64_t> participants =
      sim.arena.alloc<std::uint64_t>(u_count);
  // Pairing scratch, one stride-S row set per block so pooled blocks never
  // share it: the states and margins of the block's non-zero initiator rows
  // and responder columns.
  const std::span<pp::StateId> row_state_flat =
      sim.arena.alloc<pp::StateId>(num_blocks * states);
  const std::span<pp::StateId> col_state_flat =
      sim.arena.alloc<pp::StateId>(num_blocks * states);
  const std::span<std::uint64_t> row_m_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> col_m_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> pair_draws =
      sim.arena.alloc<std::uint64_t>(num_blocks);

  // One recorded productive group from an epoch's pairing stage: m matched
  // (s, t) pairs of one block, mapping through the non-null tr. The pairing
  // draws read only the dealt role rows and the frozen present-list
  // prefixes — never the counts they will mutate — so recording groups per
  // block (possibly concurrently) and applying them in ascending
  // (block, group) order is deterministic. Per block, the activity masks
  // over its non-zero rows x columns (plus the sampler's scratch) and the
  // sampled cells; both keep their capacity across epochs.
  struct PairGroup {
    pp::StateId s;
    pp::StateId t;
    pp::Transition tr;
    std::uint64_t m;
  };
  std::vector<std::vector<PairGroup>> groups(num_blocks);
  std::vector<std::vector<std::uint64_t>> masks(num_blocks);
  std::vector<std::vector<ContingencyCell>> cells(num_blocks);

  while (!result.silent && result.interactions < options_.max_interactions) {
    const std::uint64_t remaining =
        options_.max_interactions - result.interactions;

    // Sparse-activity fast-forward: an epoch costs about its draw count
    // regardless of how many of its interactions change state, while the
    // geometric path pays one jump per *change* (the null run in between is
    // one log). So jump while the expected changes of an epoch, priced at
    // kJumpCostDraws each, cost less than the draws the previous epoch made
    // (the configuration's estimate before the first). Both paths are exact
    // samplers; the price only decides which is cheaper.
    double p_change = 0.0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (sim.rates[b] <= 0.0) continue;
      p_change += sim.rates[b] *
                  (static_cast<double>(sim.active[b]) / sim.pair_capacity[b]);
    }
    if (p_change * epoch_mean * kJumpCostDraws < epoch_draws) {
      std::uint64_t nulls = remaining;
      if (p_change > 0.0) {
        const double g = std::floor(std::log1p(-rng.uniform01()) /
                                    std::log1p(-p_change));
        if (g < static_cast<double>(remaining)) {
          nulls = static_cast<std::uint64_t>(g);
        }
      }
      sim.m_ff_jumps += 1;
      const std::uint64_t skipped = nulls < remaining ? nulls : remaining;
      sim.m_ff_skipped += skipped;
      // Jumps are instants (the skipped null run has no internal structure),
      // decimated like epochs so silence tails stay cheap.
      if (sim.trace != nullptr &&
          (sim.m_ff_jumps <= kTraceFullEpochs ||
           sim.m_ff_jumps % kTraceStride == 0)) {
        sim.trace->instant("dense.fast_forward", "skipped", skipped);
      }
      if (nulls >= remaining) {
        result.interactions = options_.max_interactions;
        break;  // the budget ran out inside a null run
      }
      result.interactions += nulls;
      // The next interaction is a state change: draw its block (weights
      // rate_b * active_b / capacity_b), then the ordered pair conditioned
      // on being active.
      std::size_t block = 0;
      if (!single) block = sim.pick_block_by_activity(p_change);
      const std::size_t bu = block / u_count;
      const std::size_t bv = block % u_count;
      pp::StateId si = 0, sr = 0;
      sim.pick_active_pair(bu, bv, si, sr);
      sim.apply(bu, bv, si, sr, transition(si, sr));
      result.state_changes += 1;
      result.last_change_step = result.interactions;
      mark.valid = true;
      mark.exact = true;
      mark.index = result.interactions;
      result.interactions += 1;
      if (options_.stop_when_silent && sim.live_active == 0) {
        result.silent = true;
      }
      if (recorder != nullptr) {
        // One collapsed sample per fast-forward jump: the counts were
        // constant across the skipped null run, so the post-change index is
        // the exact position of this observation.
        recorder->advance(result.interactions, 0.0, sim.rec_counts(),
                          sim.live_active, sim.rec_present(), sim.rec_urns());
      }
      continue;
    }

    // One epoch: L collision-free interactions (participants distinct
    // within every urn), then the colliding interaction that ended the run,
    // then reset.
    sim.m_epochs += 1;
    // Full epoch spans early, one instant per kTraceStride epochs after: a
    // timeline shows the run's structure without per-epoch cost forever.
    const bool trace_epoch =
        sim.trace != nullptr && sim.m_epochs <= kTraceFullEpochs;
    if (trace_epoch) {
      sim.trace->begin("dense.epoch", "epoch", sim.m_epochs);
    } else if (sim.trace != nullptr && sim.m_epochs % kTraceStride == 0) {
      sim.trace->instant("dense.epochs", "stride", kTraceStride);
    }
    std::fill(block_len.begin(), block_len.end(), 0);
    std::fill(block_productive.begin(), block_productive.end(), 0);
    std::uint64_t len = 0;
    bool collided = false;
    std::size_t col_block = 0;

    if (single) {
      len = run_length->sample(rng);
      collided = true;
      if (len >= remaining) {
        len = remaining;
        collided = false;  // budget cut the epoch before any collision
      }
      block_len[0] = len;
    } else {
      // Exact sequential chain: each step draws its block from the rate
      // matrix and collides with the probability that a uniform agent draw
      // in the block's urns re-touches a used agent; one uniform drives
      // both decisions (the conditional remainder within the block's rate
      // interval is itself uniform).
      seq.clear();
      std::fill(phase1_used.begin(), phase1_used.end(), 0);
      while (static_cast<std::uint64_t>(seq.size()) < remaining) {
        const double r = rng.uniform01();
        std::size_t b = num_blocks;
        double r_in = 0.0;
        {
          double acc = 0.0;
          std::size_t last = num_blocks;
          for (std::size_t i = 0; i < num_blocks; ++i) {
            const double rate = sim.rates[i];
            if (rate <= 0.0) continue;
            last = i;
            if (r < acc + rate) {
              b = i;
              r_in = (r - acc) / rate;
              break;
            }
            acc += rate;
          }
          if (b == num_blocks) {
            b = last;  // rounding pushed r past the final live block
            r_in = 0.0;
          }
        }
        const std::size_t u = b / u_count;
        const std::size_t v = b % u_count;
        double p_col;
        if (u == v) {
          const double fresh =
              static_cast<double>(sim.urns[u].n - phase1_used[u]);
          p_col = 1.0 - fresh * (fresh - 1.0) /
                            (static_cast<double>(sim.urns[u].n) *
                             static_cast<double>(sim.urns[u].n - 1));
        } else {
          p_col = 1.0 -
                  (static_cast<double>(sim.urns[u].n - phase1_used[u]) /
                   static_cast<double>(sim.urns[u].n)) *
                      (static_cast<double>(sim.urns[v].n - phase1_used[v]) /
                       static_cast<double>(sim.urns[v].n));
        }
        if (r_in < p_col) {
          collided = true;
          col_block = b;
          break;
        }
        seq.push_back(static_cast<std::uint32_t>(b));
        block_len[b] += 1;
        if (u == v) {
          phase1_used[u] += 2;
        } else {
          phase1_used[u] += 1;
          phase1_used[v] += 1;
        }
      }
      len = seq.size();
    }

    // Participant state draws, per urn: T_u agents leave urn u this epoch
    // (initiators of blocks (u, *) plus responders of blocks (*, u); intra
    // blocks contribute on both sides). drawn ~ multivariate hypergeometric
    // from the urn's counts, then sequential splits deal the drawn states
    // across the urn's roles. Single-urn runs draw on the main RNG stream
    // (the historical order); multi-urn runs give urn u the forked
    // sub-stream fork(u), so the draws do not depend on urn iteration order
    // — which is what lets the urn tasks run concurrently: urn u writes
    // only its own pool/drawn/rem rows, the init rows (u, *), and the resp
    // rows (*, u), all disjoint across urns.
    const auto deal_urn = [&](std::size_t u) {
      Sim::Urn& urn = sim.urns[u];
      const std::size_t w = urn.present.size();
      width[u] = w;
      std::uint64_t t_u = 0;
      for (std::size_t v = 0; v < u_count; ++v) {
        t_u += block_len[u * u_count + v] + block_len[v * u_count + u];
      }
      participants[u] = t_u;
      if (t_u == 0) return;

      util::Rng forked(0);
      util::Rng* stream = &rng;
      if (!single) {
        forked = rng.fork(u);
        stream = &forked;
      }

      const std::span<std::uint64_t> pool = pool_flat.subspan(u * states, w);
      const std::span<std::uint64_t> drawn = drawn_flat.subspan(u * states, w);
      const std::span<std::uint64_t> rem = rem_flat.subspan(u * states, w);
      for (std::size_t i = 0; i < w; ++i) {
        pool[i] = urn.counts[urn.present[i]];
      }
      multivariate_hypergeometric(*stream, pool, t_u, drawn);
      mvhg_draws[u] += 1;

      std::copy(drawn.begin(), drawn.end(), rem.begin());
      std::uint64_t rem_total = t_u;
      const auto deal_role = [&](std::span<std::uint64_t> target,
                                 std::uint64_t count) {
        if (count == 0) return;
        if (rem_total == count) {
          // The last live role takes the remainder outright.
          std::copy(rem.begin(), rem.end(), target.begin());
          rem_total = 0;
          return;
        }
        multivariate_hypergeometric(*stream, rem, count, target);
        mvhg_draws[u] += 1;
        for (std::size_t i = 0; i < w; ++i) rem[i] -= target[i];
        rem_total -= count;
      };
      for (std::size_t v = 0; v < u_count; ++v) {
        const std::size_t b = u * u_count + v;
        deal_role(init_flat.subspan(b * states, w), block_len[b]);
      }
      for (std::size_t v = 0; v < u_count; ++v) {
        const std::size_t b = v * u_count + u;
        deal_role(resp_flat.subspan(b * states, w), block_len[b]);
      }
    };
    sim.run_tasks(u_count, pooled, "dense.stage.deal", deal_urn);
    if (pooled) sim.m_parallel_epochs += 1;

    // Pair initiators with responders per block: a uniformly random perfect
    // matching, sampled as a hypergeometric contingency table of which only
    // the non-null cells are drawn (sample_active_cells). Blocks draw from
    // their own forked sub-streams (fork(U + b)) on multi-urn runs, so the
    // record stage fans out per block; the draws depend only on the dealt
    // role rows and the frozen present prefixes (present lists are
    // append-only, so indices below width stay stable while groups apply).
    const auto pair_block = [&](std::size_t b) {
      std::vector<PairGroup>& out = groups[b];
      out.clear();
      if (block_len[b] == 0) return;
      const std::size_t u = b / u_count;
      const std::size_t v = b % u_count;
      const Sim::Urn& urn_i = sim.urns[u];
      const Sim::Urn& urn_r = sim.urns[v];
      const std::span<const std::uint64_t> init =
          init_flat.subspan(b * states, width[u]);
      const std::span<const std::uint64_t> resp =
          resp_flat.subspan(b * states, width[v]);

      // Compact the non-zero rows and columns, then mark the non-null cells
      // among them only, one bitmask per row.
      pp::StateId* const row_state = row_state_flat.data() + b * states;
      pp::StateId* const col_state = col_state_flat.data() + b * states;
      std::uint64_t* const row_m = row_m_flat.data() + b * states;
      std::uint64_t* const col_m = col_m_flat.data() + b * states;
      std::size_t num_rows = 0;
      std::size_t num_cols = 0;
      for (std::size_t a = 0; a < init.size(); ++a) {
        if (init[a] == 0) continue;
        row_state[num_rows] = urn_i.present[a];
        row_m[num_rows++] = init[a];
      }
      for (std::size_t c = 0; c < resp.size(); ++c) {
        if (resp[c] == 0) continue;
        col_state[num_cols] = urn_r.present[c];
        col_m[num_cols++] = resp[c];
      }
      const std::size_t words = active_words(num_cols);
      std::vector<std::uint64_t>& mask = masks[b];
      mask.resize(2 * num_rows * words);
      for (std::size_t i = 0; i < num_rows; ++i) {
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = 0;
          for (std::size_t j = w * 64; j < std::min(num_cols, w * 64 + 64);
               ++j) {
            bits |= std::uint64_t{nonnull(row_state[i], col_state[j])}
                    << (j % 64);
          }
          mask[i * words + w] = bits;
        }
      }

      util::Rng forked(0);
      util::Rng* stream = &rng;
      if (!single) {
        forked = rng.fork(u_count + b);
        stream = &forked;
      }
      std::vector<ContingencyCell>& sampled = cells[b];
      sampled.clear();
      const std::span<std::uint64_t> mask_span(mask);
      pair_draws[b] += sample_active_cells(
          *stream, std::span<const std::uint64_t>(row_m, num_rows),
          std::span<std::uint64_t>(col_m, num_cols),
          mask_span.first(num_rows * words), mask_span.last(num_rows * words),
          sampled);
      for (const ContingencyCell& cell : sampled) {
        const pp::StateId s = row_state[cell.row];
        const pp::StateId t = col_state[cell.col];
        out.push_back({s, t, transition(s, t), cell.m});
      }
    };
    sim.run_tasks(num_blocks, pooled, "dense.stage.pair", pair_block);

    // This epoch's draws price the next epoch-vs-jump decision (at least
    // one, so a silent configuration always fast-forwards).
    std::uint64_t draws_now = 0;
    for (std::size_t u = 0; u < u_count; ++u) draws_now += mvhg_draws[u];
    for (std::size_t b = 0; b < num_blocks; ++b) draws_now += pair_draws[b];
    epoch_draws = static_cast<double>(
        std::max<std::uint64_t>(draws_now - draws_before, 1));
    draws_before = draws_now;

    // Rebuild the used masses (the post-epoch states of this epoch's
    // participants, which collision resolution reads): every dealt
    // participant at its pre-epoch state, then the productive groups'
    // deltas. All post-transition states are added before any pre-transition
    // state is removed, so `touched` never lists a state twice.
    sim.reset_used();
    for (std::size_t u = 0; u < u_count; ++u) {
      if (participants[u] == 0) continue;
      Sim::Urn& urn = sim.urns[u];
      const std::span<const std::uint64_t> drawn =
          drawn_flat.subspan(u * states, width[u]);
      for (std::size_t i = 0; i < drawn.size(); ++i) {
        if (drawn[i] > 0) sim.touch_used(urn, urn.present[i], drawn[i]);
      }
    }

    // Apply the productive groups in ascending (block, group) order — the
    // only stage that touches counts, presence, the used masses, or the
    // aggregate view.
    std::uint64_t epoch_productive = 0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (block_len[b] == 0) continue;
      Sim::Urn& urn_i = sim.urns[b / u_count];
      Sim::Urn& urn_r = sim.urns[b % u_count];
      for (const PairGroup& g : groups[b]) {
        sim.add_delta(urn_i, g.s, 0 - g.m);
        sim.add_delta(urn_r, g.t, 0 - g.m);
        sim.add_delta(urn_i, g.tr.initiator, g.m);
        sim.add_delta(urn_r, g.tr.responder, g.m);
        sim.note_state(urn_i, g.tr.initiator);
        sim.note_state(urn_r, g.tr.responder);
        sim.touch_used(urn_i, g.tr.initiator, g.m);
        sim.touch_used(urn_r, g.tr.responder, g.m);
        sim.apply_agg(g.s, g.t, g.tr, g.m);
        block_productive[b] += g.m;
      }
      epoch_productive += block_productive[b];
    }
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (block_len[b] == 0) continue;
      Sim::Urn& urn_i = sim.urns[b / u_count];
      Sim::Urn& urn_r = sim.urns[b % u_count];
      for (const PairGroup& g : groups[b]) {
        sim.untouch_used(urn_i, g.s, g.m);
        sim.untouch_used(urn_r, g.t, g.m);
      }
    }
    // The epoch's net per-(urn, state) count changes update the active-pair
    // counts; a change-free epoch leaves both untouched.
    if (epoch_productive > 0) {
      sim.flush_deltas();
      CIRCLES_DCHECK(sim.matches_recompute());
    }

    const std::uint64_t epoch_start = result.interactions;
    result.interactions += len;
    result.state_changes += epoch_productive;
    if (epoch_productive > 0) {
      mark.valid = true;
      mark.exact = false;
      mark.start = epoch_start;
      mark.length = len;
      mark.productive = epoch_productive;
      mark.multi = !single;
      if (!single) {
        mark.seq.assign(seq.begin(), seq.end());
        mark.block_len.assign(block_len.begin(), block_len.end());
        mark.block_productive.assign(block_productive.begin(),
                                     block_productive.end());
      }
    }

    if (collided && result.interactions < options_.max_interactions) {
      // The interaction that ended the epoch re-touches a used agent: a
      // uniform ordered pair of its block conditioned on at least one
      // participant being used, drawn from the per-urn used/fresh masses.
      const std::size_t bu = col_block / u_count;
      const std::size_t bv = col_block % u_count;
      pp::StateId si, sr;
      if (bu == bv) {
        Sim::Urn& urn = sim.urns[bu];
        const std::uint64_t used_total = urn.used_total;
        const std::uint64_t fresh_total = urn.n - used_total;
        const std::uint64_t w_both = used_total * (used_total - 1);
        const std::uint64_t w_mixed = used_total * fresh_total;
        const std::uint64_t r = rng.uniform_below(w_both + 2 * w_mixed);
        if (r < w_both) {
          si = sim.pick_used(urn, used_total, kNoExclude);
          sr = sim.pick_used(urn, used_total - 1, si);
        } else if (r < w_both + w_mixed) {
          si = sim.pick_used(urn, used_total, kNoExclude);
          sr = sim.pick_fresh(urn, fresh_total);
        } else {
          si = sim.pick_fresh(urn, fresh_total);
          sr = sim.pick_used(urn, used_total, kNoExclude);
        }
      } else {
        Sim::Urn& urn_i = sim.urns[bu];
        Sim::Urn& urn_r = sim.urns[bv];
        const std::uint64_t mu = urn_i.used_total;
        const std::uint64_t mv = urn_r.used_total;
        const std::uint64_t fu = urn_i.n - mu;
        const std::uint64_t fv = urn_r.n - mv;
        const std::uint64_t w_both = mu * mv;
        const std::uint64_t w_used_fresh = mu * fv;
        const std::uint64_t w_fresh_used = fu * mv;
        const std::uint64_t r =
            rng.uniform_below(w_both + w_used_fresh + w_fresh_used);
        if (r < w_both) {
          si = sim.pick_used(urn_i, mu, kNoExclude);
          sr = sim.pick_used(urn_r, mv, kNoExclude);
        } else if (r < w_both + w_used_fresh) {
          si = sim.pick_used(urn_i, mu, kNoExclude);
          sr = sim.pick_fresh(urn_r, fv);
        } else {
          si = sim.pick_fresh(urn_i, fu);
          sr = sim.pick_used(urn_r, mv, kNoExclude);
        }
      }
      const pp::Transition tr = transition(si, sr);
      if (tr.initiator != si || tr.responder != sr) {
        sim.apply(bu, bv, si, sr, tr);
        result.state_changes += 1;
        epoch_productive += 1;
        mark.valid = true;
        mark.exact = true;
        mark.index = result.interactions;
      }
      result.interactions += 1;
    }

    // Emptied states leave the present lists only now, after the collision:
    // a state the collision refills keeps its place in the walk order.
    if (epoch_productive > 0) {
      for (Sim::Urn& urn : sim.urns) sim.compact(urn);
    }
    if (options_.stop_when_silent && sim.live_active == 0) {
      result.silent = true;
    }
    if (recorder != nullptr) {
      // Epoch-boundary sampling: counts are only well-defined between
      // epochs, so the snapshot carries the boundary's exact interaction
      // index rather than interpolating into the epoch.
      recorder->advance(result.interactions, 0.0, sim.rec_counts(),
                        sim.live_active, sim.rec_present(), sim.rec_urns());
    }
    if (trace_epoch) sim.trace->end("dense.epoch");
  }

  // The deal and pair tasks count their draws per urn and per block (so
  // pooled stages never share a counter); fold them into run totals here.
  for (std::size_t u = 0; u < u_count; ++u) sim.m_mvhg_draws += mvhg_draws[u];
  for (std::size_t b = 0; b < num_blocks; ++b) sim.m_pair_draws += pair_draws[b];

  // Resolve the exact step of the final change. Within an epoch each
  // block's slot assignment is exchangeable, so its productive slots form a
  // uniform subset of its occurrence positions; only the maximum matters
  // and only for the final epoch. Single-urn epochs are one block, so one
  // last_special_slot draw (the historical stream); multi-urn epochs place
  // each block's last productive occurrence and take the maximum.
  if (mark.valid) {
    if (mark.exact) {
      result.last_change_step = mark.index;
    } else if (!mark.multi) {
      const std::uint64_t slot =
          last_special_slot(rng, mark.length, mark.productive);
      result.last_change_step = mark.start + slot - 1;
    } else {
      std::uint64_t best = 0;
      for (std::size_t b = 0; b < mark.block_len.size(); ++b) {
        if (mark.block_productive[b] == 0) continue;
        const std::uint64_t slot = last_special_slot(
            rng, mark.block_len[b], mark.block_productive[b]);
        // Position (1-based, within the epoch) of block b's slot-th
        // occurrence in the saved sequence.
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < mark.seq.size(); ++i) {
          if (mark.seq[i] == b) {
            ++seen;
            if (seen == slot) {
              best = std::max(best, static_cast<std::uint64_t>(i + 1));
              break;
            }
          }
        }
      }
      CIRCLES_DCHECK(best >= 1);
      result.last_change_step = mark.start + best - 1;
    }
  }
}

}  // namespace circles::dense
