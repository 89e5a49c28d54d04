// A population: the agent vector plus the configuration multiset
// (Definition 1.1) maintained incrementally as per-state counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/types.hpp"

namespace circles::pp {

class Population {
 public:
  /// Builds a population whose agent i starts in protocol.input(colors[i]).
  Population(const Protocol& protocol, std::span<const ColorId> colors);

  /// Builds a population directly from explicit states (for tests).
  Population(std::uint64_t num_states, std::span<const StateId> states);

  std::uint32_t size() const { return static_cast<std::uint32_t>(agents_.size()); }
  std::uint64_t num_states() const { return counts_.size(); }

  StateId state(AgentId agent) const { return agents_[agent]; }

  /// Updates one agent's state, maintaining counts and the present-state set.
  void set_state(AgentId agent, StateId next);

  std::uint64_t count(StateId state) const { return counts_[state]; }
  /// The full per-state count vector (indexed by StateId) — the snapshot
  /// shape the obs:: probes consume.
  std::span<const std::uint64_t> counts() const { return counts_; }
  std::span<const StateId> agents() const { return agents_; }

  /// Number of distinct states currently present.
  std::size_t distinct_states() const { return present_.size(); }

  /// The distinct states currently present, in no particular order (a view
  /// of the maintained list; invalidated by set_state).
  std::span<const StateId> present() const { return present_; }

  /// Sorted list of the distinct states currently present.
  std::vector<StateId> present_states() const;

  /// Histogram of output symbols under `protocol` (sized num_output_symbols).
  std::vector<std::uint64_t> output_histogram(const Protocol& protocol) const;

  /// True iff all agents announce `symbol`.
  bool output_consensus(const Protocol& protocol, OutputSymbol symbol) const;

  /// Debug rendering: sorted "state_name x count" list.
  std::string to_string(const Protocol& protocol) const;

 private:
  void add_present(StateId s);
  void remove_present(StateId s);

  std::vector<StateId> agents_;
  std::vector<std::uint64_t> counts_;
  // Present states, swap-removed when their count drops to zero; position_
  // maps a present state to its index in present_.
  std::vector<StateId> present_;
  std::vector<std::uint32_t> position_;
};

}  // namespace circles::pp
