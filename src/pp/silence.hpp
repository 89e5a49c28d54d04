// Exact silence detection.
//
// A configuration is *silent* when no scheduled interaction can change any
// state: for all ordered pairs (s, t) of present states (requiring count >= 2
// when s == t), transition(s, t) == (s, t). Silence certifies that outputs
// are stable forever — it is the strongest convergence certificate a finite
// run can produce, and all correctness experiments insist on it.
#pragma once

#include <cstdint>

#include "pp/population.hpp"
#include "pp/protocol.hpp"

namespace circles::kernel {
class CompiledProtocol;
}

namespace circles::pp {

bool is_silent(const Population& population, const Protocol& protocol);

/// Kernel variant: per-pair null-ness is a flag load (plus the adjacency
/// index when available), not a virtual transition() call. A non-null
/// `sparse_hits` tallies sparse-cache hits as kernel::CompiledProtocol::
/// transition does.
bool is_silent(const Population& population,
               const kernel::CompiledProtocol& kernel,
               std::uint64_t* sparse_hits = nullptr);

}  // namespace circles::pp
