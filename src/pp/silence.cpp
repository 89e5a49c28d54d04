#include "pp/silence.hpp"

#include "kernel/compiled_protocol.hpp"

namespace circles::pp {

bool is_silent(const Population& population, const Protocol& protocol) {
  const auto present = population.present();
  for (const StateId s : present) {
    for (const StateId t : present) {
      if (s == t && population.count(s) < 2) continue;
      const Transition tr = protocol.transition(s, t);
      if (tr.initiator != s || tr.responder != t) return false;
    }
  }
  return true;
}

bool is_silent(const Population& population,
               const kernel::CompiledProtocol& kernel,
               std::uint64_t* sparse_hits) {
  return kernel.config_silent(
      population.present(), [&](StateId s) { return population.count(s); },
      sparse_hits);
}

}  // namespace circles::pp
