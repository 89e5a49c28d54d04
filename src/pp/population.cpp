#include "pp/population.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace circles::pp {

Population::Population(const Protocol& protocol,
                       std::span<const ColorId> colors)
    : counts_(protocol.num_states(), 0), position_(protocol.num_states(), 0) {
  agents_.reserve(colors.size());
  for (const ColorId color : colors) {
    CIRCLES_CHECK_MSG(color < protocol.num_colors(),
                      "input color out of range");
    const StateId s = protocol.input(color);
    CIRCLES_CHECK(s < counts_.size());
    agents_.push_back(s);
    if (counts_[s]++ == 0) add_present(s);
  }
}

Population::Population(std::uint64_t num_states,
                       std::span<const StateId> states)
    : counts_(num_states, 0), position_(num_states, 0) {
  agents_.reserve(states.size());
  for (const StateId s : states) {
    CIRCLES_CHECK(s < counts_.size());
    agents_.push_back(s);
    if (counts_[s]++ == 0) add_present(s);
  }
}

void Population::set_state(AgentId agent, StateId next) {
  CIRCLES_DCHECK(agent < agents_.size());
  CIRCLES_DCHECK(next < counts_.size());
  const StateId prev = agents_[agent];
  if (prev == next) return;
  agents_[agent] = next;
  if (--counts_[prev] == 0) remove_present(prev);
  if (counts_[next]++ == 0) add_present(next);
}

void Population::add_present(StateId s) {
  position_[s] = static_cast<std::uint32_t>(present_.size());
  present_.push_back(s);
}

void Population::remove_present(StateId s) {
  const StateId last = present_.back();
  present_[position_[s]] = last;
  position_[last] = position_[s];
  present_.pop_back();
}

std::vector<StateId> Population::present_states() const {
  std::vector<StateId> out(present_.begin(), present_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> Population::output_histogram(
    const Protocol& protocol) const {
  std::vector<std::uint64_t> hist(protocol.num_output_symbols(), 0);
  for (const StateId s : present_states()) {
    const OutputSymbol o = protocol.output(s);
    CIRCLES_CHECK(o < hist.size());
    hist[o] += counts_[s];
  }
  return hist;
}

bool Population::output_consensus(const Protocol& protocol,
                                  OutputSymbol symbol) const {
  for (const StateId s : present_states()) {
    if (protocol.output(s) != symbol) return false;
  }
  return true;
}

std::string Population::to_string(const Protocol& protocol) const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const StateId s : present_states()) {
    if (!first) os << ", ";
    first = false;
    os << protocol.state_name(s) << " x" << counts_[s];
  }
  os << '}';
  return os.str();
}

}  // namespace circles::pp
