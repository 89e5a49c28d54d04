// Shared boilerplate for the experiment binaries (bench/exp_*.cpp).
//
// Every experiment binary prints a header naming the claim it reproduces,
// one or more tables, and a PASS/FAIL verdict line that EXPERIMENTS.md
// references. Binaries accept --trials/--seed style flags for deeper runs
// but default to settings that finish in seconds.
//
// All experiments run through the circles::sim session API: protocols are
// constructed by the ProtocolRegistry, sweeps are RunSpec grids, and the
// BatchRunner executes them across a thread pool (--threads). Results are
// bitwise identical for any thread count.
#pragma once

#include <cstdio>
#include <set>
#include <span>
#include <string>

#include "sim/sim.hpp"
#include "util/cli.hpp"

namespace circles::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), claim.c_str());
  std::printf("================================================================\n");
}

inline int verdict(bool pass, const std::string& summary) {
  std::printf("\n[%s] %s\n", pass ? "PASS" : "FAIL", summary.c_str());
  return pass ? 0 : 1;
}

/// The standard kernel-stats line, printed identically by every binary: one
/// line per distinct (protocol, k, table kind, entries) across the results
/// (build time is the first compile's — repeats differ only in noise), e.g.
///   kernel: circles k=3 — dense 729 entries, 7.1 KiB, built in 0.01 ms
inline void print_kernel_stats(std::span<const sim::SpecResult> results) {
  std::set<std::string> seen;
  for (const sim::SpecResult& result : results) {
    char head[64];
    std::snprintf(head, sizeof head, "%s k=%u", result.spec.protocol.c_str(),
                  result.spec.params.k);
    const std::string key = std::string(head) + "/" +
                            kernel::to_string(result.kernel_stats.kind) + "/" +
                            std::to_string(result.kernel_stats.entries);
    if (!seen.insert(key).second) continue;
    std::printf("kernel: %s — %s\n", head,
                result.kernel_stats.to_string().c_str());
  }
}

/// Declares the standard --threads flag and builds the BatchRunner options.
inline sim::BatchOptions batch_options(util::Cli& cli,
                                       std::uint64_t base_seed) {
  sim::BatchOptions options;
  options.threads = static_cast<std::uint32_t>(cli.int_flag(
      "threads", 0,
      "OUTER worker threads, across trials (batch runner pool; 0 = "
      "hardware). The INNER inside-a-run knob is --run-threads"));
  options.base_seed = base_seed;
  return options;
}

}  // namespace circles::bench
