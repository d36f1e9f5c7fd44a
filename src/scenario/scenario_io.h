// Versioned `.drlsc` scenario description format, written in the common
// `key = value` grammar of docs/FORMATS.md (magic `drlsc 1`; sections
// `[controller]`, `[faults]`, `[churn]`; unknown keys rejected with their
// line). One file captures a whole multi-tenant experiment — topology,
// tenants, workloads, run horizon — so experiments are reproducible from a
// single artifact.
//
//   drlsc 1
//   name = dnn_plus_background
//   topology = mesh          # mesh | torus | ring
//   width = 8
//   height = 8
//   seed = 42
//   duration = 0             # core cycles; 0 = run until tenants finish
//
//   tenants = 2
//   tenant0.name = dnn
//   tenant0.workload = trace # trace | steady | phased
//   tenant0.trace = dnn.drltrc   # path relative to the scenario file
//   tenant0.rate_scale = 1.0
//   tenant0.nodes = 0-15     # node set: "all", ids, inclusive ranges
//   tenant0.qos = latency_critical   # latency_critical|best_effort|background
//   tenant0.p95_target = 350         # p95 SLO, core cycles (critical only)
//   tenant1.name = background
//   tenant1.workload = steady
//   tenant1.pattern = uniform
//   tenant1.rate = 0.04
//   tenant1.start = 500      # activity window [start, stop) in core cycles
//   tenant1.stop = 30000
//   tenant1.qos = background
//
//   [controller]             # optional: controller schedule for `run`
//   type = drl               # drl | heuristic | static-max | static-min
//   policy = mix.policy      # drl only: DqnAgent::save output, relative path
//   epoch_cycles = 512       # router cycles between controller decisions
//   epochs = 48              # decision epochs per scheduled run
//
//   [churn]                  # optional: seeded tenant arrival/departure
//   seed = 11                # dedicated churn stream (splitmix64)
//   arrival_rate = 0.0002    # Poisson arrivals per core cycle
//   capacity = 3             # FIFO admission cap; 0 = unlimited
//   templates = 1
//   template0.tenant = 1     # arrivals clone this declared tenant
//   template0.lifetime = exponential   # exponential | fixed | uniform
//   template0.lifetime_mean = 8000
//
// Referenced traces and policies are loaded eagerly so a parsed Scenario is
// self-contained. A `[churn]` block is expanded into concrete windowed
// tenants at load time (see scenario/churn.h); the writer emits only the
// declared tenants plus the block, and re-reading re-expands identically.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "scenario/scenario.h"

namespace drlnoc::scenario {

inline constexpr int kScenarioFormatVersion = 1;
inline constexpr char kScenarioExtension[] = ".drlsc";

class ScenarioReader {
 public:
  /// Parses scenario text; trace paths resolve relative to `base_dir`
  /// (empty = the working directory). Throws as Config::from_text does on
  /// grammar errors and std::invalid_argument on bad keys or values; the
  /// returned scenario is validated.
  static Scenario read_text(const std::string& text,
                            const std::string& base_dir = "");
  /// Like read_text, but applies `overrides` (flattened key -> value, e.g.
  /// "tenant0.rate" or "churn.capacity") on top of the file's keys before
  /// parsing — the mechanism `.drlfs` scenario spaces use to sweep axes.
  /// Override keys that nothing consumes are rejected like typos.
  static Scenario read_text(const std::string& text,
                            const std::string& base_dir,
                            const std::map<std::string, std::string>& overrides);
  /// Reads and parses `path`; trace paths resolve relative to its directory.
  static Scenario read_file(const std::string& path);
};

class ScenarioWriter {
 public:
  /// Emits the canonical `.drlsc` text. Trace tenants must carry a
  /// `trace_file` (in-memory-only traces cannot be serialised by reference).
  static void write_text(std::ostream& os, const Scenario& scenario);
  static void write_file(const std::string& path, const Scenario& scenario);
};

}  // namespace drlnoc::scenario
