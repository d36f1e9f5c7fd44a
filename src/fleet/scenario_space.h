// Fleet scenario spaces: a versioned `.drlfs` spec, in the common
// `key = value` grammar of docs/FORMATS.md (magic `drlfs 1`, no sections,
// unknown keys rejected with their line), that names a base
// `.drlsc` scenario and sweeps axes over it (tenant mixes, QoS ratios,
// injection rates, placements, fault severities, churn intensities),
// producing a family of hundreds of concrete scenarios. Every point of the
// space is reproducible from `(spec, index)` alone — expansion applies the
// index's axis values as key overrides on the base scenario text and
// re-parses it, so a fleet run can be sharded, killed and resumed without
// ever shipping expanded scenario files around.
//
//   drlfs 1
//   name = qos_churn_sweep
//   base = base.drlsc          # path relative to the spec file
//   seeds = 3                  # seed replicas per point (net.seed + 0..N-1)
//   axes = 2
//   axis0.key = tenant1.rate   # any flattened .drlsc key
//   axis0.values = 0.02,0.05,0.08
//   axis1.key = churn.arrival_rate
//   axis1.count = 2            # indexed form, for values containing commas
//   axis1.value0 = 0.0005
//   axis1.value1 = 0.002
//
// Index layout is mixed-radix with the seed replica innermost (fastest),
// then axes in declaration order: index = ((axisN..axis0) * seeds) + seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace drlnoc::fleet {

inline constexpr int kFleetSpecFormatVersion = 1;
inline constexpr char kFleetSpecExtension[] = ".drlfs";

/// One sweep axis: a flattened `.drlsc` key and the values it takes.
struct SpaceAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One expanded point of a scenario space.
struct ExpandedScenario {
  std::size_t index = 0;
  /// Stable human name: "<spec>[<index>] key=value ... seed+<k>".
  std::string label;
  /// The axis overrides this index applied to the base scenario.
  std::map<std::string, std::string> overrides;
  /// Seed replica number in [0, seeds); the scenario's net.seed is already
  /// offset by it.
  std::uint64_t seed_offset = 0;
  scenario::Scenario scenario;
};

/// A parsed `.drlfs` spec plus the eagerly loaded base scenario text.
class ScenarioSpace {
 public:
  std::string name = "fleet";
  std::string base_file;  ///< provenance, as written in the spec
  std::string base_text;  ///< the base `.drlsc` contents, loaded eagerly
  std::string base_dir;   ///< traces/policies resolve relative to this
  std::string spec_text;  ///< the raw spec text (content-hash input)
  int seeds = 1;
  std::vector<SpaceAxis> axes;

  /// Number of concrete scenarios: product of axis sizes times `seeds`.
  std::size_t size() const;

  /// Overrides + seed offset for `index` without parsing the scenario —
  /// cheap enough for describe/progress tooling.
  ExpandedScenario point(std::size_t index) const;

  /// Fully expands index: applies the overrides to the base text, parses,
  /// churn-expands and validates the scenario, and offsets net.seed by the
  /// seed replica. Throws std::out_of_range past size() and propagates
  /// scenario parse errors (annotated with the point's label).
  ExpandedScenario expand(std::size_t index) const;

  /// Throws std::invalid_argument on malformed specs: no axes values,
  /// duplicate axis keys, seeds < 1, or a space bigger than the sanity cap
  /// (1e6 points — a fleet is hundreds of scenarios, not millions).
  void validate() const;
};

class ScenarioSpaceReader {
 public:
  /// Parses spec text; `base_dir` resolves the base scenario path (empty =
  /// working directory). The base scenario file is read eagerly; index 0 is
  /// expanded once as a smoke check so obviously broken specs fail at load
  /// time, not mid-fleet.
  static ScenarioSpace read_text(const std::string& text,
                                 const std::string& base_dir = "");
  static ScenarioSpace read_file(const std::string& path);
};

}  // namespace drlnoc::fleet
