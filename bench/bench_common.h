// Shared helpers for the experiment harnesses in bench/. Each binary prints
// one paper table/figure; these helpers keep the training and evaluation
// protocol identical across experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "obs/session.h"
#include "rl/dqn.h"
#include "scenario/runtime.h"
#include "scenario/scenario.h"
#include "scenario/scenario_io.h"
#include "util/config.h"
#include "util/table.h"

namespace drlnoc::bench {

/// Resolves the shared `--jobs N` flag (also accepted as `jobs=N`). The
/// default 0 means one worker per hardware thread. Every experiment is
/// bit-identical at any jobs value — the flag only buys wall-clock.
inline core::ExperimentRunner runner_from(const util::Config& cfg) {
  return core::ExperimentRunner(cfg.get("jobs", 0));
}

/// Clones a trained agent's policy network. Worker threads must not share
/// one DqnAgent (forward passes cache activations), so each parallel
/// evaluation task gets its own frozen copy; greedy actions are identical to
/// the original's because the weights are.
inline std::unique_ptr<rl::DqnAgent> clone_policy(const rl::DqnAgent& agent,
                                                  std::size_t state_size,
                                                  int num_actions) {
  std::stringstream weights;
  agent.save(weights);
  auto copy = std::make_unique<rl::DqnAgent>(state_size, num_actions,
                                             agent.params());
  copy->load_weights(weights);
  return copy;
}

/// Controller factory serving `agent` (trained on `trained_on`), which must
/// outlive the factory: each evaluation task gets its own clone_policy copy.
inline core::ControllerFactory drl_factory(
    const rl::DqnAgent& agent, const core::NocConfigEnv& trained_on) {
  const std::size_t state_size = trained_on.state_size();
  const int num_actions = trained_on.num_actions();
  return [&agent, state_size, num_actions](const core::NocConfigEnv& e)
      -> std::unique_ptr<core::Controller> {
    return std::make_unique<core::OwningDrlController>(
        e.actions(), clone_policy(agent, state_size, num_actions));
  };
}

/// Controller factory for a non-learning baseline: "heuristic" (sized for
/// `num_nodes` routers), "static-max" or "static-min".
inline core::ControllerFactory baseline_factory(const std::string& name,
                                                int num_nodes) {
  return [name, num_nodes](const core::NocConfigEnv& e) {
    return core::make_baseline_controller(name, e.actions(), num_nodes);
  };
}

/// Loads the checked-in bench scenario `file` from scenarios/ (the
/// DRLNOC_SCENARIO_DIR the build defines) through ScenarioReader. The
/// scenario keys in `overrides` (e.g. `--smoke`'s size) replace the
/// file's values; then every CLI key in `cli_keys` that `cfg` holds
/// replaces the scenario key it maps to (`bg_rate` -> `tenant1.rate`), so
/// the file supplies every default the command line leaves out.
inline std::shared_ptr<const scenario::Scenario> load_scenario(
    const std::string& file, std::map<std::string, std::string> overrides,
    const util::Config& cfg = {},
    const std::map<std::string, std::string>& cli_keys = {}) {
  for (const auto& [cli_key, key] : cli_keys) {
    if (const auto value = cfg.raw(cli_key)) overrides[key] = *value;
  }
  return std::make_shared<const scenario::Scenario>(util::parse_text_file(
      std::string(DRLNOC_SCENARIO_DIR) + "/" + file, "scenario",
      [&](const std::string& text, const std::string& dir) {
        return scenario::ScenarioReader::read_text(text, dir, overrides);
      }));
}

/// Trains a fresh agent (rl::standard_dqn) on `env` and returns it.
/// `round` is part of the experiment definition (changing it changes the
/// curve, like a seed); `actors` only fans the environment steps across
/// threads — results are bit-identical at any value.
inline std::unique_ptr<rl::DqnAgent> train_agent(core::NocConfigEnv& env,
                                                 int episodes, int round = 1,
                                                 int actors = 0) {
  const auto steps =
      static_cast<std::uint64_t>(episodes) *
      static_cast<std::uint64_t>(env.params().epochs_per_episode);
  auto agent = std::make_unique<rl::DqnAgent>(
      env.state_size(), env.num_actions(), rl::standard_dqn(steps));
  core::TrainParams tp;
  tp.episodes = episodes;
  tp.round = round;
  tp.actors = actors;
  tp.eval_every = 0;
  core::train_dqn(env, *agent, tp);
  return agent;
}

/// Honors `--trace-out=` / `--metrics-out=` / `--trace-sample=` on the table
/// benches: when any flag is set, runs `scenario` once more with the
/// observability taps attached and writes the artifacts. Runs AFTER the
/// measured comparisons so every timed/aggregated cell stays observer-free;
/// `duration_cap` bounds the extra run. Returns false when an artifact
/// could not be written (benches fold this into their exit code).
inline bool maybe_traced_run(const util::Config& cfg,
                             const scenario::Scenario& scenario,
                             double duration_cap = 20000.0) {
  obs::ObsSession session(obs::ObsOptions::from_config(cfg));
  if (!session.enabled()) return true;
  scenario.validate();
  auto net = scenario::build_network(scenario);
  auto workload = scenario::build_workload(scenario, net->topology());
  session.attach(*net);
  session.annotate_scenario(scenario);
  scenario::ScenarioRunParams rp;
  rp.cycle_limit = scenario.cycle_limit;
  rp.duration = scenario.duration > 0.0
                    ? std::min(scenario.duration, duration_cap)
                    : duration_cap;
  scenario::run_scenario(*net, *workload, rp);
  return session.finish();
}

/// Per-tenant mean + 95% CI over the replicas of one controller.
struct TenantCi {
  core::MetricSummary latency;
  core::MetricSummary p95;
  core::MetricSummary throughput;
  core::MetricSummary slo_hit_rate;
};

inline std::vector<TenantCi> tenant_cis(const core::ReplicationResult& rep,
                                        std::size_t num_tenants) {
  std::vector<TenantCi> out(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    std::vector<double> lat, p95, thru, slo;
    for (const core::Replica& r : rep.replicas) {
      const core::TenantEpisodeSummary& s = r.result.tenants[t];
      lat.push_back(s.mean_latency);
      p95.push_back(s.p95_latency);
      thru.push_back(s.accepted_rate);
      slo.push_back(s.slo_hit_rate);
    }
    out[t].latency = core::summarize_metric(lat);
    out[t].p95 = core::summarize_metric(p95);
    out[t].throughput = core::summarize_metric(thru);
    out[t].slo_hit_rate = core::summarize_metric(slo);
  }
  return out;
}

/// Appends one controller-comparison row.
inline void result_row(util::Table& table, const core::EpisodeResult& r) {
  table.row()
      .cell(r.controller)
      .cell(r.total_reward, 2)
      .cell(r.mean_latency, 1)
      .cell(r.p95_latency, 1)
      .cell(r.mean_power_mw, 1)
      .cell(r.mean_edp / 1e6, 3)
      .cell(static_cast<long long>(r.backlog_end));
}

inline std::vector<std::string> result_headers() {
  return {"controller", "reward",       "latency", "p95",
          "power_mW",   "EDP(1e6pJcyc)", "backlog"};
}

}  // namespace drlnoc::bench
