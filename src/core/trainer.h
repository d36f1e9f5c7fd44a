// Training and evaluation protocol:
//   * train_dqn      — online DQN training across episodes of the epoch MDP,
//                      producing the learning curve (F3). Episodes run in
//                      rounds of `round` lockstep lanes: each step the agent
//                      acts for every lane, then the lanes' environment
//                      steps fan out across `actors` threads, then each
//                      lane's transition is observed — acts and observes on
//                      the calling thread in lane order, so only env steps
//                      run in parallel. round = 1 is the plain serial loop.
//   * evaluate       — one greedy / frozen-policy episode under any
//                      Controller, producing the comparison metrics (T1, T2)
// The oracle sweep over all static configurations is
// sweep_static_parallel (core/parallel.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/env_noc.h"
#include "rl/dqn.h"

namespace drlnoc::core {

/// Per-tenant slice of one evaluated episode (multi-tenant scenarios only;
/// aggregated across epochs from the per-epoch TenantEpochStats).
struct TenantEpisodeSummary {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t flits_ejected = 0;
  double mean_latency = 0.0;   ///< packet-weighted over measured deliveries
  double p95_latency = 0.0;    ///< max epoch p95 (worst window)
  double accepted_rate = 0.0;  ///< delivered packets / node / core-cycle
  // SLO accounting, populated when the scenario gives this tenant a
  // p95_target (latency-critical): an epoch counts when the tenant had
  // traffic (offered or measured), and hits when it had measured
  // deliveries whose p95 met the target — so a starved tenant scores
  // misses, matching the reward's full-violation convention.
  std::uint64_t slo_epochs = 0;  ///< epochs with traffic (target set)
  std::uint64_t slo_hits = 0;    ///< of those, epochs with p95 <= target
  double slo_hit_rate = 1.0;     ///< hits/epochs; 1 when no target or idle
  // Fault accounting (zero on a healthy fabric; see noc/faults.h).
  std::uint64_t flits_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t rerouted_hops = 0;
};

/// Aggregate metrics for one evaluated episode.
struct EpisodeResult {
  std::string controller;
  double total_reward = 0.0;
  double mean_latency = 0.0;      ///< packet-weighted mean over epochs
  double p95_latency = 0.0;       ///< max epoch p95 (worst window)
  double mean_power_mw = 0.0;     ///< time-weighted mean
  double mean_edp = 0.0;          ///< mean epoch EDP
  double offered_rate = 0.0;
  double accepted_rate = 0.0;
  std::uint64_t backlog_end = 0;
  // Fault accounting summed over the episode (zero on a healthy fabric).
  std::uint64_t flits_dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t rerouted_hops = 0;
  std::vector<noc::EpochStats> epochs;  ///< per-epoch detail (F4 timeline)
  std::vector<int> actions;             ///< chosen action per epoch
  /// One entry per tenant when the environment tracks tenants (scenario
  /// episodes); empty otherwise.
  std::vector<TenantEpisodeSummary> tenants;
};

/// Runs one episode with `controller` choosing configurations; no learning.
EpisodeResult evaluate(NocConfigEnv& env, Controller& controller,
                       bool keep_epochs = false);

struct TrainParams {
  int episodes = 40;
  /// Lockstep environment lanes per round. Part of the experiment
  /// definition, like a seed: lane l of round r runs global episode
  /// r*round + l of the serial per-episode seed stream. 1 = serial.
  int round = 1;
  /// Worker threads stepping the lanes; <= 0 means one per hardware
  /// thread. Never affects results.
  int actors = 0;
  int eval_every = 10;       ///< 0 disables periodic greedy evals
  bool verbose = false;
};

struct TrainResult {
  std::vector<double> episode_returns;  ///< training return per episode
  std::vector<double> episode_loss;     ///< mean TD loss per episode
  std::vector<double> eval_rewards;     ///< greedy return at eval points
  std::vector<int> eval_episodes;       ///< episode index of each eval
};

/// Trains `agent` on `env` for `params.episodes` episodes (see
/// docs/ARCHITECTURE.md, "Parallel training"). Lane 0 is `env`; lanes
/// 1..round-1 are built from env.params() with the observability taps
/// stripped and env's power reference, so calibration runs once. Episode
/// seeds continue from env.episode(): greedy evals (on `env`, after each
/// round) never shift the training seed stream.
TrainResult train_dqn(NocConfigEnv& env, rl::DqnAgent& agent,
                      const TrainParams& params);

}  // namespace drlnoc::core
