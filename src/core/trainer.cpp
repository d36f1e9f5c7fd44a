#include "core/trainer.h"

#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "obs/profiler.h"

namespace drlnoc::core {

EpisodeResult evaluate(NocConfigEnv& env, Controller& controller,
                       bool keep_epochs) {
  obs::ScopedPhase prof(obs::Phase::kEvaluate);
  EpisodeResult out;
  out.controller = controller.name();
  controller.begin_episode();

  env.set_eval_mode(true);
  rl::State state = env.reset();
  noc::EpochStats stats = env.last_stats();
  const double core_freq = env.params().power.core_freq_ghz;

  double latency_weighted = 0.0;
  double power_time = 0.0;
  double edp_sum = 0.0;
  double time_sum = 0.0;
  std::uint64_t packets = 0, offered = 0;
  double node_cycles = 0.0;
  int epochs = 0;
  std::vector<double> tenant_latency_weighted;
  std::vector<std::uint64_t> tenant_measured;

  bool done = false;
  while (!done) {
    const int action = controller.decide(stats, state);
    const rl::StepResult r = env.step(action);
    stats = env.last_stats();
    state = r.next_state;
    done = r.done;

    out.total_reward += r.reward;
    latency_weighted +=
        stats.avg_latency * static_cast<double>(stats.packets_received);
    packets += stats.packets_received;
    offered += stats.packets_offered;
    power_time += stats.avg_power_mw(core_freq) * stats.core_cycles;
    time_sum += stats.core_cycles;
    edp_sum += stats.edp();
    node_cycles += stats.core_cycles *
                   static_cast<double>(env.params().net.width *
                                       env.params().net.height);
    out.p95_latency = std::max(out.p95_latency, stats.p95_latency);
    out.backlog_end = stats.source_queue_total;
    out.flits_dropped += stats.flits_dropped;
    out.retries += stats.retries;
    out.packets_lost += stats.packets_lost;
    out.rerouted_hops += stats.rerouted_hops;
    if (!stats.tenants.empty()) {
      out.tenants.resize(stats.tenants.size());
      tenant_latency_weighted.resize(stats.tenants.size(), 0.0);
      tenant_measured.resize(stats.tenants.size(), 0);
      const scenario::Scenario* scn = env.params().scenario.get();
      for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
        const noc::TenantEpochStats& ts = stats.tenants[i];
        TenantEpisodeSummary& sum = out.tenants[i];
        sum.packets_offered += ts.packets_offered;
        sum.packets_received += ts.packets_received;
        sum.flits_ejected += ts.flits_ejected;
        sum.flits_dropped += ts.flits_dropped;
        sum.retries += ts.retries;
        sum.packets_lost += ts.packets_lost;
        sum.rerouted_hops += ts.rerouted_hops;
        sum.p95_latency = std::max(sum.p95_latency, ts.p95_latency);
        tenant_latency_weighted[i] +=
            ts.avg_latency * static_cast<double>(ts.packets_measured);
        tenant_measured[i] += ts.packets_measured;
        // SLO accounting against the scenario's declared target (if any) —
        // independent of whether the reward runs in QoS mode, so the
        // DRL-aggregate ablation reports hit rates too.
        const double target =
            scn && i < scn->tenants.size() ? scn->tenants[i].p95_target : 0.0;
        // An epoch counts when the tenant had traffic; starvation (offered
        // but nothing measured) is a miss, matching the reward path's
        // full-violation convention — only truly idle epochs are excused.
        if (target > 0.0 &&
            (ts.packets_measured > 0 || ts.packets_offered > 0)) {
          ++sum.slo_epochs;
          if (ts.packets_measured > 0 && ts.p95_latency <= target) {
            ++sum.slo_hits;
          }
        }
      }
    }
    if (keep_epochs) out.epochs.push_back(stats);
    out.actions.push_back(action);
    ++epochs;
  }

  env.set_eval_mode(false);
  out.mean_latency =
      packets > 0 ? latency_weighted / static_cast<double>(packets) : 0.0;
  out.mean_power_mw = time_sum > 0.0 ? power_time / time_sum : 0.0;
  out.mean_edp = epochs > 0 ? edp_sum / epochs : 0.0;
  out.offered_rate =
      node_cycles > 0.0 ? static_cast<double>(offered) / node_cycles : 0.0;
  out.accepted_rate =
      node_cycles > 0.0 ? static_cast<double>(packets) / node_cycles : 0.0;
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    TenantEpisodeSummary& sum = out.tenants[i];
    sum.mean_latency =
        tenant_measured[i] > 0
            ? tenant_latency_weighted[i] /
                  static_cast<double>(tenant_measured[i])
            : 0.0;
    sum.accepted_rate =
        node_cycles > 0.0
            ? static_cast<double>(sum.packets_received) / node_cycles
            : 0.0;
    sum.slo_hit_rate =
        sum.slo_epochs > 0 ? static_cast<double>(sum.slo_hits) /
                                 static_cast<double>(sum.slo_epochs)
                           : 1.0;
  }
  return out;
}

TrainResult train_dqn(NocConfigEnv& env, rl::DqnAgent& agent,
                      const TrainParams& params) {
  if (params.episodes < 0) {
    throw std::invalid_argument("train_dqn: episodes must be >= 0");
  }
  if (params.round < 1) {
    throw std::invalid_argument("train_dqn: round must be >= 1");
  }
  TrainResult result;
  const int lanes_max = std::min(params.round, params.episodes);
  const ExperimentRunner runner(params.actors);

  // Lane 0 is the caller's env; the others share its calibrated power
  // reference and run untapped (the observability taps are single-threaded).
  std::vector<NocConfigEnv*> envs{&env};
  std::vector<std::unique_ptr<NocConfigEnv>> owned;
  NocEnvParams lane_params = env.params();
  lane_params.recorder = nullptr;
  lane_params.metrics = nullptr;
  lane_params.reward.power_ref_mw = env.power_ref_mw();
  for (int l = 1; l < lanes_max; ++l) {
    owned.push_back(std::make_unique<NocConfigEnv>(lane_params));
    envs.push_back(owned.back().get());
  }

  const int first_episode = env.episode();
  std::vector<rl::State> states(envs.size());
  std::vector<int> actions(envs.size());
  std::vector<rl::StepResult> steps(envs.size());

  for (int first = 0, lanes = 0; first < params.episodes; first += lanes) {
    lanes = std::min(params.round, params.episodes - first);
    // seek_episode() pins lane l onto episode first + l of the serial seed
    // stream, whatever an eval or an earlier round did to the counter.
    runner.for_each(lanes, [&](int l) {
      envs[l]->seek_episode(first_episode + first + l);
      states[l] = envs[l]->reset();
    });
    std::vector<double> returns(lanes, 0.0), loss_sum(lanes, 0.0);
    std::vector<int> loss_count(lanes, 0);

    bool done = false;
    while (!done) {
      {
        obs::ScopedPhase rollout(obs::Phase::kRollout);
        for (int l = 0; l < lanes; ++l) actions[l] = agent.act(states[l]);
      }
      runner.for_each(lanes, [&](int l) {
        obs::ScopedPhase env_step(obs::Phase::kEnvStep);
        steps[l] = envs[l]->step(actions[l]);
      });
      obs::ScopedPhase learn(obs::Phase::kLearn);
      for (int l = 0; l < lanes; ++l) {
        rl::Transition t;
        t.state = std::move(states[l]);
        t.action = actions[l];
        t.reward = steps[l].reward;
        t.next_state = steps[l].next_state;
        t.done = steps[l].done;
        if (const auto loss = agent.observe(t)) {
          loss_sum[l] += *loss;
          ++loss_count[l];
        }
        returns[l] += steps[l].reward;
        states[l] = std::move(steps[l].next_state);
      }
      // Every lane runs the same fixed-length episode.
      done = steps[0].done;
    }

    for (int l = 0; l < lanes; ++l) {
      result.episode_returns.push_back(returns[l]);
      result.episode_loss.push_back(
          loss_count[l] ? loss_sum[l] / loss_count[l] : 0.0);
      const int episode = first + l + 1;
      if (params.eval_every > 0 && episode % params.eval_every == 0) {
        DrlController greedy(env.actions(), agent);
        const EpisodeResult eval = evaluate(env, greedy);
        result.eval_rewards.push_back(eval.total_reward);
        result.eval_episodes.push_back(episode);
        if (params.verbose) {
          std::cout << "episode " << episode << " return=" << returns[l]
                    << " eval=" << eval.total_reward
                    << " eps=" << agent.epsilon() << '\n';
        }
      }
    }
  }
  return result;
}

}  // namespace drlnoc::core
