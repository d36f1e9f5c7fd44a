#include <gtest/gtest.h>

#include "core/action_space.h"
#include "core/controller.h"
#include "core/env_noc.h"
#include "core/features.h"
#include "core/parallel.h"
#include "core/reward.h"
#include "core/trainer.h"

namespace drlnoc::core {
namespace {

TEST(ActionSpace, SizeAndRoundTrip) {
  ActionSpace space = ActionSpace::standard();
  EXPECT_EQ(space.size(), 36);
  for (int a = 0; a < space.size(); ++a) {
    EXPECT_EQ(space.index_of(space.decode(a)), a);
  }
  EXPECT_THROW(space.decode(36), std::out_of_range);
  EXPECT_THROW(space.decode(-1), std::out_of_range);
}

TEST(ActionSpace, ExtremesAreMinAndMax) {
  ActionSpace space = ActionSpace::standard();
  const noc::NocConfig lo = space.decode(space.min_action());
  const noc::NocConfig hi = space.decode(space.max_action());
  EXPECT_EQ(lo.active_vcs, 1);
  EXPECT_EQ(lo.active_depth, 2);
  EXPECT_EQ(lo.dvfs_level, 0);
  EXPECT_EQ(hi.active_vcs, 4);
  EXPECT_EQ(hi.active_depth, 8);
  EXPECT_EQ(hi.dvfs_level, 3);
}

TEST(ActionSpace, IndexOfRejectsForeignConfig) {
  ActionSpace space = ActionSpace::standard();
  EXPECT_THROW(space.index_of(noc::NocConfig{3, 8, 3}),
               std::invalid_argument);
}

TEST(ActionSpace, TwoClassVariantExcludesSingleVc) {
  ActionSpace space = ActionSpace::standard_two_class();
  for (int a = 0; a < space.size(); ++a) {
    EXPECT_GE(space.decode(a).active_vcs, 2);
  }
}

TEST(Features, NormalizedAndSized) {
  ActionSpace space = ActionSpace::standard();
  FeatureExtractor fx(space, 16);
  EXPECT_EQ(fx.state_size(), 10u + 3 + 3 + 4);
  EXPECT_EQ(fx.feature_names().size(), fx.state_size());

  noc::EpochStats s;
  s.offered_rate = 0.1;
  s.accepted_rate = 0.09;
  s.avg_latency = 50.0;
  s.p95_latency = 120.0;
  s.avg_buffer_occupancy = 0.3;
  s.hotspot_skew = 3.0;
  s.source_queue_total = 64;
  s.config = {2, 4, 1};
  const rl::State state = fx.extract(s);
  ASSERT_EQ(state.size(), fx.state_size());
  for (double v : state) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Config one-hots: exactly 3 ones.
  double onehot_sum = 0.0;
  for (std::size_t i = 10; i < state.size(); ++i) onehot_sum += state[i];
  EXPECT_DOUBLE_EQ(onehot_sum, 3.0);
}

TEST(Features, EwmaSmoothsAcrossEpochsAndResets) {
  ActionSpace space = ActionSpace::standard();
  FeatureExtractor fx(space, 16);
  noc::EpochStats lo;
  lo.offered_rate = 0.0;
  lo.config = {1, 2, 0};
  noc::EpochStats hi = lo;
  hi.offered_rate = 0.25;
  fx.extract(lo);
  const rl::State after_jump = fx.extract(hi);
  // load_ewma (index 2) must lag the instantaneous offered rate (index 0).
  EXPECT_LT(after_jump[2], after_jump[0]);
  fx.reset();
  const rl::State fresh = fx.extract(lo);
  EXPECT_DOUBLE_EQ(fresh[2], 0.0);
}

TEST(Reward, PrefersFastAndFrugal) {
  RewardParams rp;
  rp.power_ref_mw = 100.0;
  RewardFunction reward(rp);
  noc::EpochStats good;
  good.avg_latency = 10.0;
  good.offered_rate = good.accepted_rate = 0.05;
  good.packets_offered = good.packets_received = 100;
  good.dynamic_energy_pj = 1000.0;
  good.static_energy_pj = 1000.0;
  good.core_cycles = 1000.0;
  noc::EpochStats slow = good;
  slow.avg_latency = 500.0;
  noc::EpochStats hungry = good;
  hungry.dynamic_energy_pj = 100000.0;
  EXPECT_GT(reward.compute(good), reward.compute(slow));
  EXPECT_GT(reward.compute(good), reward.compute(hungry));
}

TEST(Reward, SaturationDominates) {
  RewardParams rp;
  rp.power_ref_mw = 100.0;
  RewardFunction reward(rp);
  noc::EpochStats sat;
  sat.avg_latency = 200.0;
  sat.offered_rate = 0.2;
  sat.accepted_rate = 0.05;  // carrying 25% of offered
  sat.packets_offered = 400;
  sat.packets_received = 100;
  sat.source_queue_total = 2000;
  sat.core_cycles = 1000.0;
  const auto b = reward.breakdown(sat);
  EXPECT_GT(b.saturation_term, b.latency_term);
  EXPECT_GT(b.saturation_term, 2.0);
  EXPECT_LT(b.reward, -3.0);
}

TEST(Reward, ZeroDeliveryCountsAsSaturated) {
  RewardParams rp;
  rp.power_ref_mw = 100.0;
  RewardFunction reward(rp);
  noc::EpochStats dead;
  dead.packets_offered = 50;
  dead.packets_received = 0;
  dead.offered_rate = 0.1;
  dead.accepted_rate = 0.0;
  dead.core_cycles = 500.0;
  const auto b = reward.breakdown(dead);
  EXPECT_DOUBLE_EQ(b.latency_term, rp.w_latency);
}

TEST(Controllers, StaticFactories) {
  ActionSpace space = ActionSpace::standard();
  auto mx = StaticController::maximal(space);
  auto mn = StaticController::minimal(space);
  EXPECT_EQ(mx->action(), space.max_action());
  EXPECT_EQ(mn->action(), space.min_action());
  EXPECT_EQ(mx->name(), "static-max");
  noc::EpochStats s;
  rl::State st;
  EXPECT_EQ(mx->decide(s, st), space.max_action());
  EXPECT_THROW(StaticController(space, 99, "x"), std::out_of_range);
}

TEST(Controllers, HeuristicEscalatesAndRelaxes) {
  ActionSpace space = ActionSpace::standard();
  HeuristicParams hp;
  hp.num_nodes = 16;
  HeuristicController h(space, hp);
  h.begin_episode();
  EXPECT_EQ(h.ladder_position(), h.ladder_size() - 1);  // starts provisioned

  rl::State st;
  noc::EpochStats calm;
  calm.avg_buffer_occupancy = 0.01;
  calm.avg_latency = 10.0;
  calm.source_queue_total = 0;
  // Several calm epochs -> steps down the ladder.
  for (int i = 0; i < 12; ++i) h.decide(calm, st);
  EXPECT_LT(h.ladder_position(), h.ladder_size() - 1);
  const int relaxed = h.ladder_position();

  noc::EpochStats pressure;
  pressure.avg_buffer_occupancy = 0.8;
  pressure.avg_latency = 500.0;
  pressure.source_queue_total = 1000;
  h.decide(pressure, st);
  EXPECT_GT(h.ladder_position(), relaxed);  // escalates immediately
}

TEST(Controllers, HeuristicLadderIsMonotone) {
  ActionSpace space = ActionSpace::standard();
  HeuristicController h(space);
  // Walk the ladder from bottom to top: capability must not decrease.
  rl::State st;
  noc::EpochStats pressure;
  pressure.avg_buffer_occupancy = 1.0;
  pressure.avg_latency = 1e6;
  pressure.source_queue_total = 1 << 20;
  h.begin_episode();
  noc::EpochStats calm;
  calm.avg_latency = 1.0;
  for (int i = 0; i < 100; ++i) h.decide(calm, st);  // sink to the bottom
  int prev_cap = -1;
  for (int i = 0; i < h.ladder_size() + 2; ++i) {
    const int action = h.decide(pressure, st);
    const noc::NocConfig c = space.decode(action);
    const int cap = c.active_vcs * c.active_depth * (c.dvfs_level + 1);
    EXPECT_GE(cap, prev_cap);
    prev_cap = cap;
  }
}

NocEnvParams small_env() {
  NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 3;
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 6;
  ep.reward.power_ref_mw = 300.0;  // skip auto-calibration for speed
  return ep;
}

TEST(NocConfigEnv, ResetAndStepShapes) {
  NocConfigEnv env(small_env());
  EXPECT_EQ(env.num_actions(), 36);
  const rl::State s0 = env.reset();
  EXPECT_EQ(s0.size(), env.state_size());
  rl::StepResult r = env.step(env.actions().max_action());
  EXPECT_EQ(r.next_state.size(), env.state_size());
  EXPECT_LT(r.reward, 0.0);
  EXPECT_FALSE(r.done);
  for (int i = 0; i < 5; ++i) r = env.step(env.actions().max_action());
  EXPECT_TRUE(r.done);
}

TEST(NocConfigEnv, StepBeforeResetThrows) {
  NocConfigEnv env(small_env());
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(NocConfigEnv, RejectsOversizedActionSpace) {
  NocEnvParams ep = small_env();
  ep.net.max_vcs = 2;  // but the standard space includes 4 VCs
  EXPECT_THROW(NocConfigEnv env(ep), std::invalid_argument);
}

TEST(NocConfigEnv, AppliedConfigReflectedInStats) {
  NocConfigEnv env(small_env());
  env.reset();
  const int a = env.actions().index_of(noc::NocConfig{2, 4, 1});
  env.step(a);
  EXPECT_EQ(env.last_stats().config, (noc::NocConfig{2, 4, 1}));
}

TEST(NocConfigEnv, EvalModeIsReproducible) {
  NocConfigEnv env(small_env());
  auto run = [&] {
    StaticController c(env.actions(), env.actions().max_action(), "s");
    const EpisodeResult r = evaluate(env, c);
    return std::pair{r.total_reward, r.mean_latency};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(NocConfigEnv, TrainingEpisodesVary) {
  NocConfigEnv env(small_env());
  auto episode_reward = [&] {
    env.reset();
    double total = 0.0;
    for (int i = 0; i < 6; ++i) total += env.step(35).reward;
    return total;
  };
  EXPECT_NE(episode_reward(), episode_reward());
}

TEST(Trainer, EvaluateRecordsEpochsAndActions) {
  NocConfigEnv env(small_env());
  StaticController c(env.actions(), 10, "probe");
  const EpisodeResult r = evaluate(env, c, /*keep_epochs=*/true);
  EXPECT_EQ(r.epochs.size(), 6u);
  EXPECT_EQ(r.actions.size(), 6u);
  for (int a : r.actions) EXPECT_EQ(a, 10);
  EXPECT_EQ(r.controller, "probe");
  EXPECT_GT(r.mean_power_mw, 0.0);
}

TEST(Trainer, StaticSweepSortedByEdp) {
  NocEnvParams ep = small_env();
  ep.epochs_per_episode = 3;
  const auto sweep = sweep_static_parallel(ep, ExperimentRunner(1));
  ASSERT_EQ(sweep.size(), 36u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i - 1].mean_edp, sweep[i].mean_edp);
  }
}

TEST(Trainer, TrainingIsDeterministicForSeed) {
  // DESIGN invariant 9 end-to-end: same seeds => identical training returns.
  auto run = [] {
    NocEnvParams ep = small_env();
    ep.epochs_per_episode = 6;
    NocConfigEnv env(ep);
    rl::DqnParams dp;
    dp.hidden = {16};
    dp.min_replay = 16;
    dp.batch_size = 8;
    dp.seed = 5;
    rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);
    TrainParams tp;
    tp.episodes = 4;
    tp.eval_every = 0;
    return train_dqn(env, agent, tp).episode_returns;
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, TrainDqnRunsAndImproves) {
  NocEnvParams ep = small_env();
  ep.epochs_per_episode = 8;
  NocConfigEnv env(ep);
  rl::DqnParams dp;
  dp.hidden = {16};
  dp.min_replay = 16;
  dp.batch_size = 8;
  dp.epsilon_decay_steps = 60;
  rl::DqnAgent agent(env.state_size(), env.num_actions(), dp);
  TrainParams tp;
  tp.episodes = 10;
  tp.eval_every = 5;
  const TrainResult r = train_dqn(env, agent, tp);
  EXPECT_EQ(r.episode_returns.size(), 10u);
  EXPECT_EQ(r.eval_rewards.size(), 2u);
  EXPECT_GT(agent.learn_steps(), 0u);
  // Sanity: returns are finite and negative (cost-shaped reward).
  for (double ret : r.episode_returns) {
    EXPECT_TRUE(std::isfinite(ret));
    EXPECT_LT(ret, 0.0);
  }
}

}  // namespace
}  // namespace drlnoc::core
