#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "rl/dqn.h"
#include "rl/qtable.h"
#include "rl/replay.h"
#include "rl/schedule.h"

namespace drlnoc::rl {
namespace {

Transition make_transition(int tag) {
  Transition t;
  t.state = {static_cast<double>(tag), 0.0};
  t.action = tag % 3;
  t.reward = static_cast<double>(tag);
  t.next_state = {static_cast<double>(tag + 1), 0.0};
  t.done = false;
  return t;
}

TEST(ReplayBuffer, FifoEvictionAtCapacity) {
  ReplayBuffer buf(4);
  for (int i = 0; i < 6; ++i) buf.push(make_transition(i));
  EXPECT_EQ(buf.size(), 4u);
  // Slots 0 and 1 were overwritten by 4 and 5.
  std::map<double, int> rewards;
  for (std::size_t i = 0; i < buf.size(); ++i) ++rewards[buf.at(i).reward];
  EXPECT_EQ(rewards.count(0.0), 0u);
  EXPECT_EQ(rewards.count(1.0), 0u);
  EXPECT_EQ(rewards.count(4.0), 1u);
  EXPECT_EQ(rewards.count(5.0), 1u);
}

TEST(ReplayBuffer, SampleUniformAndWeightsAreOne) {
  ReplayBuffer buf(100);
  for (int i = 0; i < 100; ++i) buf.push(make_transition(i));
  util::Rng rng(1);
  std::map<double, int> counts;
  SampledBatch b;
  for (int rep = 0; rep < 500; ++rep) {
    buf.sample_into(b, 20, rng);
    EXPECT_EQ(b.transitions.size(), 20u);
    for (double w : b.weights) EXPECT_DOUBLE_EQ(w, 1.0);
    for (const auto& t : b.transitions) ++counts[t.reward];
  }
  // Roughly uniform coverage.
  for (const auto& [r, c] : counts) EXPECT_NEAR(c, 100, 60) << r;
}

TEST(SumTree, TotalAndFind) {
  SumTree tree(6);  // rounds up to 8 leaves
  tree.update(0, 1.0);
  tree.update(3, 2.0);
  tree.update(5, 3.0);
  EXPECT_DOUBLE_EQ(tree.total(), 6.0);
  EXPECT_EQ(tree.find(0.5), 0u);
  EXPECT_EQ(tree.find(1.5), 3u);
  EXPECT_EQ(tree.find(2.999), 3u);
  EXPECT_EQ(tree.find(3.0), 5u);
  EXPECT_EQ(tree.find(5.999), 5u);
  EXPECT_DOUBLE_EQ(tree.max_priority(), 3.0);
  EXPECT_DOUBLE_EQ(tree.min_nonzero_priority(), 1.0);
  tree.update(3, 0.5);
  EXPECT_DOUBLE_EQ(tree.total(), 4.5);
}

TEST(PrioritizedReplay, SamplesProportionallyToPriority) {
  PrioritizedReplayBuffer buf(8, /*alpha=*/1.0, /*beta=*/0.0, /*eps=*/0.0);
  for (int i = 0; i < 8; ++i) buf.push(make_transition(i));
  // Set priorities: slot i gets priority i+1.
  std::vector<std::size_t> idx(8);
  std::vector<double> td(8);
  for (int i = 0; i < 8; ++i) {
    idx[static_cast<std::size_t>(i)] = static_cast<std::size_t>(i);
    td[static_cast<std::size_t>(i)] = static_cast<double>(i) + 1.0;
  }
  buf.update_priorities(idx, td);
  util::Rng rng(3);
  std::map<double, int> counts;
  const int reps = 3000;
  SampledBatch b;
  for (int rep = 0; rep < reps; ++rep) {
    buf.sample_into(b, 4, rng);
    for (const auto& t : b.transitions) ++counts[t.reward];
  }
  const double total_mass = 36.0;  // 1+2+...+8
  for (int i = 0; i < 8; ++i) {
    const double expected = reps * 4 * (i + 1) / total_mass;
    EXPECT_NEAR(counts[static_cast<double>(i)], expected, expected * 0.25 + 30)
        << "slot " << i;
  }
}

TEST(PrioritizedReplay, ImportanceWeightsFavorRareSamples) {
  PrioritizedReplayBuffer buf(4, 1.0, 1.0, 0.0);
  for (int i = 0; i < 4; ++i) buf.push(make_transition(i));
  buf.update_priorities({0, 1, 2, 3}, {10.0, 1.0, 1.0, 1.0});
  util::Rng rng(5);
  double w_hot = -1.0, w_cold = -1.0;
  SampledBatch b;
  for (int rep = 0; rep < 200; ++rep) {
    buf.sample_into(b, 4, rng);
    for (std::size_t i = 0; i < b.indices.size(); ++i) {
      if (b.indices[i] == 0) w_hot = b.weights[i];
      else w_cold = b.weights[i];
    }
  }
  ASSERT_GE(w_hot, 0.0);
  ASSERT_GE(w_cold, 0.0);
  EXPECT_LT(w_hot, w_cold);  // frequently sampled -> down-weighted
  EXPECT_LE(w_cold, 1.0 + 1e-12);
}

TEST(Schedules, LinearAndExponential) {
  LinearSchedule lin(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(lin.value(0), 1.0);
  EXPECT_NEAR(lin.value(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(lin.value(100), 0.1);
  EXPECT_DOUBLE_EQ(lin.value(1000), 0.1);
  ExponentialSchedule exp(1.0, 0.01, 0.9);
  EXPECT_DOUBLE_EQ(exp.value(0), 1.0);
  EXPECT_NEAR(exp.value(10), std::pow(0.9, 10), 1e-12);
  EXPECT_DOUBLE_EQ(exp.value(10000), 0.01);
}

// A tiny deterministic chain MDP: states 0..4, action 1 moves right, action 0
// resets to 0. Reward 1 only on reaching state 4 (episode end). Optimal
// policy: always go right; optimal return = 1.
class ChainEnv : public Environment {
 public:
  std::string name() const override { return "chain"; }
  std::size_t state_size() const override { return 5; }
  int num_actions() const override { return 2; }
  State reset() override {
    pos_ = 0;
    return encode();
  }
  StepResult step(int action) override {
    if (action == 1) ++pos_;
    else pos_ = 0;
    StepResult r;
    r.done = pos_ == 4;
    r.reward = r.done ? 1.0 : -0.01;
    r.next_state = encode();
    return r;
  }

 private:
  State encode() const {
    State s(5, 0.0);
    s[static_cast<std::size_t>(pos_)] = 1.0;
    return s;
  }
  int pos_ = 0;
};

class DqnVariants : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(DqnVariants, SolvesChainMdp) {
  const auto [double_dqn, prioritized] = GetParam();
  ChainEnv env;
  DqnParams p;
  p.hidden = {24};
  p.gamma = 0.95;
  p.lr = 5e-3;
  p.min_replay = 64;
  p.batch_size = 16;
  p.target_sync_every = 50;
  p.double_dqn = double_dqn;
  p.prioritized = prioritized;
  p.epsilon_decay_steps = 1500;
  p.seed = 17;
  DqnAgent agent(env.state_size(), env.num_actions(), p);

  for (int episode = 0; episode < 120; ++episode) {
    State s = env.reset();
    for (int step = 0; step < 50; ++step) {
      const int a = agent.act(s);
      const StepResult r = env.step(a);
      Transition t{s, a, r.reward, r.next_state, r.done};
      agent.observe(t);
      s = r.next_state;
      if (r.done) break;
    }
  }
  // Greedy policy must walk straight to the goal.
  State s = env.reset();
  for (int step = 0; step < 4; ++step) {
    const int a = agent.act_greedy(s);
    EXPECT_EQ(a, 1) << "greedy policy not optimal at step " << step;
    s = env.step(a).next_state;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DqnVariants,
    ::testing::Values(std::tuple{false, false}, std::tuple{true, false},
                      std::tuple{true, true}));

class DqnExtensions
    : public ::testing::TestWithParam<std::tuple<bool, int, double>> {};

// Dueling / n-step / soft-update variants must also solve the chain MDP.
TEST_P(DqnExtensions, SolvesChainMdp) {
  const auto [dueling, n_step, tau] = GetParam();
  ChainEnv env;
  DqnParams p;
  p.hidden = {24};
  p.gamma = 0.95;
  p.lr = 5e-3;
  p.min_replay = 64;
  p.batch_size = 16;
  p.target_sync_every = 50;
  p.dueling = dueling;
  p.n_step = n_step;
  p.tau = tau;
  p.epsilon_decay_steps = 1500;
  p.seed = 29;
  DqnAgent agent(env.state_size(), env.num_actions(), p);
  for (int episode = 0; episode < 150; ++episode) {
    State s = env.reset();
    for (int step = 0; step < 50; ++step) {
      const int a = agent.act(s);
      const StepResult r = env.step(a);
      agent.observe(Transition{s, a, r.reward, r.next_state, r.done});
      s = r.next_state;
      if (r.done) break;
    }
  }
  State s = env.reset();
  for (int step = 0; step < 4; ++step) {
    EXPECT_EQ(agent.act_greedy(s), 1) << "step " << step;
    s = env.step(1).next_state;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Extensions, DqnExtensions,
    ::testing::Values(std::tuple{true, 1, 0.0},    // dueling
                      std::tuple{false, 3, 0.0},   // 3-step returns
                      std::tuple{false, 1, 0.01},  // Polyak target
                      std::tuple{true, 3, 0.01})); // all together

TEST(DqnAgent, NStepAggregationFoldsRewards) {
  // With n_step=3 and gamma=0.5: feeding r=1,1,1 then done must produce a
  // front transition with reward 1 + 0.5 + 0.25 and discount 0.125 (unused
  // since done). Verify indirectly: replay fills only after flush.
  DqnParams p;
  p.hidden = {8};
  p.n_step = 3;
  p.gamma = 0.5;
  p.min_replay = 1000;  // never learns; we only watch the buffer
  DqnAgent agent(2, 2, p);
  Transition t{{0.0, 0.0}, 0, 1.0, {0.0, 0.0}, false};
  agent.observe(t);
  agent.observe(t);
  EXPECT_EQ(agent.replay_size(), 0u);  // window not full yet
  agent.observe(t);
  EXPECT_EQ(agent.replay_size(), 1u);  // first aggregate emitted
  Transition done = t;
  done.done = true;
  agent.observe(done);
  // Window flushes completely on done: 3 more aggregates.
  EXPECT_EQ(agent.replay_size(), 4u);
}

TEST(DqnAgent, RejectsBadNStep) {
  DqnParams p;
  p.n_step = 0;
  EXPECT_THROW(DqnAgent(2, 2, p), std::invalid_argument);
}

TEST(DqnAgent, EpsilonAnneals) {
  DqnParams p;
  p.epsilon_start = 1.0;
  p.epsilon_end = 0.1;
  p.epsilon_decay_steps = 10;
  DqnAgent agent(2, 2, p);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  ChainEnv env;
  (void)env;
  Transition t{{0.0, 0.0}, 0, 0.0, {0.0, 0.0}, false};
  for (int i = 0; i < 20; ++i) agent.observe(t);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
}

TEST(DqnAgent, SaveLoadPreservesPolicy) {
  DqnParams p;
  p.hidden = {16};
  p.seed = 3;
  DqnAgent a(4, 3, p);
  const State s = {0.1, 0.9, 0.4, 0.2};
  std::stringstream ss;
  a.save(ss);
  DqnAgent b(4, 3, p);
  b.load_weights(ss);
  EXPECT_EQ(a.q_values(s), b.q_values(s));
  EXPECT_EQ(a.act_greedy(s), b.act_greedy(s));
}

TEST(QTable, DiscretizesConsistently) {
  QTableParams p;
  p.bins_per_feature = 4;
  QTableAgent agent(2, 2, p);
  EXPECT_EQ(agent.key_of({0.1, 0.9}), agent.key_of({0.2, 0.8}));
  EXPECT_NE(agent.key_of({0.1, 0.9}), agent.key_of({0.9, 0.1}));
  // Out-of-range values clamp.
  EXPECT_EQ(agent.key_of({-5.0, 2.0}), agent.key_of({0.0, 0.99}));
}

TEST(QTable, SolvesChainMdp) {
  ChainEnv env;
  QTableParams p;
  p.alpha = 0.3;
  p.gamma = 0.95;
  p.epsilon_decay_steps = 2000;
  QTableAgent agent(env.state_size(), env.num_actions(), p);
  for (int episode = 0; episode < 200; ++episode) {
    State s = env.reset();
    for (int step = 0; step < 50; ++step) {
      const int a = agent.act(s);
      const StepResult r = env.step(a);
      agent.observe(Transition{s, a, r.reward, r.next_state, r.done});
      s = r.next_state;
      if (r.done) break;
    }
  }
  State s = env.reset();
  for (int step = 0; step < 4; ++step) {
    EXPECT_EQ(agent.act_greedy(s), 1);
    s = env.step(1).next_state;
  }
  EXPECT_GT(agent.table_size(), 0u);
}

}  // namespace
}  // namespace drlnoc::rl
