// Steady-state allocation audit: a counting global operator new pins the
// "zero heap allocations in the hot loops" property — Network::step, the
// Mlp workspace paths, and the DQN observe/learn step must not allocate
// once their buffers are warm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace drlnoc {
namespace {

std::uint64_t alloc_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(SteadyStateAllocations, NetworkStepIsAllocationFree) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 3;
  noc::Network net(p);
  // A consumer that keeps records reserves its sink up front and empties
  // it between windows; the harvest then only writes into that capacity.
  const int kWindow = 2000;
  std::vector<noc::PacketRecord> records;
  records.reserve(static_cast<std::size_t>(kWindow) * 8);
  net.set_record_sink(&records);
  // Well below saturation (~0.0625 for 8×8 uniform) so source-queue
  // high-water marks stop moving after warm-up.
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.04);
  // Warm-up: reach steady state and establish every buffer capacity.
  for (int i = 0; i < 2 * kWindow; ++i) net.step(&w);
  (void)net.drain_epoch_stats();
  records.clear();
  for (int i = 0; i < kWindow; ++i) net.step(&w);
  (void)net.drain_epoch_stats();
  records.clear();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < kWindow; ++i) net.step(&w);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "Network::step allocated in steady state";
  EXPECT_GT(records.size(), 0u);
}

// The training path: an environment attaches no record sink and never
// drains records, so stepping must keep no per-packet state at all — a
// long audited window with nothing drained sees zero allocations.
TEST(SteadyStateAllocations, NetworkStepWithoutRecordSinkIsAllocationFree) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 3;
  noc::Network net(p);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.04);
  for (int i = 0; i < 6000; ++i) net.step(&w);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 12000; ++i) net.step(&w);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << "Network::step allocated with no record sink attached";
  EXPECT_GT(net.total_packets_received(), 0u);
}

TEST(SteadyStateAllocations, NetworkStepAfterReconfigIsAllocationFree) {
  noc::NetworkParams p;
  p.width = p.height = 4;
  p.seed = 5;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  records.reserve(4096);
  net.set_record_sink(&records);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "transpose", 0.06);
  for (int i = 0; i < 3000; ++i) net.step(&w);
  net.apply_config(noc::NocConfig{2, 4, 2});
  for (int i = 0; i < 3000; ++i) net.step(&w);
  (void)net.drain_epoch_stats();
  records.clear();
  for (int i = 0; i < 1500; ++i) net.step(&w);
  records.clear();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1000; ++i) net.step(&w);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
}

// The DQN learn step's network calls, in its order (rl::DqnAgent::learn):
// inference on the next states, the training forward, the masked Huber
// loss, then backward, clipping and the Adam step — loss included.
TEST(SteadyStateAllocations, MlpWorkspacePathsAreAllocationFree) {
  util::Rng rng(7);
  nn::Mlp mlp({20, 64, 64, 36}, nn::Activation::kReLU, rng);
  nn::Adam opt(1e-3);
  nn::Matrix x(32, 20), next_x(32, 20);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  for (double& v : next_x.raw()) v = rng.uniform(-1.0, 1.0);
  std::vector<int> actions(32);
  std::vector<double> targets(32), weights(32, 1.0);
  for (int& a : actions) a = static_cast<int>(rng.below(36));
  for (double& t : targets) t = rng.uniform(-1.0, 1.0);
  nn::MaskedLossResult loss;

  auto learn_step = [&] {
    (void)mlp.infer_ws(next_x);
    const nn::Matrix& q = mlp.forward_ws(x);
    nn::masked_huber_loss_into(loss, q, actions, targets, weights);
    mlp.zero_grads();
    mlp.backward_params_ws(loss.grad);
    (void)mlp.clip_grad_norm(10.0);
    opt.step(mlp.params(), mlp.grads());
  };
  learn_step();
  learn_step();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 50; ++i) learn_step();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "Mlp workspace path allocated";
}

TEST(SteadyStateAllocations, DqnObserveIsAllocationFree) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.replay_capacity = 256;  // small: warm-up fills it completely
  dp.min_replay = 64;
  dp.batch_size = 16;
  rl::DqnAgent agent(12, 8, dp);
  util::Rng rng(9);
  rl::Transition t;
  t.state.assign(12, 0.0);
  t.next_state.assign(12, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(8));
    t.reward = -rng.uniform();
    (void)agent.act(t.state);
    (void)agent.observe(t);
  };
  // Fill the replay buffer past capacity and warm every workspace,
  // including a hard target sync (every 250 learn steps).
  for (int i = 0; i < 600; ++i) observe_one();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) observe_one();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "DQN observe/learn allocated";
}

TEST(SteadyStateAllocations, PrioritizedDqnObserveIsAllocationFree) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.replay_capacity = 256;
  dp.min_replay = 64;
  dp.batch_size = 16;
  dp.prioritized = true;
  dp.n_step = 3;
  rl::DqnAgent agent(12, 8, dp);
  util::Rng rng(11);
  rl::Transition t;
  t.state.assign(12, 0.0);
  t.next_state.assign(12, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(8));
    t.reward = -rng.uniform();
    t.done = (rng.below(50) == 0);
    (void)agent.observe(t);
  };
  for (int i = 0; i < 600; ++i) observe_one();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 200; ++i) observe_one();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u) << "prioritized DQN observe/learn allocated";
}

}  // namespace
}  // namespace drlnoc
