// perf_smoke: headless hot-path throughput suite. Runs the fig6 substrate
// benchmarks without google-benchmark and emits a flat JSON metrics block,
// seeding the tracked BENCH_*.json trajectory (see README "Performance").
//
//   ./bench/perf_smoke                           # print JSON to stdout
//   ./bench/perf_smoke out=BENCH.json            # also write to a file
//   ./bench/perf_smoke baseline=BENCH_PR2.json   # add baseline + speedup
//   ./bench/perf_smoke scale=0.2                 # quicker, noisier run
//
// Every metric is a rate (higher is better), measured as the best of
// `repeats` timed windows so one scheduler hiccup cannot poison the number.
// The baseline file may be any previous perf_smoke output (or a tracked
// BENCH_*.json); its "metrics" object is compared key-by-key.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "util/cli.h"

namespace {

using Clock = std::chrono::steady_clock;
using drlnoc::util::Rng;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`repeats` rate (items/sec) of `body`, which must perform `items`
/// units of work per call. One untimed call warms caches and allocators.
double measure_rate(std::uint64_t items, int repeats,
                    const std::function<void()>& body) {
  body();  // warm-up: steady-state capacities, code + data caches
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt > 0.0) best = std::max(best, static_cast<double>(items) / dt);
  }
  return best;
}

/// Router cycles per second at a uniform injection `rate` (packets per node
/// per core cycle). 0.08 saturates every size (the historical metrics keep
/// it for comparability); the `_low`/`_med` variants run below saturation,
/// where the event-driven core skips quiescent routers (see docs/BENCHMARKS.md).
double bench_network(int size, int vcs, double rate, std::uint64_t cycles,
                     int repeats) {
  drlnoc::noc::NetworkParams p;
  p.width = p.height = size;
  p.initial_config.active_vcs = vcs;
  p.seed = 1;
  drlnoc::noc::Network net(p);
  drlnoc::noc::SteadyWorkload w =
      drlnoc::noc::SteadyWorkload::make(net.topology(), "uniform", rate);
  return measure_rate(cycles, repeats, [&] {
    for (std::uint64_t i = 0; i < cycles; ++i) net.step(&w);
  });
}

/// Router cycles per second at the T6 training load (table6_qos and the
/// perfbench train workload): scenarios/t6_qos.drlsc at its full 8x8 size,
/// a looping DNN-pipeline trace tenant on nodes 0-15 over uniform
/// background traffic at 0.05, with traffic seed 1. Near saturation with
/// almost every router active — where training spends its time.
double bench_network_t6(std::uint64_t cycles, int repeats) {
  const auto s = drlnoc::bench::load_scenario("t6_qos.drlsc", {{"seed", "1"}});
  auto net = drlnoc::scenario::build_network(*s);
  auto w = drlnoc::scenario::build_workload(*s, net->topology());
  net->set_tenant_tracking(w->num_tenants());
  return measure_rate(cycles, repeats, [&] {
    for (std::uint64_t i = 0; i < cycles; ++i) net->step(w.get());
  });
}

/// Inference rows per second on the workspace path act() and learn() run.
double bench_mlp_forward_ws(std::size_t batch, std::uint64_t iters,
                            int repeats) {
  Rng rng(1);
  drlnoc::nn::Mlp mlp({20, 64, 64, 36}, drlnoc::nn::Activation::kReLU, rng);
  drlnoc::nn::Matrix x(batch, 20);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  double sink = 0.0;
  const double rate = measure_rate(iters * batch, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sink += mlp.infer_ws(x).at(0, 0);
    }
  });
  if (sink == 42.125) std::cerr << "";  // defeat dead-code elimination
  return rate;
}

double bench_mlp_train(std::uint64_t iters, int repeats) {
  Rng rng(2);
  drlnoc::nn::Mlp mlp({20, 64, 64, 36}, drlnoc::nn::Activation::kReLU, rng);
  drlnoc::nn::Adam opt(1e-3);
  drlnoc::nn::Matrix x(32, 20), t(32, 36);
  for (double& v : x.raw()) v = rng.uniform(-1.0, 1.0);
  for (double& v : t.raw()) v = rng.uniform(-1.0, 1.0);
  return measure_rate(iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      mlp.zero_grads();
      const drlnoc::nn::LossResult lr =
          drlnoc::nn::mse_loss(mlp.forward_ws(x), t);
      mlp.backward_params_ws(lr.grad);
      opt.step(mlp.params(), mlp.grads());
    }
  });
}

double bench_dqn_learn(std::uint64_t iters, int repeats) {
  drlnoc::rl::DqnParams p;
  p.hidden = {64, 64};
  p.min_replay = 64;
  p.replay_capacity = 4096;
  drlnoc::rl::DqnAgent agent(20, 36, p);
  Rng rng(4);
  drlnoc::rl::Transition t;
  t.state.assign(20, 0.0);
  t.next_state.assign(20, 0.0);
  auto observe_one = [&] {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(36));
    t.reward = -rng.uniform();
    (void)agent.observe(t);
  };
  // Fill replay past min_replay so every timed observe() is a learn step.
  for (int i = 0; i < 128; ++i) observe_one();
  return measure_rate(iters, repeats, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) observe_one();
  });
}

constexpr const char* kUsage =
    "usage: perf_smoke [scale=S] [repeats=N] [baseline=FILE.json]\n"
    "         [out=FILE.json] [log=L]\n";

int run(const drlnoc::util::Config& cfg) {
  const double scale = cfg.get("scale", 1.0);
  const int repeats = cfg.get("repeats", 3);
  const auto n = [&](double base) {
    return static_cast<std::uint64_t>(std::max(1.0, base * scale));
  };

  // Read the baseline before the (minutes-long) timed runs so a bad path
  // fails fast instead of after the whole suite.
  std::map<std::string, double> baseline;
  if (cfg.has("baseline")) {
    const std::string path = cfg.get("baseline", std::string());
    baseline = drlnoc::bench::read_baseline_metrics(path);
    if (baseline.empty()) {
      LOG_WARN << "perf_smoke: baseline " << path
               << " yielded no metrics; speedup block will be omitted";
    }
  }

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("net_step_4x4_vc4",
                       bench_network(4, 4, 0.08, n(20000), repeats));
  metrics.emplace_back("net_step_8x8_vc4",
                       bench_network(8, 4, 0.08, n(6000), repeats));
  metrics.emplace_back("net_step_16x16_vc4",
                       bench_network(16, 4, 0.08, n(1500), repeats));
  metrics.emplace_back("net_step_16x16_vc4_low",
                       bench_network(16, 4, 0.005, n(12000), repeats));
  metrics.emplace_back("net_step_16x16_vc4_med",
                       bench_network(16, 4, 0.01, n(8000), repeats));
  metrics.emplace_back("net_step_32x32_vc4_low",
                       bench_network(32, 4, 0.005, n(3000), repeats));
  metrics.emplace_back("net_step_32x32_vc4_med",
                       bench_network(32, 4, 0.01, n(2000), repeats));
  metrics.emplace_back("net_step_8x8_t6", bench_network_t6(n(6000), repeats));
  metrics.emplace_back("mlp_forward_ws_rows_b1",
                       bench_mlp_forward_ws(1, n(20000), repeats));
  metrics.emplace_back("mlp_forward_ws_rows_b32",
                       bench_mlp_forward_ws(32, n(2000), repeats));
  metrics.emplace_back("mlp_train_steps_b32", bench_mlp_train(n(1000), repeats));
  metrics.emplace_back("dqn_learn_steps", bench_dqn_learn(n(800), repeats));

  drlnoc::bench::write_metrics_json(std::cout, "perf_smoke", metrics, baseline);
  if (cfg.has("out")) {
    std::ofstream out(cfg.get("out", std::string()));
    drlnoc::bench::write_metrics_json(out, "perf_smoke", metrics, baseline);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return drlnoc::util::run_main(argc, argv, kUsage, run);
}
