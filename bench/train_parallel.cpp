// Multi-actor training wall-clock bench: times DQN training on the T6 QoS
// scenario (scenarios/t6_qos.drlsc; `--smoke` as in table6_qos) three
// ways — serial (core::train_dqn at round=1), `round=` lockstep lanes
// stepped by one worker (the lane overhead floor), and the same rounds
// stepped by `actors=` workers — and emits the timings in the tracked
// BENCH_*.json format (bench_json.h).
//
//   ./bench/train_parallel                     # full scale, actors=8
//   ./bench/train_parallel --smoke             # CI scale
//   ./bench/train_parallel actors=8 jobs=8 out=BENCH_PR10.json
//
// A round>1 run learns a different curve from the serial one (lanes
// interleave their transitions — `round` is part of the experiment
// definition), so serial vs round compares wall clock of different work;
// actors=1 vs actors=N is the like-for-like thread speedup, and its
// bit-identity is pinned by tests/train_parallel_test.cpp. Timings are
// machine-dependent: refresh on an idle machine, best of `repeats` runs.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "util/cli.h"
#include "util/log.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: train_parallel [--smoke] [size=N] [episodes=N] [round=N]\n"
    "                      [actors=N] [repeats=N] [out=FILE.json] [log=L]\n"
    "Times T6 QoS-scenario DQN training: serial (round=1), then round=N\n"
    "lockstep lanes at 1 and at `actors` worker threads.\n";

/// Best-of-`repeats` wall-clock seconds of `fn`.
template <typename Fn>
double best_seconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);
  const int episodes = cfg.get("episodes", smoke ? 4 : 16);
  const int round = cfg.get("round", 8);
  const int actors = cfg.get("actors", 8);
  const int repeats = cfg.get("repeats", smoke ? 1 : 3);

  // The T6 scenario: latency-critical DNN pipeline over a background
  // sweep — the training workload being timed.
  std::map<std::string, std::string> smoke_keys;
  if (smoke) {
    smoke_keys = {{"size", "4"},
                  {"tenant0.trace", "dnn16_b2.drltrc"},
                  {"tenant0.p95_target", "200"}};
  }
  const auto s =
      bench::load_scenario("t6_qos.drlsc", smoke_keys, cfg, {{"size", "size"}});
  const int size = s->net.width;

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = s->net.seed;
  ep.epoch_cycles = smoke ? 256 : 512;
  ep.epochs_per_episode = smoke ? 4 : 48;

  std::cout << "train_parallel: " << episodes << " episodes x "
            << ep.epochs_per_episode << " epochs on mesh " << size << "x"
            << size << " (round " << round << ", best of " << repeats
            << ")\n";

  const auto time_training = [&](int rnd, int workers) {
    return best_seconds(repeats, [&] {
      core::NocConfigEnv env(ep);
      bench::train_agent(env, episodes, rnd, workers);
    });
  };
  const double serial_s = time_training(1, 1);
  std::cout << "  serial (round 1):          " << util::fmt(serial_s, 2)
            << " s\n";
  const double par1_s = time_training(round, 1);
  std::cout << "  round " << round << ", 1 actor:        "
            << util::fmt(par1_s, 2) << " s\n";
  const double parN_s = time_training(round, actors);
  std::cout << "  round " << round << ", " << actors
            << " actors:       " << util::fmt(parN_s, 2) << " s\n"
            << "  speedup vs serial:         " << util::fmt(serial_s / parN_s, 2)
            << "x\n";

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("build_host_threads",
                       static_cast<double>(
                           std::thread::hardware_concurrency()));
  metrics.emplace_back("train_serial_s", serial_s);
  metrics.emplace_back("train_actors1_s", par1_s);
  metrics.emplace_back("train_actors" + std::to_string(actors) + "_s", parN_s);
  metrics.emplace_back("speedup_actors1_vs_serial", serial_s / par1_s);
  metrics.emplace_back("speedup_actors" + std::to_string(actors) + "_vs_serial",
                       serial_s / parN_s);

  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      LOG_ERROR << "train_parallel: cannot write " << out_path;
      return 1;
    }
    bench::write_metrics_json(
        out, "train_parallel", metrics, {},
        "seconds (and dimensionless speedups)",
        "T6 QoS-scenario training wall clock: serial is core::train_dqn at "
        "round=1; the actors runs use round=N lockstep lanes, which learn a "
        "different curve, so serial vs round compares different simulated "
        "work. actors=1 vs actors=N is the like-for-like thread speedup "
        "(bit-identical results) and scales with build_host_threads. "
        "Refresh with: ./build/bench/train_parallel actors=8 "
        "out=BENCH_PR10.json");
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, kUsage, run);
}
