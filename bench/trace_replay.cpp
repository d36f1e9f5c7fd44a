// trace_replay: the trace subsystem's benchmark. Part one sweeps the
// rate-scale knob over generated task-graph traces (fig1-style: one
// independent simulation per point, fanned out over the experiment engine)
// and prints how dependency-gated completion time and latency respond to
// replay speed. Part two emits hot-path JSON metrics in the perf_smoke
// baseline-comparison format (bench_json.h), so the tracked BENCH_*.json
// trajectory covers trace generation, I/O, and replay.
//
//   ./bench/trace_replay                          # table + JSON to stdout
//   ./bench/trace_replay size=8 --jobs 4
//   ./bench/trace_replay scale=0.3 baseline=B.json out=BENCH_current.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "noc/network.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_workload.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace drlnoc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`repeats` rate (items/sec), perf_smoke-style: one untimed
/// warm-up call, then the best timed window.
double measure_rate(std::uint64_t items, int repeats,
                    const std::function<void()>& body) {
  body();
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt > 0.0) best = std::max(best, static_cast<double>(items) / dt);
  }
  return best;
}

trace::TraceReplayResult replay_once(const noc::NetworkParams& net_params,
                                     std::shared_ptr<const trace::Trace> t,
                                     double rate_scale,
                                     std::uint64_t cycle_limit) {
  noc::Network net(net_params);
  trace::TraceWorkloadParams tw;
  tw.rate_scale = rate_scale;
  trace::TraceWorkload workload(std::move(t), tw);
  return trace::run_trace_replay(net, workload, cycle_limit);
}

double bench_replay_cycles(const noc::NetworkParams& net_params,
                           const std::shared_ptr<const trace::Trace>& t,
                           int repeats) {
  // measure_rate's untimed warm-up call doubles as the cycle-count pass
  // (replay is deterministic, so every run consumes the same cycles).
  std::uint64_t cycles = 0;
  const auto body = [&] {
    cycles = replay_once(net_params, t, 1.0, 2000000).cycles;
  };
  body();
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt > 0.0) best = std::max(best, static_cast<double>(cycles) / dt);
  }
  return best;
}

constexpr const char* kUsage =
    "usage: trace_replay [size=N] [scale=S] [repeats=N] [jobs=N]\n"
    "         [baseline=FILE.json] [out=FILE.json] [log=L]\n";

int run(const util::Config& cfg) {
  const int size = cfg.get("size", 8);
  const double scale = cfg.get("scale", 1.0);  // work scale for the metrics
  const int repeats = cfg.get("repeats", 3);
  const int jobs = util::ThreadPool::resolve_jobs(cfg.get("jobs", 0));

  noc::NetworkParams net_params;
  net_params.width = net_params.height = size;
  net_params.seed = 1;
  const int nodes = size * size;

  trace::DnnPipelineParams dnn;
  dnn.nodes = nodes;
  dnn.layers = 6;
  dnn.tiles_per_layer = std::min(8, std::max(2, nodes / 8));
  dnn.batches = 6;
  const auto dnn_trace =
      std::make_shared<const trace::Trace>(trace::generate_dnn_pipeline(dnn));

  trace::AllToAllParams a2a;
  a2a.nodes = nodes;
  a2a.rounds = 3;
  const auto a2a_trace =
      std::make_shared<const trace::Trace>(trace::generate_alltoall(a2a));

  std::cout << "trace_replay: " << size << "x" << size << " mesh, dnn="
            << dnn_trace->records.size() << " rec, alltoall="
            << a2a_trace->records.size() << " rec (jobs=" << jobs << ")\n\n";

  // ---- Part 1: rate-scale sweep (dependency feedback vs replay speed) -----
  struct SweepTask {
    const char* name;
    std::shared_ptr<const trace::Trace> trace;
    double rate_scale;
  };
  std::vector<SweepTask> tasks;
  const std::vector<double> scales = {0.5, 1.0, 2.0, 4.0};
  for (double s : scales) tasks.push_back({"dnn", dnn_trace, s});
  for (double s : scales) tasks.push_back({"alltoall", a2a_trace, s});

  const auto results = util::parallel_map<trace::TraceReplayResult>(
      static_cast<int>(tasks.size()), jobs, [&](int i) {
        const SweepTask& task = tasks[static_cast<std::size_t>(i)];
        return replay_once(net_params, task.trace, task.rate_scale, 4000000);
      });

  util::Table t({"trace", "rate_scale", "core_cycles", "packets", "avg_lat",
                 "p95_lat", "energy_uJ", "complete"});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& r = results[i];
    t.row()
        .cell(tasks[i].name)
        .cell(tasks[i].rate_scale, 2)
        .cell(r.stats.core_cycles, 0)
        .cell(static_cast<long long>(r.stats.packets_received))
        .cell(r.stats.avg_latency, 1)
        .cell(r.stats.p95_latency, 1)
        .cell(r.stats.total_energy_pj() / 1e6, 2)
        .cell(r.completed ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout << "\ndependency gating makes completion sub-linear in "
               "rate_scale: past the fabric's capacity, extra replay speed "
               "just moves waiting from release times into the network.\n\n";

  // ---- Part 2: JSON hot-path metrics --------------------------------------
  const auto n = [&](double base) {
    return static_cast<std::uint64_t>(std::max(1.0, base * scale));
  };
  std::vector<std::pair<std::string, double>> metrics;

  // Generation rate (records/sec), on a fixed mid-size task graph.
  {
    trace::DnnPipelineParams gp = dnn;
    const std::uint64_t records =
        trace::generate_dnn_pipeline(gp).records.size();
    const std::uint64_t iters = n(50);
    metrics.emplace_back(
        "trace_gen_dnn_records",
        measure_rate(records * iters, repeats, [&] {
          for (std::uint64_t i = 0; i < iters; ++i) {
            (void)trace::generate_dnn_pipeline(gp);
          }
        }));
  }

  // Binary round-trip rate (records/sec through write + read).
  {
    const std::uint64_t iters = n(50);
    metrics.emplace_back(
        "trace_io_roundtrip_records",
        measure_rate(dnn_trace->records.size() * iters, repeats, [&] {
          for (std::uint64_t i = 0; i < iters; ++i) {
            std::stringstream buf;
            trace::TraceWriter::write_binary(buf, *dnn_trace);
            (void)trace::TraceReader::read_binary(buf);
          }
        }));
  }

  // Replay throughput (router cycles/sec) including dependency tracking.
  metrics.emplace_back("trace_replay_dnn_cps",
                       bench_replay_cycles(net_params, dnn_trace, repeats));
  metrics.emplace_back("trace_replay_a2a_cps",
                       bench_replay_cycles(net_params, a2a_trace, repeats));

  std::map<std::string, double> baseline;
  if (cfg.has("baseline")) {
    baseline = bench::read_baseline_metrics(cfg.get("baseline", std::string()));
  }
  bench::write_metrics_json(std::cout, "trace_replay", metrics, baseline);
  if (cfg.has("out")) {
    std::ofstream out(cfg.get("out", std::string()));
    bench::write_metrics_json(out, "trace_replay", metrics, baseline);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, kUsage, run);
}
