// F5: accepted throughput vs offered load, mesh and torus, uniform traffic.
// Expected shape: accepted == offered until the saturation knee, then a flat
// plateau; the torus (double bisection bandwidth) saturates later.
#include <iostream>

#include "noc/simulator.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: fig5_throughput [size=N] [step=R] [max_rate=R] [jobs=N] [log=L]\n";

int run(const util::Config& cfg) {
  const int size = cfg.get("size", 8);
  const double step = cfg.get("step", 0.04);
  const double max_rate = cfg.get("max_rate", 0.44);
  const int jobs = util::ThreadPool::resolve_jobs(cfg.get("jobs", 0));

  std::cout << "F5: throughput vs offered load (uniform traffic, " << size
            << "x" << size << ", jobs=" << jobs << ")\n\n";

  // Every (rate, topology) point is an independent simulation: build the
  // whole grid, measure it in parallel, print in order.
  std::vector<noc::SweepPoint> points;
  for (double rate = step; rate <= max_rate + 1e-9; rate += step) {
    noc::SweepPoint mesh;
    mesh.net.topology = "mesh";
    mesh.net.width = mesh.net.height = size;
    mesh.net.seed = 101;
    mesh.pattern = "uniform";
    mesh.rate = rate;
    mesh.run.warmup_cycles = 1500;
    mesh.run.measure_cycles = 5000;
    mesh.run.drain_limit = 30000;

    noc::SweepPoint torus = mesh;
    torus.net.topology = "torus";
    points.push_back(mesh);
    points.push_back(torus);
  }
  const auto results = noc::measure_points(points, jobs);

  util::Table table({"offered", "mesh_accepted", "mesh_latency",
                     "torus_accepted", "torus_latency"});
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const auto& m = results[i];
    const auto& t = results[i + 1];
    table.row()
        .cell(points[i].rate, 3)
        .cell(m.stats.accepted_rate, 4)
        .cell(m.stats.avg_latency, 1)
        .cell(t.stats.accepted_rate, 4)
        .cell(t.stats.avg_latency, 1);
  }
  table.print(std::cout);
  std::cout << "\nshape check: accepted tracks offered until the knee, then "
               "plateaus; torus knee is to the right of mesh.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, kUsage, run);
}
