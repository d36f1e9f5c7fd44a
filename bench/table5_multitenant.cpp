// T5: multi-tenant interference — DRL vs static controllers on a scenario
// mixing a dependency-gated DNN-pipeline trace tenant with synthetic
// background traffic on one fabric. Expected shape: under interference the
// DRL controller holds the trace tenant's latency closer to its
// no-background level than static-min/static-max do, at lower energy than
// static-max; per-tenant metrics make the victim/aggressor split visible.
//
// The scenario is scenarios/t5_multitenant.drlsc; its header lists the
// keys the command line and `--smoke` override.
//
// Replication fans out over the experiment engine; results (including the
// emitted JSON) are bit-identical at any --jobs value. `--smoke` shrinks
// everything for CI; `out=FILE.json` dumps per-tenant metrics via
// bench/bench_json.h.
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "util/cli.h"
#include "util/log.h"

using namespace drlnoc;

namespace {

constexpr const char* kUsage =
    "usage: table5_multitenant [--smoke] [size=N] [episodes=N] [replicas=N]\n"
    "         [bg_rate=R] [rate_scale=S] [jobs=N] [out=FILE.json]\n"
    "         [--trace-out=F] [--metrics-out=F] [--trace-sample=P] [log=L]\n";

int run(const util::Config& cfg) {
  const bool smoke = cfg.get("smoke", false);
  const int episodes = cfg.get("episodes", smoke ? 2 : 80);
  const int replicas = cfg.get("replicas", smoke ? 2 : 8);
  const core::ExperimentRunner runner = bench::runner_from(cfg);

  // --- the scenario: a 16-endpoint DNN pipeline + fabric-wide background ---
  std::map<std::string, std::string> smoke_keys;
  if (smoke) smoke_keys = {{"size", "4"}, {"tenant0.trace", "dnn16_b2.drltrc"}};
  const auto s = bench::load_scenario(
      "t5_multitenant.drlsc", smoke_keys, cfg,
      {{"size", "size"},
       {"bg_rate", "tenant1.rate"},
       {"rate_scale", "tenant0.rate_scale"}});
  const int size = s->net.width;

  core::NocEnvParams ep;
  ep.scenario = s;
  ep.net.seed = s->net.seed;  // base of the per-replica seed stream
  ep.epoch_cycles = smoke ? 256 : 512;
  ep.epochs_per_episode = smoke ? 4 : 48;
  core::NocConfigEnv env(ep);

  std::cout << "T5: multi-tenant interference (mesh " << size << "x" << size
            << "; dnn trace on nodes 0-15 x" << s->tenants[0].rate_scale
            << " + uniform background @" << s->tenants[1].rate
            << "; power_ref = " << env.power_ref_mw()
            << " mW; jobs = " << runner.jobs() << ")\n\n";

  auto agent = bench::train_agent(env, episodes);

  // --- replication: frozen policies vs statics across traffic seeds -------
  core::NocEnvParams rep = ep;
  rep.reward.power_ref_mw = env.power_ref_mw();  // comparable across seeds

  struct Entry {
    std::string name;
    core::ReplicationResult rep;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"drl", core::evaluate_many(rep, bench::drl_factory(*agent, env),
                                  replicas, runner)});
  for (const char* name : {"heuristic", "static-max", "static-min"}) {
    const auto factory = bench::baseline_factory(name, size * size);
    entries.push_back(
        {name, core::evaluate_many(rep, factory, replicas, runner)});
  }

  const std::size_t num_tenants = s->tenants.size();
  std::cout << "per-tenant metrics over " << replicas
            << " traffic seeds (mean +/- 95% CI):\n";
  util::Table tab({"controller", "tenant", "latency", "ci95", "p95", "ci95",
                   "thru(pkt/node/cyc)", "ci95", "reward"});
  std::vector<std::pair<std::string, double>> metrics;
  for (const Entry& e : entries) {
    const auto cis = bench::tenant_cis(e.rep, num_tenants);
    for (std::size_t t = 0; t < num_tenants; ++t) {
      tab.row()
          .cell(e.name)
          .cell(s->tenants[t].name)
          .cell(cis[t].latency.mean, 2)
          .cell(cis[t].latency.ci95, 2)
          .cell(cis[t].p95.mean, 1)
          .cell(cis[t].p95.ci95, 1)
          .cell(cis[t].throughput.mean, 5)
          .cell(cis[t].throughput.ci95, 5)
          .cell(t == 0 ? util::fmt(e.rep.reward.mean, 2) : std::string());
      const std::string key = e.name + "." + s->tenants[t].name;
      metrics.emplace_back(key + ".latency", cis[t].latency.mean);
      metrics.emplace_back(key + ".latency_ci95", cis[t].latency.ci95);
      metrics.emplace_back(key + ".p95", cis[t].p95.mean);
      metrics.emplace_back(key + ".throughput", cis[t].throughput.mean);
      metrics.emplace_back(key + ".throughput_ci95", cis[t].throughput.ci95);
    }
    metrics.emplace_back(e.name + ".reward", e.rep.reward.mean);
    metrics.emplace_back(e.name + ".power_mw", e.rep.power_mw.mean);
  }
  tab.print(std::cout);
  std::cout << "\nshape check: the background tenant's load bleeds into the "
               "dnn tenant's latency; DRL rides the interference with less "
               "victim-latency inflation than static-min and less power "
               "than static-max.\n";

  const std::string out_path = cfg.get("out", std::string());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      LOG_ERROR << "table5: cannot write " << out_path;
      return 1;
    }
    bench::write_metrics_json(out, "table5_multitenant", metrics, {},
                              "mixed (core-cycle latency, pkt/node/cycle "
                              "throughput, mW)");
    std::cout << "wrote " << out_path << "\n";
  }
  // Optional observability pass (after the measured comparisons, so every
  // table cell above is observer-free).
  return bench::maybe_traced_run(cfg, *s) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, kUsage, run);
}
