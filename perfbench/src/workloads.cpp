// The two benchmark workloads. Each generates its inputs from the seed,
// then repeats one fixed pass of work from fresh state for as long as the
// run lasts. README.md records why each workload was chosen.
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/controller.h"
#include "core/env_noc.h"
#include "core/parallel.h"
#include "fleet/fleet.h"
#include "fleet/scenario_space.h"
#include "fleet/scorecard.h"
#include "obs/network_metrics.h"
#include "obs/profiler.h"
#include "rl/dqn.h"
#include "scenario/scenario_io.h"
#include "trace/generators.h"
#include "trace/trace_io.h"

namespace perfbench {

using namespace drlnoc;

namespace {

/// splitmix64 of (seed, salt): independent sub-seeds for each input.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

double profiler_s(obs::Phase phase) {
  return static_cast<double>(obs::Profiler::instance().totals(phase).ns) *
         1e-9;
}

/// The repository's standard DQN settings (bench/bench_common.h) with
/// learning starting after 64 transitions. The agent seed stays fixed:
/// --seed varies the traffic, not the network initialisation.
rl::DqnParams dqn_params(std::uint64_t train_steps) {
  rl::DqnParams dp;
  dp.hidden = {64, 64};
  dp.gamma = 0.9;
  dp.lr = 1e-3;
  dp.min_replay = 64;
  dp.batch_size = 32;
  dp.target_sync_every = 250;
  dp.double_dqn = true;
  dp.epsilon_decay_steps = train_steps * 3 / 4;
  dp.seed = 7;
  return dp;
}

std::string describe(const rl::DqnParams& dp) {
  std::ostringstream os;
  os << "dqn min_replay=" << dp.min_replay << " batch=" << dp.batch_size
     << " decay=" << dp.epsilon_decay_steps << " seed=" << dp.seed << "\n";
  return os.str();
}

/// Work counts over the epochs a pass can see.
struct NocCounts {
  double node_cycles = 0.0;
  double active_node_cycles = 0.0;
  double flit_hops = 0.0;
  double offered = 0.0;
  double received = 0.0;
  double retries = 0.0;
  double lost = 0.0;

  void add(const noc::EpochStats& s, int nodes) {
    const double nc = static_cast<double>(s.router_cycles) * nodes;
    node_cycles += nc;
    active_node_cycles += nc * s.avg_active_fraction;
    flit_hops += static_cast<double>(s.flits_ejected) * s.avg_hops;
    offered += static_cast<double>(s.packets_offered);
    received += static_cast<double>(s.packets_received);
    retries += static_cast<double>(s.retries);
    lost += static_cast<double>(s.packets_lost);
  }

  /// Fills the noc.* layer metrics, with `net_step_s` the Network::step
  /// busy time spent simulating this work.
  void report(double net_step_s, std::map<std::string, double>& layers) const {
    layers["noc.net_step_s"] = net_step_s;
    layers["noc.node_cycles"] = node_cycles;
    layers["noc.active_fraction"] =
        node_cycles > 0.0 ? active_node_cycles / node_cycles : 0.0;
    layers["noc.ns_per_active_node_cycle"] =
        active_node_cycles > 0.0 ? net_step_s * 1e9 / active_node_cycles : 0.0;
    layers["noc.flit_hops"] = flit_hops;
    layers["noc.ns_per_flit_hop"] =
        flit_hops > 0.0 ? net_step_s * 1e9 / flit_hops : 0.0;
    layers["noc.delivered_frac"] = offered > 0.0 ? received / offered : 0.0;
    layers["noc.retries"] = retries;
    layers["noc.packets_lost"] = lost;
  }
};

/// Simulated outcome over a set of epochs: packet-weighted latency,
/// time-weighted power, and the SLO hit rate of tenant 0 against
/// `p95_target` with core::evaluate's convention (an epoch counts when the
/// tenant had traffic and hits when its measured p95 met the target).
struct SimOutcome {
  double latency_weighted = 0.0;
  double packets = 0.0;
  double power_time = 0.0;
  double time = 0.0;
  double slo_epochs = 0.0;
  double slo_hits = 0.0;

  void add(const noc::EpochStats& s, double core_freq_ghz,
           double p95_target) {
    latency_weighted += s.avg_latency * static_cast<double>(s.packets_received);
    packets += static_cast<double>(s.packets_received);
    power_time += s.avg_power_mw(core_freq_ghz) * s.core_cycles;
    time += s.core_cycles;
    if (p95_target > 0.0 && !s.tenants.empty()) {
      const noc::TenantEpochStats& t = s.tenants[0];
      if (t.packets_measured > 0 || t.packets_offered > 0) {
        slo_epochs += 1.0;
        if (t.packets_measured > 0 && t.p95_latency <= p95_target) {
          slo_hits += 1.0;
        }
      }
    }
  }

  void report(PassResult& out) const {
    out.sim_latency_cyc = packets > 0.0 ? latency_weighted / packets : 0.0;
    out.sim_power_mw = time > 0.0 ? power_time / time : 0.0;
    out.slo_hit_rate = slo_epochs > 0.0 ? slo_hits / slo_epochs : 1.0;
  }
};

void report_learner(const rl::DqnAgent& agent, double observe_s,
                    std::map<std::string, double>& layers) {
  const auto learn_steps = static_cast<double>(agent.learn_steps());
  layers["rl.observe_s"] = observe_s;
  layers["rl.learn_steps"] = learn_steps;
  layers["rl.us_per_learn_step"] =
      learn_steps > 0.0 ? observe_s * 1e6 / learn_steps : 0.0;
  layers["rl.replay_sample_s"] = profiler_s(obs::Phase::kReplaySample);
}

double lookup(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::string policy_version(const rl::DqnAgent& agent) {
  std::ostringstream blob;
  agent.save(blob);
  return rl::policy_fingerprint(blob.str());
}

// ------------------------------------------------------ train_qos_8x8 ---
//
// Serial DQN training on the T6 QoS scenario: a DNN-pipeline trace tenant
// on nodes 0-15 with a p95 <= 300 SLO over uniform background traffic. The
// loop below is the reset / act / step / observe protocol core::train_dqn
// runs, driven from here so each call can carry a span.
constexpr int kQosTrainEpisodes = 2;
constexpr int kQosEpochs = 48;
constexpr std::uint64_t kQosEpochCycles = 512;

class TrainQos final : public Workload {
 public:
  TrainQos(std::uint64_t seed, const std::string& workdir) {
    trace::DnnPipelineParams dp;
    dp.nodes = 16;
    dp.batches = 4;
    std::ostringstream trace_text;
    trace::TraceWriter::write_text(trace_text,
                                   trace::generate_dnn_pipeline(dp));
    write_file(workdir + "/dnn.drltrc", trace_text.str());

    const std::string scenario_text =
        "drlsc 1\n"
        "name = t6_qos\n"
        "width = 8\n"
        "height = 8\n"
        "seed = " + std::to_string(derive(seed, 1) >> 1) + "\n"
        "duration = 1000000\n"
        "tenants = 2\n"
        "tenant0.name = dnn\n"
        "tenant0.workload = trace\n"
        "tenant0.trace = dnn.drltrc\n"
        "tenant0.loop = true\n"
        "tenant0.nodes = 0-15\n"
        "tenant0.qos = latency_critical\n"
        "tenant0.p95_target = 300\n"
        "tenant1.name = background\n"
        "tenant1.workload = steady\n"
        "tenant1.pattern = uniform\n"
        "tenant1.rate = 0.05\n"
        "tenant1.qos = background\n";
    write_file(workdir + "/t6.drlsc", scenario_text);

    params_.scenario = std::make_shared<const scenario::Scenario>(
        scenario::ScenarioReader::read_file(workdir + "/t6.drlsc"));
    params_.net.seed = params_.scenario->net.seed;
    params_.epoch_cycles = kQosEpochCycles;
    params_.epochs_per_episode = kQosEpochs;
    dqn_ = dqn_params(kQosTrainEpisodes * kQosEpochs);

    Digest inputs;
    inputs.str(trace_text.str());
    inputs.str(scenario_text);
    inputs.str(describe(dqn_));
    inputs_digest_ = inputs.value();

    // Set-up: first environment build (power calibration) and agent init.
    core::NocConfigEnv env(params_);
    rl::DqnAgent agent(env.state_size(), env.num_actions(), dqn_);
  }

  int operations() const override { return kQosTrainEpisodes + 1; }
  std::uint64_t inputs_digest() const override { return inputs_digest_; }

  PassResult run_pass(Tracer& tr, int root) override {
    const bool traced = tr.enabled();
    const obs::Profiler& prof = obs::Profiler::instance();
    PassResult out;
    Digest digest;
    NocCounts counts;
    SimOutcome sim;
    double net_in_steps_ns = 0.0;

    std::unique_ptr<core::NocConfigEnv> env;
    {
      ScopedSpan s(tr, "core.env_build", root);
      env = std::make_unique<core::NocConfigEnv>(params_);
    }
    const int nodes = env->params().net.width * env->params().net.height;
    const double core_freq = env->params().power.core_freq_ghz;
    const double p95_target = params_.scenario->tenants.at(0).p95_target;
    const auto record = [&](const noc::EpochStats& s) {
      digest.epoch(s);
      counts.add(s, nodes);
      sim.add(s, core_freq, p95_target);
    };
    std::unique_ptr<rl::DqnAgent> agent;
    {
      ScopedSpan s(tr, "rl.agent_init", root);
      agent = std::make_unique<rl::DqnAgent>(env->state_size(),
                                             env->num_actions(), dqn_);
    }

    for (int ep = 0; ep < kQosTrainEpisodes; ++ep) {
      rl::State state;
      {
        ScopedSpan s(tr, "core.env_reset", root, ep);
        state = env->reset();
      }
      record(env->last_stats());
      bool done = false;
      while (!done) {
        int action = 0;
        {
          ScopedSpan s(tr, "rl.act", root, ep);
          action = agent->act(state);
        }
        rl::StepResult r;
        {
          const std::uint64_t before = prof.totals(obs::Phase::kNetStep).ns;
          ScopedSpan s(tr, "core.env_step", root, ep);
          r = env->step(action);
          net_in_steps_ns += static_cast<double>(
              prof.totals(obs::Phase::kNetStep).ns - before);
        }
        digest.u64(static_cast<std::uint64_t>(action));
        record(env->last_stats());
        out.decisions += 1.0;
        rl::Transition t;
        t.state = std::move(state);
        t.action = action;
        t.reward = r.reward;
        t.next_state = r.next_state;
        t.done = r.done;
        {
          ScopedSpan s(tr, "rl.observe", root, ep);
          agent->observe(t);
        }
        state = std::move(r.next_state);
        done = r.done;
      }
    }

    core::EpisodeResult eval;
    {
      ScopedSpan s(tr, "core.evaluate", root, kQosTrainEpisodes);
      core::DrlController greedy(env->actions(), *agent);
      eval = core::evaluate(*env, greedy, /*keep_epochs=*/true);
    }
    for (const noc::EpochStats& s : eval.epochs) record(s);
    for (int a : eval.actions) digest.u64(static_cast<std::uint64_t>(a));
    out.decisions += static_cast<double>(eval.actions.size());
    {
      ScopedSpan s(tr, "rl.save", root);
      digest.str(policy_version(*agent));
    }

    out.digest = digest.value();
    out.node_cycles = counts.node_cycles;
    // Simulated outcome over every epoch of the pass, training included: a
    // two-episode policy is mostly exploration, so its greedy episode alone
    // would swing with the seed.
    sim.report(out);

    if (traced) {
      auto& l = out.layers;
      const auto spans = tr.seconds_by_name(root);
      const auto get = [&](const char* name) { return lookup(spans, name); };
      counts.report(profiler_s(obs::Phase::kNetStep), l);
      l["core.env_build_s"] = get("core.env_build");
      l["core.env_reset_s"] = get("core.env_reset");
      l["core.env_step_self_s"] =
          get("core.env_step") - net_in_steps_ns * 1e-9;
      l["core.evaluate_s"] = get("core.evaluate");
      l["rl.act_s"] = get("rl.act");
      l["rl.act_calls"] = kQosTrainEpisodes * kQosEpochs;
      report_learner(*agent, get("rl.observe"), l);
    }
    return out;
  }

 private:
  core::NocEnvParams params_;
  rl::DqnParams dqn_;
  std::uint64_t inputs_digest_ = 0;
};

// -------------------------------------------------- fleet_churn_16x16 ---
//
// fleet::run_fleet with the heuristic controller over a churned 16x16
// space: background rate x link-fault rate x seed replicas. --seed drives
// the traffic and fault seeds; the churn stream keeps one seed, so every
// run simulates the same tenant population and its work does not swing
// with the seed. The traced pass replays run_fleet's loop from the same
// public calls so that scenario expansion, evaluation and result I/O each
// carry a span.
constexpr int kFleetJobs = 2;
constexpr int kFleetSeeds = 4;
constexpr int kFleetEpochs = 12;
constexpr std::uint64_t kFleetEpochCycles = 512;

class FleetChurn final : public Workload {
 public:
  FleetChurn(std::uint64_t seed, const std::string& workdir)
      : workdir_(workdir) {
    const std::string base_text =
        "drlsc 1\n"
        "name = churn16\n"
        "width = 16\n"
        "height = 16\n"
        "seed = " + std::to_string(derive(seed, 11) >> 1) + "\n"
        "duration = 20000\n"
        "tenants = 2\n"
        "tenant0.name = lc\n"
        "tenant0.workload = steady\n"
        "tenant0.pattern = uniform\n"
        "tenant0.rate = 0.001\n"
        "tenant0.qos = latency_critical\n"
        "tenant0.p95_target = 300\n"
        "tenant1.name = bg\n"
        "tenant1.workload = steady\n"
        "tenant1.pattern = uniform\n"
        "tenant1.rate = 0.001\n"
        "tenant1.qos = background\n"
        "\n[faults]\n"
        "seed = " + std::to_string(derive(seed, 12) >> 1) + "\n"
        "link_fault_rate = 0\n"
        "\n[churn]\n"
        "seed = 11\n"
        "arrival_rate = 0.002\n"
        "capacity = 3\n"
        "templates = 1\n"
        "template0.tenant = 1\n"
        "template0.lifetime = exponential\n"
        "template0.lifetime_mean = 2000\n";
    const std::string spec_text =
        "drlfs 1\n"
        "name = churn16_sweep\n"
        "base = churn16.drlsc\n"
        "seeds = " + std::to_string(kFleetSeeds) + "\n"
        "axes = 2\n"
        "axis0.key = tenant1.rate\n"
        "axis0.values = 0.0005,0.002\n"
        "axis1.key = faults.link_fault_rate\n"
        "axis1.values = 0,0.0005\n";
    write_file(workdir + "/churn16.drlsc", base_text);
    write_file(workdir + "/churn16.drlfs", spec_text);
    space_ = fleet::ScenarioSpaceReader::read_file(workdir + "/churn16.drlfs");
    const scenario::Scenario first = space_.expand(0).scenario;
    nodes_ = first.net.width * first.net.height;

    params_.controller = "heuristic";
    params_.epoch_cycles = kFleetEpochCycles;
    params_.epochs = kFleetEpochs;

    Digest inputs;
    inputs.str(base_text);
    inputs.str(spec_text);
    inputs_digest_ = inputs.value();

    // Set-up: the first environment build, as evaluate_scenario makes it
    // for a point (power calibration on the 16x16 fabric).
    core::NocEnvParams ep;
    ep.scenario = std::make_shared<const scenario::Scenario>(first);
    ep.net.seed = first.net.seed;
    ep.scenario_qos = params_.qos_features;
    ep.epoch_cycles = params_.epoch_cycles;
    ep.epochs_per_episode = params_.epochs;
    core::NocConfigEnv env(ep);
  }

  int operations() const override { return static_cast<int>(space_.size()); }
  std::uint64_t inputs_digest() const override { return inputs_digest_; }

  PassResult run_pass(Tracer& tr, int root) override {
    fleet::FleetParams params = params_;
    params.results_dir = workdir_ + "/results";
    std::filesystem::remove_all(params.results_dir);  // run every point
    const core::ExperimentRunner runner(kFleetJobs);
    const bool traced = tr.enabled();
    const int points = static_cast<int>(space_.size());

    // Traced-pass accumulators, filled by the worker threads.
    std::mutex mu;  // guards the accumulators below
    NocCounts counts;
    double churn_tenants = 0.0;

    if (!traced) {
      fleet::run_fleet(space_, params, runner);
    } else {
      ScopedSpan run(tr, "fleet.run", root);
      std::filesystem::create_directories(params.results_dir);
      runner.for_each(points, [&](int i) {
        const auto index = static_cast<std::size_t>(i);
        fleet::ExpandedScenario point;
        {
          ScopedSpan s(tr, "scenario.expand", run.id(), i);
          point = space_.expand(index);
        }
        obs::NetworkMetrics metrics(nodes_);
        fleet::FleetScenarioResult r;
        {
          ScopedSpan s(tr, "fleet.evaluate_scenario", run.id(), i);
          r = fleet::evaluate_scenario(point, params, nullptr, &metrics);
        }
        {
          ScopedSpan s(tr, "fleet.result_io", run.id(), i);
          fleet::write_result_file(
              fleet::result_path(params.results_dir, index,
                                 fleet::result_key(space_, index, params)),
              r);
        }
        std::lock_guard<std::mutex> lock(mu);
        for (const scenario::TenantSpec& t : point.scenario.tenants) {
          if (t.churned) churn_tenants += 1.0;
        }
        add_epochs(metrics, nodes_, counts);
      });
    }

    std::vector<fleet::FleetScenarioResult> results;
    {
      ScopedSpan s(tr, "fleet.result_io", root);
      results = fleet::load_results(space_, params);
    }
    fleet::Scorecard card;
    std::ostringstream card_json;
    {
      ScopedSpan s(tr, "fleet.score", root);
      card = fleet::score_fleet(results, space_.size(), space_.name);
      fleet::write_scorecard_json(card_json, card);
    }
    if (results.size() != space_.size()) {
      throw std::runtime_error("perfbench: fleet wrote " +
                               std::to_string(results.size()) + " of " +
                               std::to_string(space_.size()) + " results");
    }

    PassResult out;
    Digest digest;
    digest.str(card_json.str());
    out.digest = digest.value();
    // Each point simulates a reset warm-up epoch plus its decision epochs.
    out.node_cycles = points * (kFleetEpochs + 1.0) *
                      static_cast<double>(kFleetEpochCycles) * nodes_;
    out.decisions = static_cast<double>(points) * kFleetEpochs;
    out.sim_latency_cyc = card.latency.mean;
    out.sim_power_mw = card.power_mw.mean;
    out.slo_hit_rate = card.classes.at("latency_critical").slo_hit_rate;

    if (traced) {
      auto& l = out.layers;
      const auto spans = tr.seconds_by_name(root);
      const auto get = [&](const char* name) { return lookup(spans, name); };
      // Worker-thread spans sum busy time across both jobs.
      counts.report(profiler_s(obs::Phase::kNetStep), l);
      const double evaluate_s = profiler_s(obs::Phase::kEvaluate);
      l["core.evaluate_s"] = evaluate_s;
      l["core.env_build_s"] = get("fleet.evaluate_scenario") - evaluate_s;
      l["scenario.expand_s"] = get("scenario.expand");
      l["scenario.churn_tenants"] = churn_tenants;
      l["fleet.result_io_s"] = get("fleet.result_io");
      l["fleet.score_s"] = get("fleet.score");
    }
    return out;
  }

 private:
  /// Folds the per-epoch rows a NetworkMetrics tap committed into `counts`.
  /// The tap carries no avg_hops, so flit-hops here are link traversals
  /// (router.link_flits summed over routers).
  static void add_epochs(const obs::NetworkMetrics& m, int nodes,
                         NocCounts& counts) {
    const obs::MetricsRegistry& reg = m.registry();
    const auto id = [&](const std::string& name) {
      for (std::size_t i = 0; i < reg.num_metrics(); ++i) {
        if (reg.name(static_cast<obs::MetricsRegistry::Id>(i)) == name) {
          return static_cast<obs::MetricsRegistry::Id>(i);
        }
      }
      throw std::logic_error("perfbench: no metric " + name);
    };
    const auto link_flits = id("router.link_flits");
    const auto active = id("net.avg_active_fraction");
    const auto offered = id("net.packets_offered");
    const auto received = id("net.packets_received");
    const auto retries = id("fault.retries");
    const auto lost = id("fault.packets_lost");
    const double nc = static_cast<double>(kFleetEpochCycles) * nodes;
    for (std::size_t row = 0; row < reg.samples(); ++row) {
      counts.node_cycles += nc;
      counts.active_node_cycles += nc * reg.sample_value(row, active);
      for (int n = 0; n < nodes; ++n) {
        counts.flit_hops += reg.sample_value(row, link_flits, n);
      }
      counts.offered += reg.sample_value(row, offered);
      counts.received += reg.sample_value(row, received);
      counts.retries += reg.sample_value(row, retries);
      counts.lost += reg.sample_value(row, lost);
    }
  }

  std::string workdir_;
  fleet::ScenarioSpace space_;
  fleet::FleetParams params_;
  int nodes_ = 0;
  std::uint64_t inputs_digest_ = 0;
};

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"train_qos_8x8",
       "serial DQN training on the T6 QoS scenario: dense Network::step, "
       "where training spends its time"},
      {"fleet_churn_16x16",
       "heuristic fleet over a churned 16x16 space with faults: sparse "
       "stepping, env builds, expansion and result I/O, no learning"},
  };
  return list;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "train_qos_8x8") return std::make_unique<TrainQos>(seed, workdir);
  if (name == "fleet_churn_16x16") {
    return std::make_unique<FleetChurn>(seed, workdir);
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
