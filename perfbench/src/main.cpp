// Repository benchmark entry point. One process runs one workload:
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// It repeats the workload's fixed pass until `seconds` have elapsed, each
// on a fresh set-up that generates the inputs from the seed (setup_s is the
// median set-up time). With --trace 0 every pass runs untraced and the
// end-to-end metrics are printed; with --trace 1 untraced and traced passes
// alternate and the per-layer metrics are printed. Every pass must produce
// the same output digest; on the default seed it must also equal the digest
// recorded below. The last stdout line is the result JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/profiler.h"

namespace perfbench {

int Tracer::open(const char* name, int parent, std::int64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = parent;
  s.op = op;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

std::map<std::string, double> Tracer::seconds_by_name(int first) const {
  std::map<std::string, double> out;
  for (std::size_t i = static_cast<std::size_t>(first); i < spans_.size();
       ++i) {
    out[spans_[i].name] += (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  return out;
}

double Tracer::child_seconds(int parent) const {
  double s = 0.0;
  for (std::size_t i = static_cast<std::size_t>(parent) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == parent) {
      s += (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
  }
  return s;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.thread % 100000)
       << ", \"ts\": " << s.start_ns / 1000.0
       << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << "}}";
  }
  os << "\n]}\n";
}

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

/// Output digests of the default seed, recorded with the benchmark (g++ 12,
/// Release, x86-64). A change that alters any simulated count, chosen
/// action, policy weight or scorecard byte changes them.
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> table = {
      {"train_qos_8x8", 0x38d5e7cf35b2f410ULL},
      {"fleet_churn_16x16", 0xa65f9cb338774812ULL},
  };
  return table;
}

struct Metric {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"; empty for per-layer metrics
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"wall_s", "s", "lower"},
    {"sim_node_cycles_per_s", "1/s", "higher"},
    {"decisions_per_s", "1/s", "higher"},
    {"ok_frac", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
    {"sim_power_mw", "mW", "lower"},
};

const std::vector<Metric> kPerLayer = {
    {"noc.net_step_s", "s", ""},
    {"noc.node_cycles", "count", ""},
    {"noc.active_fraction", "ratio", ""},
    {"noc.ns_per_active_node_cycle", "ns", ""},
    {"noc.flit_hops", "count", ""},
    {"noc.ns_per_flit_hop", "ns", ""},
    {"noc.delivered_frac", "ratio", ""},
    {"noc.retries", "count", ""},
    {"noc.packets_lost", "count", ""},
    {"core.env_build_s", "s", ""},
    {"core.env_reset_s", "s", ""},
    {"core.env_step_self_s", "s", ""},
    {"core.evaluate_s", "s", ""},
    {"core.sim_latency_cyc", "cycles", ""},
    {"core.slo_hit_rate", "ratio", ""},
    {"rl.act_s", "s", ""},
    {"rl.act_calls", "count", ""},
    {"rl.observe_s", "s", ""},
    {"rl.learn_steps", "count", ""},
    {"rl.us_per_learn_step", "us", ""},
    {"rl.replay_sample_s", "s", ""},
    {"scenario.expand_s", "s", ""},
    {"scenario.churn_tenants", "count", ""},
    {"fleet.result_io_s", "s", ""},
    {"fleet.score_s", "s", ""},
    {"obs.trace_overhead_frac", "ratio", ""},
    {"obs.unexplained_frac", "ratio", ""},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
};

void print_help(std::ostream& os) {
  os << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]\n\n"
        "  --workload  one of the workloads below (required)\n"
        "  --seed      input seed (default "
     << kDefaultSeed
     << "); the default seed's digest is checked\n"
        "  --seconds   measured time, 1..600 (default 10)\n"
        "  --trace     0: end-to-end metrics; 1: per-layer metrics "
        "(default 0)\n\nworkloads:\n";
  for (const WorkloadInfo& w : workloads()) {
    os << "  " << w.name << "\n      " << w.why << "\n";
  }
  os << "\nend-to-end metrics (--trace 0):\n";
  for (const Metric& m : kEndToEnd) {
    os << "  " << m.name << " [" << m.unit << "] " << m.better
       << " is better\n";
  }
  os << "\nper-layer metrics (--trace 1):\n";
  for (const Metric& m : kPerLayer) {
    os << "  " << m.name << " [" << m.unit << "]\n";
  }
}

template <typename T>
T parse_number(const std::string& key, const std::string& text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument("bad value for --" + key + ": '" + text + "'");
  }
  return v;
}

/// Parses argv completely before any work; throws std::invalid_argument on
/// any unknown key, missing value or bad value. Returns nullopt for --help.
std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok == "--help" || tok == "-h") return std::nullopt;
    if (tok.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + tok + "'");
    }
    std::string key = tok.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for --" + key);
      }
      value = argv[++i];
    }
    if (key == "workload") {
      const auto& list = workloads();
      if (std::none_of(list.begin(), list.end(), [&](const WorkloadInfo& w) {
            return value == w.name;
          })) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
      o.workload = value;
      have_workload = true;
    } else if (key == "seed") {
      o.seed = parse_number<std::uint64_t>(key, value, 0, UINT64_MAX);
    } else if (key == "seconds") {
      o.seconds = parse_number<int>(key, value, 1, 600);
    } else if (key == "trace") {
      o.trace = parse_number<int>(key, value, 0, 1) == 1;
    } else {
      throw std::invalid_argument("unknown key --" + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir {
  std::string path;
  explicit WorkDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;
  std::optional<PassResult> result;  ///< empty when the pass threw
};

int run(const Options& opt) {
  const std::string base = ".bench_build/perfbench-work";
  const WorkDir work(base + "/" + opt.workload + "-" +
                     std::to_string(getpid()));

  Tracer tracer;
  drlnoc::obs::Profiler& prof = drlnoc::obs::Profiler::instance();
  std::vector<double> setup_s;
  std::uint64_t inputs = 0;
  int ops = 0;
  std::vector<PassRecord> passes;
  std::vector<int> roots;
  const auto start = Clock::now();
  int untraced = 0, traced = 0;
  while (seconds_since(start) < opt.seconds || untraced == 0 ||
         (opt.trace && traced == 0)) {
    // Every pass runs on a fresh set-up, so the set-up samples spread over
    // the whole run like the pass samples do; their median is setup_s.
    // Every set-up must generate identical inputs.
    const auto s0 = Clock::now();
    const std::unique_ptr<Workload> wl =
        make_workload(opt.workload, opt.seed, work.path);
    setup_s.push_back(seconds_since(s0));
    if (setup_s.size() > 1 && wl->inputs_digest() != inputs) {
      throw std::logic_error("set-ups generated different inputs");
    }
    inputs = wl->inputs_digest();
    ops = wl->operations();

    PassRecord rec;
    rec.traced = opt.trace && untraced > traced;
    tracer.set_enabled(rec.traced);
    prof.reset();
    prof.set_enabled(rec.traced);
    const int root = tracer.open("pass", -1, static_cast<std::int64_t>(
                                                 passes.size()));
    const auto t0 = Clock::now();
    try {
      rec.result = wl->run_pass(tracer, root);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: pass " << passes.size() << " failed: "
                << e.what() << "\n";
    }
    rec.wall_s = seconds_since(t0);
    tracer.close(root);
    prof.set_enabled(false);
    tracer.set_enabled(false);
    if (rec.traced) {
      ++traced;
      roots.push_back(root);
    } else {
      ++untraced;
    }
    passes.push_back(std::move(rec));
  }

  // Correctness: every pass, traced or not, must reproduce the first
  // pass's digest, and the default seed must reproduce the recorded one.
  const long long attempted = static_cast<long long>(passes.size()) * ops;
  long long failed = 0;
  std::optional<std::uint64_t> digest;
  bool mismatch = false;
  for (const PassRecord& p : passes) {
    if (!p.result) {
      failed += ops;
      continue;
    }
    if (!digest) digest = p.result->digest;
    if (p.result->digest != *digest) mismatch = true;
  }
  std::optional<std::uint64_t> golden;
  if (const auto it = golden_digests().find(opt.workload);
      it != golden_digests().end() && opt.seed == kDefaultSeed) {
    golden = it->second;
    if (digest && *digest != *golden) mismatch = true;
  }
  if (mismatch) {
    std::cerr << "perfbench: output digest mismatch\n";
    failed = attempted;
  }

  std::vector<double> walls, traced_walls;
  const PassResult* sim = nullptr;
  std::map<std::string, std::vector<double>> layers;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    (p.traced ? traced_walls : walls).push_back(p.wall_s);
    if (!p.result) continue;
    if (!sim) sim = &*p.result;
    for (const auto& [k, v] : p.result->layers) layers[k].push_back(v);
  }

  std::map<std::string, double> metrics;
  if (!opt.trace) {
    const double wall = median(walls);
    metrics["setup_s"] = median(setup_s);
    metrics["wall_s"] = wall;
    metrics["sim_node_cycles_per_s"] = sim ? sim->node_cycles / wall : 0.0;
    metrics["decisions_per_s"] = sim ? sim->decisions / wall : 0.0;
    metrics["ok_frac"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["sim_power_mw"] = sim ? sim->sim_power_mw : 0.0;
  } else {
    for (const auto& [k, v] : layers) metrics[k] = median(v);
    metrics["core.sim_latency_cyc"] = sim ? sim->sim_latency_cyc : 0.0;
    metrics["core.slo_hit_rate"] = sim ? sim->slo_hit_rate : 0.0;
    metrics["obs.trace_overhead_frac"] =
        median(traced_walls) / median(walls) - 1.0;
    std::vector<double> unexplained;
    for (std::size_t i = 0, t = 0; i < passes.size(); ++i) {
      if (!passes[i].traced) continue;
      unexplained.push_back(1.0 - tracer.child_seconds(roots[t++]) /
                                      passes[i].wall_s);
    }
    metrics["obs.unexplained_frac"] = median(unexplained);
  }
  const std::vector<Metric>& declared = opt.trace ? kPerLayer : kEndToEnd;
  for (const auto& [k, v] : metrics) {
    if (std::none_of(declared.begin(), declared.end(),
                     [&](const Metric& m) { return k == m.name; })) {
      throw std::logic_error("undeclared metric " + k);
    }
  }

  std::string spans_file;
  if (opt.trace) {
    const std::string dir = ".bench_build/perfbench-spans";
    std::filesystem::create_directories(dir);
    spans_file = dir + "/" + opt.workload + "-seed" +
                 std::to_string(opt.seed) + ".json";
    std::ofstream out(spans_file);
    tracer.write_chrome_json(out);
  }

  std::ostringstream info;
  info << "{\"info\": {\"workload\": \"" << opt.workload
       << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"passes\": " << untraced << ", \"traced_passes\": " << traced
       << ", \"operations_per_pass\": " << ops << ", \"pass_walls_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    info << (i ? ", " : "") << number(walls[i]);
  }
  info << "], \"digest\": \""
       << (digest ? hex(*digest) : "") << "\", \"golden_digest\": \""
       << (golden ? hex(*golden) : "") << "\", \"inputs_digest\": \""
       << hex(inputs) << "\", \"spans_file\": \"" << spans_file
       << "\", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\"}}}";
  std::cout << info.str() << "\n";

  std::ostringstream res;
  res << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : declared) {
    const auto it = metrics.find(m.name);
    res << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << number(it == metrics.end() ? 0.0 : it->second) << ", \"unit\": \""
        << m.unit << "\"}";
    first = false;
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::optional<perfbench::Options> opt;
  try {
    opt = perfbench::parse_args(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << " (see --help)\n";
    return 2;
  }
  if (!opt) {
    perfbench::print_help(std::cout);
    return 0;
  }
  try {
    return perfbench::run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
