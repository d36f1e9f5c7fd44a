// Shared pieces of the repository benchmark: the span tracer the traced run
// records around calls into each library module, the FNV-1a output digest,
// and the interface each workload implements. See perfbench/README.md.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "noc/network.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// One recorded span: a call into a library module made by the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 at the root
  std::int64_t op = -1;       ///< episode or fleet point this span serves
  std::uint64_t thread = 0;
};

/// In-memory span store. Disabled, open() returns -1 without reading the
/// clock, so untraced passes run the same calls with no recording. Worker
/// threads (fleet points) record concurrently, hence the mutex.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int open(const char* name, int parent, std::int64_t op = -1);
  void close(int span);

  // The readers below are not synchronised: call them between passes.
  /// Seconds per span name over spans [first, end).
  std::map<std::string, double> seconds_by_name(int first) const;
  /// Seconds covered by the direct children of span `parent`.
  double child_seconds(int parent) const;

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  void write_chrome_json(std::ostream& os) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::int64_t op = -1)
      : tracer_(tracer), id_(tracer.open(name, parent, op)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// 64-bit FNV-1a over everything a pass outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// The simulated counts of one epoch.
  void epoch(const drlnoc::noc::EpochStats& s) {
    u64(s.router_cycles);
    u64(s.packets_offered);
    u64(s.packets_received);
    u64(s.flits_injected);
    u64(s.flits_ejected);
    u64(s.retries);
    u64(s.packets_lost);
    u64(s.flits_dropped);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// What one pass of a workload produced. Every pass of a run repeats the
/// same work from fresh state, so all simulated fields and the digest must
/// be identical across passes, traced or not.
struct PassResult {
  std::uint64_t digest = 0;
  double node_cycles = 0.0;  ///< simulated router-cycles x nodes
  double decisions = 0.0;    ///< controller epochs simulated
  double sim_power_mw = 0.0;
  // Closed-loop outcomes that swing with the seed; reported per layer.
  double sim_latency_cyc = 0.0;
  double slo_hit_rate = 1.0;
  /// Per-layer values; filled on traced passes only.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Operations (training episodes or fleet points) one pass attempts.
  virtual int operations() const = 0;
  /// FNV-1a of the generated inputs (scenario and space text, trace bytes,
  /// trainer parameters).
  virtual std::uint64_t inputs_digest() const = 0;
  /// One pass from fresh state. When the tracer is enabled the pass records
  /// spans under `root` and fills PassResult::layers; the Profiler is
  /// enabled and reset by the caller around traced passes.
  virtual PassResult run_pass(Tracer& tracer, int root) = 0;
};

struct WorkloadInfo {
  const char* name;
  const char* why;
};

/// The workloads, in the order --help lists them.
const std::vector<WorkloadInfo>& workloads();

/// Generates the workload's inputs from `seed` and performs its set-up
/// (first environment build, agent init). Files go under `workdir`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
