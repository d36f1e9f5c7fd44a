// Observability subsystem tests: flight-recorder ring/sampling semantics,
// Chrome trace export shape, metrics-registry kinds and bucket boundaries,
// profiler accounting — and the load-bearing guarantee: attaching every
// observer at full sampling must not move a single bit of the golden
// determinism hashes from determinism_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/workload.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/network_metrics.h"
#include "obs/profiler.h"
#include "obs/session.h"

namespace drlnoc {
namespace {

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  obs::FlightRecorderParams p;
  p.capacity = 4;
  obs::FlightRecorder rec(p);
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(obs::EventKind::kPacketInject, static_cast<double>(i), i,
               /*packet_id=*/i + 1);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<obs::TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 0 and 1 were overwritten.
  EXPECT_EQ(events.front().packet_id, 3u);
  EXPECT_EQ(events.back().packet_id, 6u);
}

TEST(FlightRecorder, SampleRateEndpoints) {
  obs::FlightRecorderParams all;
  all.sample_rate = 1.0;
  obs::FlightRecorder rec_all(all);
  obs::FlightRecorderParams none;
  none.sample_rate = 0.0;
  obs::FlightRecorder rec_none(none);
  for (std::uint64_t id = 1; id < 1000; ++id) {
    EXPECT_TRUE(rec_all.sampled(id));
    EXPECT_FALSE(rec_none.sampled(id));
  }
}

TEST(FlightRecorder, SamplingIsDeterministicAndRoughlyProportional) {
  obs::FlightRecorderParams p;
  p.sample_rate = 0.25;
  obs::FlightRecorder a(p);
  obs::FlightRecorder b(p);
  int hits = 0;
  const int n = 20000;
  for (std::uint64_t id = 1; id <= static_cast<std::uint64_t>(n); ++id) {
    const bool s = a.sampled(id);
    // Pure function of (seed, id): two recorders agree, and re-asking agrees.
    EXPECT_EQ(s, b.sampled(id));
    EXPECT_EQ(s, a.sampled(id));
    hits += s ? 1 : 0;
  }
  const double frac = static_cast<double>(hits) / n;
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(FlightRecorder, ChromeTraceShape) {
  obs::FlightRecorderParams p;
  p.capacity = 16;
  obs::FlightRecorder rec(p);
  rec.record(obs::EventKind::kPacketInject, 1.0, 1, /*packet_id=*/7, 0, 5, 4);
  rec.record(obs::EventKind::kPacketHop, 2.0, 2, /*packet_id=*/7, 1, 2, 1);
  rec.record(obs::EventKind::kPacketEject, 3.0, 3, /*packet_id=*/7, 5, 2, 0);
  rec.record(obs::EventKind::kConfigApply, 3.0, 3, 0, 4, 8, 0);
  rec.record(obs::EventKind::kTenantStart, 0.0, 0, 0, 1);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
  // Packet lifecycle is an async begin/end pair keyed by the packet id.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  // Scenario events are instants; config applies are counter tracks.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, CounterResetsPerSampleGaugePersists) {
  obs::MetricsRegistry reg;
  const auto c = reg.add_counter("pkts");
  const auto g = reg.add_gauge("lat");
  reg.add_to_counter(c, 0, 3.0);
  reg.set_gauge(g, 0, 42.0);
  reg.commit_sample(1.0);
  reg.commit_sample(2.0);  // no updates in this window
  ASSERT_EQ(reg.samples(), 2u);
  EXPECT_DOUBLE_EQ(reg.sample_value(0, c), 3.0);
  EXPECT_DOUBLE_EQ(reg.sample_value(1, c), 0.0);  // counter reset
  EXPECT_DOUBLE_EQ(reg.sample_value(0, g), 42.0);
  EXPECT_DOUBLE_EQ(reg.sample_value(1, g), 42.0);  // gauge persists
}

TEST(MetricsRegistry, MultiInstanceHeatmapCsv) {
  obs::MetricsRegistry reg;
  const auto fam = reg.add_gauge("router.flits", /*instances=*/3);
  reg.set_gauge(fam, 0, 1.0);
  reg.set_gauge(fam, 2, 9.0);
  reg.commit_sample(10.0);
  std::ostringstream os;
  reg.write_heatmap_csv(os, "router.flits");
  const std::string csv = os.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "time,i0,i1,i2");
  EXPECT_NE(csv.find("10,1,0,9"), std::string::npos);
}

TEST(MetricsRegistry, HeatmapRejectsUnknownAndHistogramMetrics) {
  obs::MetricsRegistry reg;
  reg.add_histogram("lat_hist", 100.0, 10);
  std::ostringstream os;
  EXPECT_THROW(reg.write_heatmap_csv(os, "nope"), std::invalid_argument);
  EXPECT_THROW(reg.write_heatmap_csv(os, "lat_hist"), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  obs::MetricsRegistry reg;
  // limit 100, 10 buckets => width 10: [0,10), [10,20), ... [90,100).
  const auto h = reg.add_histogram("lat", 100.0, 10);
  reg.observe(h, 0.0);    // first bucket, lower edge
  reg.observe(h, 9.999);  // still the first bucket
  reg.observe(h, 10.0);   // exactly on a boundary -> second bucket
  reg.observe(h, 99.999); // last bucket
  reg.observe(h, 100.0);  // == limit -> overflow, not last bucket
  reg.observe(h, 250.0);  // far overflow
  reg.observe(h, -5.0);   // clamped into the first bucket
  const util::Histogram& hist = reg.histogram(h);
  EXPECT_EQ(hist.count(), 7u);
  EXPECT_EQ(hist.buckets()[0], 3u);
  EXPECT_EQ(hist.buckets()[1], 1u);
  EXPECT_EQ(hist.buckets()[9], 1u);
  EXPECT_EQ(hist.overflow(), 2u);
}

TEST(MetricsRegistry, JsonExportContainsSeriesAndHistograms) {
  obs::MetricsRegistry reg;
  const auto c = reg.add_counter("pkts");
  const auto h = reg.add_histogram("lat", 10.0, 5);
  reg.add_to_counter(c, 0, 2.0);
  reg.observe(h, 3.0);
  reg.commit_sample(1.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"pkts\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
}

// --- profiler ---------------------------------------------------------------

TEST(Profiler, DisabledScopesRecordNothing) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(false);
  { obs::ScopedPhase scope(obs::Phase::kNetStep); }
  EXPECT_EQ(prof.totals(obs::Phase::kNetStep).count, 0u);
}

TEST(Profiler, EnabledScopesAccumulate) {
  obs::Profiler& prof = obs::Profiler::instance();
  prof.reset();
  prof.set_enabled(true);
  { obs::ScopedPhase scope(obs::Phase::kLearn); }
  { obs::ScopedPhase scope(obs::Phase::kLearn); }
  prof.set_enabled(false);
  EXPECT_EQ(prof.totals(obs::Phase::kLearn).count, 2u);
  std::ostringstream os;
  prof.write_json(os);
  EXPECT_NE(os.str().find("\"learn\""), std::string::npos);
  prof.reset();
}

// --- session plumbing -------------------------------------------------------

TEST(ObsSession, DisabledSessionIsInert) {
  obs::ObsOptions opts;  // no output paths
  obs::ObsSession session(opts);
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.recorder(), nullptr);
  EXPECT_EQ(session.metrics(16), nullptr);
  EXPECT_FALSE(obs::Profiler::instance().enabled());
  EXPECT_TRUE(session.finish());
}

TEST(ObsSession, HeatmapPathDerivation) {
  EXPECT_EQ(obs::heatmap_path_for("metrics.json"), "metrics_heatmap.csv");
  EXPECT_EQ(obs::heatmap_path_for("out/m"), "out/m_heatmap.csv");
}

// --- the non-perturbation guarantee ----------------------------------------
// Replicates determinism_test.cpp's Mesh8x8UniformWithReconfig hash with
// every observer attached at full sampling. The golden constant is the same
// one determinism_test pins for the bare fabric: observation must be free.

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(int v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void mix_stats(Fnv& h, const noc::EpochStats& s) {
  h.mix(s.packets_offered);
  h.mix(s.packets_received);
  h.mix(s.flits_injected);
  h.mix(s.flits_ejected);
  h.mix(s.avg_latency);
  h.mix(s.p95_latency);
  h.mix(s.max_latency);
  h.mix(s.avg_hops);
  h.mix(s.avg_buffer_occupancy);
  h.mix(s.source_queue_total);
}

void mix_records(Fnv& h, const std::vector<noc::PacketRecord>& records) {
  h.mix(static_cast<std::uint64_t>(records.size()));
  for (const noc::PacketRecord& r : records) {
    h.mix(r.packet_id);
    h.mix(r.src);
    h.mix(r.dst);
    h.mix(static_cast<std::uint64_t>(r.length));
    h.mix(r.inject_time);
    h.mix(r.eject_time);
    h.mix(static_cast<std::uint64_t>(r.hops));
    h.mix(static_cast<std::uint64_t>(r.measured ? 1 : 0));
  }
}

void mix_router_state(Fnv& h, noc::Network& net) {
  const int radix = net.topology().radix();
  const int vcs = net.params().max_vcs;
  for (int node = 0; node < net.num_nodes(); ++node) {
    noc::Router& r = net.router(node);
    h.mix(r.buffered_flits());
    for (int p = 0; p < radix; ++p) {
      for (int v = 0; v < vcs; ++v) {
        h.mix(r.input_occupancy(p, v));
        h.mix(r.advertised_capacity(p, v));
        h.mix(r.output_credits(p, v));
      }
    }
  }
}

std::uint64_t mesh8x8_hash(obs::FlightRecorder* rec,
                           obs::NetworkMetrics* metrics) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 42;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  if (rec != nullptr) net.set_flight_recorder(rec);
  if (metrics != nullptr) net.set_metrics(metrics);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);
  Fnv h;
  mix_stats(h, net.run_epoch(&w, 1500));
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&w, 1500));
  mix_records(h, records);
  mix_router_state(h, net);
  return h.value();
}

TEST(ObserverNonPerturbation, GoldenHashUnchangedWithAllObserversAttached) {
  obs::FlightRecorderParams rp;
  rp.sample_rate = 1.0;
  obs::FlightRecorder rec(rp);
  obs::NetworkMetrics metrics(64);
  obs::Profiler::instance().reset();
  obs::Profiler::instance().set_enabled(true);
  const std::uint64_t observed = mesh8x8_hash(&rec, &metrics);
  obs::Profiler::instance().set_enabled(false);
  obs::Profiler::instance().reset();
  // Golden constant from determinism_test.cpp — the bare-fabric value.
  EXPECT_EQ(observed, 11893662481098957864ULL);
  // The observers actually saw the run (they just didn't touch it).
  EXPECT_GT(rec.recorded(), 0u);
  EXPECT_GT(metrics.registry().samples(), 0u);
}

TEST(ObserverNonPerturbation, PartialSamplingMatchesBareRun) {
  obs::FlightRecorderParams rp;
  rp.sample_rate = 0.1;  // any rate must be behaviour-neutral
  obs::FlightRecorder rec(rp);
  EXPECT_EQ(mesh8x8_hash(&rec, nullptr), mesh8x8_hash(nullptr, nullptr));
}

}  // namespace
}  // namespace drlnoc
