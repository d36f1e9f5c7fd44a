// Golden determinism tests: fixed-seed runs must reproduce exact bit
// patterns across refactors (README "Determinism contract"). The golden
// hashes below were captured from the pre-PR2 (allocation-heavy) build; the
// allocation-free hot paths must not move a single bit.
//
// Everything hashed here avoids libm transcendentals (only +,-,*,/ and the
// exactly-rounded sqrt reach the hashed values), so the goldens are stable
// across compilers, optimisation levels, and libc versions on IEEE-754
// platforms.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "noc/network.h"
#include "noc/workload.h"
#include "rl/dqn.h"
#include "util/rng.h"

namespace drlnoc {
namespace {

/// FNV-1a over 64-bit words; doubles are hashed by bit pattern.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
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

/// Microarchitectural state: every input VC occupancy and advertised
/// capacity, every output VC credit count.
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

TEST(GoldenDeterminism, Mesh8x8UniformWithReconfig) {
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.seed = 42;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.10);

  Fnv h;
  mix_stats(h, net.run_epoch(&w, 1500));
  // Mid-run reconfiguration: fewer VCs, shallower buffers, slower clock —
  // exercises credit withholding and VC gating on live traffic.
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&w, 1500));
  mix_records(h, records);
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 11893662481098957864ULL);
}

TEST(GoldenDeterminism, Mesh6x6OddEvenTranspose) {
  noc::NetworkParams p;
  p.width = p.height = 6;
  p.routing = "oddeven";  // adaptive: multiple candidates per route
  p.seed = 7;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "transpose", 0.12);

  Fnv h;
  mix_stats(h, net.run_epoch(&w, 2000));
  mix_records(h, records);
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 634678814998183288ULL);
}

TEST(GoldenDeterminism, Mesh16x16UniformLowLoadWithReconfig) {
  // Low load on the large mesh: most routers are idle most cycles, which is
  // exactly the regime the event-driven network core skips — the hash pins
  // that skipping provably idle work never changes simulated behavior.
  noc::NetworkParams p;
  p.width = p.height = 16;
  p.seed = 21;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.02);

  Fnv h;
  mix_stats(h, net.run_epoch(&w, 1200));
  net.apply_config(noc::NocConfig{2, 4, 2});
  mix_stats(h, net.run_epoch(&w, 1200));
  mix_records(h, records);
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 10559580170762473702ULL);
}

TEST(GoldenDeterminism, Torus4x4DatelineClasses) {
  noc::NetworkParams p;
  p.topology = "torus";
  p.width = p.height = 4;
  p.seed = 13;
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.15);

  Fnv h;
  mix_stats(h, net.run_epoch(&w, 2000));
  mix_records(h, records);
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 375709662462404824ULL);
}

TEST(GoldenDeterminism, Mesh8x8PipelinedSlowLinks) {
  // Two-cycle links and a three-stage router pipeline leave channels holding
  // items that are not yet due; a mid-run depth growth floods bonus credits
  // and a per-node slowdown lets a degraded router's inbound channels pile
  // up between its steps. Together they pin that receive only ever takes
  // due items, in channel order.
  noc::NetworkParams p;
  p.width = p.height = 8;
  p.link_latency = 2;
  p.pipeline_stages = 3;
  p.seed = 17;
  p.initial_config = noc::NocConfig{4, 3, 3};
  noc::Network net(p);
  std::vector<noc::PacketRecord> records;
  net.set_record_sink(&records);
  noc::FaultParams fp;
  fp.seed = 5;
  noc::FaultEvent slow;
  slow.at_cycle = 400;
  slow.kind = noc::FaultEvent::Kind::kSlowdown;
  slow.node = 27;
  slow.factor = 3;
  fp.events = {slow};
  net.set_fault_model(fp);
  noc::SteadyWorkload w =
      noc::SteadyWorkload::make(net.topology(), "uniform", 0.06);

  Fnv h;
  mix_stats(h, net.run_epoch(&w, 1500));
  net.apply_config(noc::NocConfig{4, 8, 3});  // depth 3 -> 8: bonus credits
  mix_stats(h, net.run_epoch(&w, 1500));
  mix_records(h, records);
  mix_router_state(h, net);

  EXPECT_EQ(h.value(), 5555545450419352645ULL);
}

TEST(GoldenDeterminism, DqnLearningTrajectory) {
  rl::DqnParams dp;
  dp.hidden = {32, 32};
  dp.min_replay = 64;
  dp.batch_size = 16;
  dp.replay_capacity = 512;
  dp.n_step = 3;
  dp.dueling = true;
  dp.double_dqn = true;
  dp.seed = 11;
  rl::DqnAgent agent(10, 6, dp);

  util::Rng rng(99);
  rl::Transition t;
  t.state.assign(10, 0.0);
  t.next_state.assign(10, 0.0);
  Fnv h;
  double loss_sum = 0.0;
  for (int i = 0; i < 600; ++i) {
    for (double& v : t.state) v = rng.uniform();
    for (double& v : t.next_state) v = rng.uniform();
    t.action = static_cast<int>(rng.below(6));
    t.reward = -rng.uniform();
    t.done = (i % 50) == 49;
    if (const auto loss = agent.observe(t)) loss_sum += *loss;
  }
  h.mix(loss_sum);
  h.mix(agent.learn_steps());

  std::vector<double> probe(10);
  for (int k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = 0.25 * (k + 1) + 0.01 * static_cast<double>(i);
    }
    for (double q : agent.q_values(probe)) h.mix(q);
    h.mix(agent.act_greedy(probe));
  }

  EXPECT_EQ(h.value(), 8150709562051516707ULL);
}

}  // namespace
}  // namespace drlnoc
