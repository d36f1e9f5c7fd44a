// TraceRecorder: captures a live simulation — synthetic, phased, or
// DRL-controlled — into a Trace for later bit-exact replay. It attaches as
// the network's record sink, so attach() must come before the first step
// whose deliveries should be captured, and a run must be drained (all
// offered packets delivered) for the capture to be complete; the recorder
// reports how many packets it saw so callers can assert that.
//
// Replaying a capture with TraceWorkload on an identically-parameterised
// Network reproduces the identical delivered-packet stream, bit for bit:
// the capture preserves (source, destination, injection tick, length) and
// network packet ids are reassigned in the same (tick, node) order.
#pragma once

#include <vector>

#include "noc/network.h"
#include "trace/trace.h"

namespace drlnoc::trace {

class TraceRecorder {
 public:
  /// `nodes` must match the network being captured; `default_length` seeds
  /// the trace header (captured records always carry explicit lengths).
  explicit TraceRecorder(int nodes, int default_length = 4);

  /// Attaches the capture buffer as `net`'s record sink (replacing any
  /// other sink): every packet delivered from the next step on is captured.
  /// The recorder must outlive stepping while attached; detach with
  /// net.set_record_sink(nullptr).
  void attach(noc::Network& net);

  /// Adds one completed packet directly (for custom harvesting loops).
  void add(const noc::PacketRecord& rec);

  std::size_t captured() const { return records_.size(); }

  /// Builds the trace: records sorted into injection order (network packet
  /// ids are assigned at injection, so sorting by id restores it), ids
  /// preserved, times absolute, no dependencies.
  Trace build() const;

 private:
  int nodes_;
  int default_length_;
  std::vector<noc::PacketRecord> records_;
};

}  // namespace drlnoc::trace
