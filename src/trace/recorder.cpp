#include "trace/recorder.h"

#include <algorithm>

namespace drlnoc::trace {

TraceRecorder::TraceRecorder(int nodes, int default_length)
    : nodes_(nodes), default_length_(default_length) {}

void TraceRecorder::attach(noc::Network& net) {
  net.set_record_sink(&records_);
}

void TraceRecorder::add(const noc::PacketRecord& rec) {
  records_.push_back(rec);
}

Trace TraceRecorder::build() const {
  Trace trace;
  trace.nodes = nodes_;
  trace.default_length = default_length_;
  trace.records.reserve(records_.size());
  for (const noc::PacketRecord& rec : records_) {
    TraceRecord r;
    r.id = rec.packet_id;
    r.src = rec.src;
    r.dst = rec.dst;
    r.time = rec.inject_time;
    r.length = rec.length;
    trace.records.push_back(std::move(r));
  }
  // Completion order -> injection order. Ids are assigned sequentially at
  // injection, so this also sorts by (inject_time, node).
  std::sort(trace.records.begin(), trace.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.id < b.id;
            });
  return trace;
}

}  // namespace drlnoc::trace
