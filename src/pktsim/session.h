// Packet-level experiment session: topology + network + router + TCP flows.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pktsim/tcp.h"

namespace dard::pktsim {

struct PktFlowSpec {
  NodeId src_host;
  NodeId dst_host;
  Bytes bytes = 0;
  Seconds start = 0;
  // Transport ports of the five tuple. When both are zero, add_flow()
  // substitutes (flow id as uint16, 80) — the historical packet-substrate
  // convention, kept so hashed path choices stay stable.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

class PktSession {
 public:
  PktSession(const topo::Topology& t, std::unique_ptr<PacketRouter> router,
             TcpConfig tcp = {}, Bytes queue_bytes = 0);
  // The network's delivery handler and the queue's timer handler hold
  // `this`.
  PktSession(const PktSession&) = delete;
  PktSession& operator=(const PktSession&) = delete;

  FlowId add_flow(const PktFlowSpec& spec);

  // Runs until every flow completes; aborts past `max_time` (a stuck
  // simulation is a bug, surfaced by the returned flag).
  bool run(Seconds max_time);

  [[nodiscard]] const TcpResult& result(FlowId id) const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  // Every added flow has finished; O(1), from a count kept at delivery.
  [[nodiscard]] bool all_done() const;

  [[nodiscard]] PacketRouter& router() { return *router_; }
  [[nodiscard]] PacketNetwork& network() { return net_; }
  [[nodiscard]] flowsim::EventQueue& events() { return events_; }

  // Mirrors substrate totals (pktsim.drops / pktsim.forwarded /
  // pktsim.retransmits) into `metrics` when run() returns. Null (the
  // default) costs nothing.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Times every event dispatch into the PktDispatch histogram (DESIGN.md
  // §13). Null (the default) disables it; the run loop then pays one null
  // check per event and never reads the clock.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  [[nodiscard]] std::uint64_t total_retransmissions() const;
  // Payload bytes cumulatively acknowledged across all flows (acked
  // segments x MSS); the packet substrate's goodput integral.
  [[nodiscard]] Bytes total_acked_bytes() const;

 private:
  const topo::Topology* topo_;
  flowsim::EventQueue events_;
  PacketNetwork net_;
  std::unique_ptr<PacketRouter> router_;
  TcpConfig tcp_;
  std::vector<std::unique_ptr<TcpFlow>> flows_;
  std::size_t finished_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace dard::pktsim
