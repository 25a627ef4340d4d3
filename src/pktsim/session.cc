#include "pktsim/session.h"

namespace dard::pktsim {

PktSession::PktSession(const topo::Topology& t,
                       std::unique_ptr<PacketRouter> router, TcpConfig tcp,
                       Bytes queue_bytes)
    : topo_(&t),
      net_(t, events_, queue_bytes),
      router_(std::move(router)),
      tcp_(tcp) {
  router_->attach(net_, events_);
  // Delivery is the only way a flow completes, so finished flows are
  // counted here rather than scanned for.
  net_.set_delivery_handler([this](const Packet& p) {
    DCN_CHECK(p.flow.value() < flows_.size());
    TcpFlow& flow = *flows_[p.flow.value()];
    if (flow.result().done()) return;
    flow.on_packet(p);
    if (flow.result().done()) ++finished_;
  });
  // A flow's RTO is the keyed timer of its id.
  events_.set_timer_handler(
      [this](std::uint32_t key) { flows_[key]->on_rto(); });
}

FlowId PktSession::add_flow(const PktFlowSpec& spec) {
  DCN_CHECK(spec.bytes > 0);
  const FlowId id(static_cast<FlowId::value_type>(flows_.size()));
  const std::uint64_t segments = (spec.bytes + kMss - 1) / kMss;
  // Default ports: the historical (flow id, 80) five tuple, so path hashes
  // of port-less workloads stay what they always were.
  std::uint16_t src_port = spec.src_port, dst_port = spec.dst_port;
  if (src_port == 0 && dst_port == 0) {
    src_port = static_cast<std::uint16_t>(id.value());
    dst_port = 80;
  }
  flows_.push_back(std::make_unique<TcpFlow>(id, spec.src_host, spec.dst_host,
                                             src_port, dst_port, segments,
                                             tcp_, *topo_, net_, events_,
                                             *router_));
  flows_.back()->start(spec.start);
  return id;
}

std::uint64_t PktSession::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->result().retransmissions;
  return total;
}

Bytes PktSession::total_acked_bytes() const {
  Bytes total = 0;
  for (const auto& f : flows_) total += f->acked_segments() * kMss;
  return total;
}

bool PktSession::run(Seconds max_time) {
  while (!all_done() && !events_.empty() && events_.now() <= max_time) {
    const obs::ProfileScope timed(profiler_,
                                  obs::ProfileSection::PktDispatch);
    events_.run_next();
  }
  if (metrics_ != nullptr) {
    metrics_->counter("pktsim.drops").add(net_.drops());
    metrics_->counter("pktsim.forwarded").add(net_.forwarded());
    metrics_->counter("pktsim.retransmits").add(total_retransmissions());
  }
  return all_done();
}

const TcpResult& PktSession::result(FlowId id) const {
  DCN_CHECK(id.value() < flows_.size());
  return flows_[id.value()]->result();
}

bool PktSession::all_done() const { return finished_ == flows_.size(); }

}  // namespace dard::pktsim
