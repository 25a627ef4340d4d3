#include "pktsim/agent_router.h"

#include <algorithm>
#include <string>

#include "fabric/auditor.h"

namespace dard::pktsim {

AgentRouter::AgentRouter(const topo::Topology& t, fabric::ControlAgent& agent,
                         Seconds elephant_threshold)
    : PathSetRouter(t),
      agent_(&agent),
      elephant_threshold_(elephant_threshold),
      board_(t) {}

void AgentRouter::attach(PacketNetwork& net, flowsim::EventQueue& events) {
  PacketRouter::attach(net, events);
  agent_->start(*this);
}

void AgentRouter::board_add(const FlowPaths& fp) {
  for (const LinkId l : fp.routes[fp.current]) board_.add_elephant(l);
}

void AgentRouter::board_remove(const FlowPaths& fp) {
  for (const LinkId l : fp.routes[fp.current]) board_.remove_elephant(l);
}

void AgentRouter::on_flow_started(FlowId flow, NodeId src, NodeId dst,
                                  std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  FlowPaths fp = make_flow_paths(src, dst);
  fp.src_port = src_port;
  fp.dst_port = dst_port;
  const auto it = flows_.emplace(flow, std::move(fp)).first;
  active_.push_back(flow);
  it->second.current = agent_->place(*this, flow_view(flow));
  DCN_CHECK_MSG(it->second.current < it->second.routes.size(),
                "agent placed flow on out-of-range path");
  if (elephant_threshold_ <= 0) {
    promote(flow);
  } else {
    events_->schedule(events_->now() + elephant_threshold_, [this, flow] {
      const auto live = flows_.find(flow);
      if (live != flows_.end() && !live->second.is_elephant) promote(flow);
    });
  }
}

void AgentRouter::promote(FlowId flow) {
  FlowPaths& fp = flows_.at(flow);
  fp.is_elephant = true;
  board_add(fp);
  ++active_elephants_;
  peak_elephants_ = std::max(peak_elephants_, active_elephants_);
  agent_->on_elephant(*this, flow_view(flow));
}

void AgentRouter::on_flow_finished(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  if (it->second.is_elephant) {
    board_remove(it->second);
    --active_elephants_;
  }
  agent_->on_finished(*this, flow_view(flow));
  finished_.emplace(
      flow, FinishedFlow{it->second.switches, it->second.is_elephant});
  active_.erase(std::find(active_.begin(), active_.end(), flow));
  flows_.erase(it);
}

const std::vector<LinkId>& AgentRouter::route_for(FlowId flow, std::uint64_t) {
  const FlowPaths& fp = flows_.at(flow);
  return fp.routes[fp.current];
}

bool AgentRouter::was_elephant(FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it != flows_.end()) return it->second.is_elephant;
  const auto done = finished_.find(flow);
  return done != finished_.end() && done->second.was_elephant;
}

std::uint64_t AgentRouter::path_switches(FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it != flows_.end()) return it->second.switches;
  const auto done = finished_.find(flow);
  return done == finished_.end() ? 0 : done->second.switches;
}

void AgentRouter::set_cable_failed(NodeId a, NodeId b, bool failed) {
  const LinkId ab = topo_->find_link(a, b);
  const LinkId ba = topo_->find_link(b, a);
  DCN_CHECK_MSG(ab.valid() && ba.valid(), "no such cable");
  board_.set_failed(ab, failed);
  board_.set_failed(ba, failed);
  DCN_CHECK_MSG(net_ != nullptr, "router not attached to a network");
  net_->set_link_failed(ab, failed);
  net_->set_link_failed(ba, failed);
}

void AgentRouter::audit(fabric::Auditor& auditor) {
  std::vector<std::uint32_t> counts(topo_->link_count(), 0);
  for (const FlowId id : active_) {
    const auto it = flows_.find(id);
    auditor.check(it != flows_.end(),
                  "active flow " + std::to_string(id.value()) +
                      " has no route state");
    if (it == flows_.end()) continue;
    const FlowPaths& fp = it->second;
    auditor.check(fp.current < fp.routes.size(),
                  "flow " + std::to_string(id.value()) +
                      " points at a path index outside its route set");
    if (fp.current >= fp.routes.size() || !fp.is_elephant) continue;
    for (const LinkId l : fp.routes[fp.current]) ++counts[l.value()];
  }
  // Refcount consistency: recount per-link elephants from the flows'
  // current routes against the board the daemons query.
  for (std::uint32_t l = 0; l < counts.size(); ++l)
    auditor.check(counts[l] == board_.elephants(LinkId{l}),
                  "link " + std::to_string(l) + " elephant refcount drift (" +
                      std::to_string(board_.elephants(LinkId{l})) +
                      " on the board, " + std::to_string(counts[l]) +
                      " recounted)");
  // Failure-state agreement: the board the control plane reads and the
  // network packets traverse must name the same failed links.
  if (net_ != nullptr)
    for (std::uint32_t l = 0; l < counts.size(); ++l)
      auditor.check(board_.failed(LinkId{l}) == net_->link_failed(LinkId{l}),
                    "link " + std::to_string(l) +
                        " failure state differs between board and network");
}

void AgentRouter::move_flow(FlowId id, PathIndex new_path) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;  // finished before a scheduled round fired
  FlowPaths& fp = it->second;
  DCN_CHECK_MSG(new_path < fp.routes.size(), "path index out of range");
  if (fp.current == new_path) return;
  const PathIndex old_path = fp.current;
  if (fp.is_elephant) board_remove(fp);
  fp.current = new_path;
  if (fp.is_elephant) board_add(fp);
  ++fp.switches;
  ++moves_;
  if (observer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::FlowMove;
    e.time = events_->now();
    e.flow = id;
    e.src_host = fp.src_host;
    e.dst_host = fp.dst_host;
    e.path_from = old_path;
    e.path_to = new_path;
    e.cause_id = take_move_cause();
    observer_->on_flow_move(e);
  }
}

void AgentRouter::move_flows(
    const std::vector<std::pair<FlowId, PathIndex>>& moves) {
  for (const auto& [id, path] : moves) move_flow(id, path);
}

fabric::FlowView AgentRouter::flow_view(FlowId id) const {
  const FlowPaths& fp = flows_.at(id);
  return fabric::FlowView{id,
                          fp.src_host,
                          fp.dst_host,
                          topo_->tor_of_host(fp.src_host),
                          topo_->tor_of_host(fp.dst_host),
                          fp.src_port,
                          fp.dst_port,
                          fp.current,
                          fp.is_elephant};
}

PathSetRouter::FlowPaths TunneledAgentRouter::make_flow_paths(
    NodeId src_host, NodeId dst_host) {
  FlowPaths fp;
  fp.src_host = src_host;
  fp.dst_host = dst_host;
  const NodeId src_tor = topo_->tor_of_host(src_host);
  const NodeId dst_tor = topo_->tor_of_host(dst_host);
  const std::size_t count = repo_.generator().count(src_tor, dst_tor);
  for (PathIndex i = 0; i < count; ++i) {
    const auto header = addr::make_tunnel(*plan_, repo_, src_host, dst_host, i);
    DCN_CHECK_MSG(header.has_value(), "unencodable equal-cost path");
    fp.routes.push_back(addr::tunnel_route(*plan_, *header).links);
  }
  return fp;
}

Bytes TunneledAgentRouter::encap_overhead() const {
  return addr::kEncapOverheadBytes;
}

addr::EncapHeader TunneledAgentRouter::header_for(FlowId flow) const {
  const FlowPaths& fp = flows_.at(flow);
  const auto header =
      addr::make_tunnel(*plan_, repo_, fp.src_host, fp.dst_host, fp.current);
  DCN_CHECK(header.has_value());
  return *header;
}

}  // namespace dard::pktsim
