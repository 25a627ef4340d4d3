#include "faults/injector.h"

#include <algorithm>

namespace dard::faults {

namespace {

const topo::Node* find_node(const topo::Topology& t, const std::string& name) {
  for (const topo::Node& n : t.nodes())
    if (n.name == name) return &n;
  return nullptr;
}

std::string missing(const std::string& name) {
  return "unknown topology node '" + name + "'";
}

// "" when `name` is a host with at least one cable, else why not.
std::string check_host(const topo::Topology& t, const std::string& name,
                       const char* what) {
  const topo::Node* n = find_node(t, name);
  if (n == nullptr) return std::string(what) + ": " + missing(name);
  if (n->kind != topo::NodeKind::Host)
    return std::string(what) + " targets '" + name + "', a non-host node";
  if (t.out_links(n->id).empty()) return "host '" + name + "' has no cables";
  return {};
}

}  // namespace

std::string check_plan(const FaultPlan& plan, const topo::Topology& t) {
  for (const LinkEvent& e : plan.link_events()) {
    const std::string cable = e.a + "-" + e.b;
    const topo::Node* a = find_node(t, e.a);
    const topo::Node* b = find_node(t, e.b);
    if (a == nullptr || b == nullptr)
      return "cable " + cable + ": " + missing(a == nullptr ? e.a : e.b);
    if (!t.find_link(a->id, b->id).valid())
      return "no cable " + cable + " in the fabric";
  }
  for (const SwitchEvent& e : plan.switch_events()) {
    const topo::Node* n = find_node(t, e.node);
    if (n == nullptr) return "switch fault: " + missing(e.node);
    if (n->kind == topo::NodeKind::Host)
      return "switch fault targets host '" + e.node + "'";
    if (t.out_links(n->id).empty())
      return "switch '" + e.node + "' has no cables";
  }
  for (const AgentEvent& e : plan.agent_events())
    if (auto err = check_host(t, e.host, "agent fault"); !err.empty())
      return err;
  for (const HostEvent& e : plan.host_events())
    if (auto err = check_host(t, e.host, "host fault"); !err.empty())
      return err;
  return {};
}

FaultInjector::FaultInjector(fabric::DataPlane& net, const FaultPlan& plan,
                             std::uint64_t seed)
    : net_(&net), model_(seed) {
  const std::string error = check_plan(plan, net_->topology());
  DCN_CHECK_MSG(error.empty(), error.c_str());
  for (const LinkEvent& e : plan.link_events())
    link_events_.push_back(
        ResolvedLinkEvent{e.time, resolve(e.a), resolve(e.b), e.fail});
  for (const SwitchEvent& e : plan.switch_events()) {
    const NodeId sw = resolve(e.node);
    ResolvedSwitchEvent r{e.time, sw, {}, e.fail};
    for (const LinkId l : net_->topology().out_links(sw))
      r.neighbors.push_back(net_->topology().link(l).dst);
    switch_events_.push_back(std::move(r));
  }
  windows_ = plan.control_windows();
  for (const AgentEvent& e : plan.agent_events())
    agent_events_.push_back(
        ResolvedAgentEvent{e.time, resolve(e.host), e.restart_after});
  for (const HostEvent& e : plan.host_events()) {
    const NodeId host = resolve(e.host);
    ResolvedHostEvent r{e.time, host, {}, e.fail};
    for (const LinkId l : net_->topology().out_links(host))
      r.tors.push_back(net_->topology().link(l).dst);
    host_events_.push_back(std::move(r));
  }
}

NodeId FaultInjector::resolve(const std::string& name) const {
  const topo::Node* n = find_node(net_->topology(), name);
  DCN_CHECK_MSG(n != nullptr, "fault plan names an unknown topology node");
  return n->id;
}

FaultInjector::CableKey FaultInjector::key(NodeId a, NodeId b) {
  return {std::min(a.value(), b.value()), std::max(a.value(), b.value())};
}

void FaultInjector::count_injection() {
  ++injected_;
  if (m_injected_ != nullptr) m_injected_->add();
}

void FaultInjector::emit_fault(obs::FaultAction action, NodeId a, NodeId b) {
  obs::SimObserver* const observer = net_->observer();
  if (observer == nullptr) return;
  obs::TraceEvent e;
  e.kind = obs::TraceEventKind::Fault;
  e.time = net_->events().now();
  e.fault_action = action;
  e.src_host = a;
  e.dst_host = b;
  // Fault transitions share the cause-id space with DARD rounds (DESIGN.md
  // §12), so a trace totally orders everything that can reroute traffic.
  e.cause_id = net_->next_cause_id();
  observer->on_fault(e);
}

void FaultInjector::apply_cable(NodeId a, NodeId b, bool fail) {
  int& causes = down_causes_[key(a, b)];
  if (fail) {
    if (causes++ == 0) {
      net_->set_cable_failed(a, b, true);
      count_injection();
      emit_fault(obs::FaultAction::CableDown, a, b);
    }
  } else {
    DCN_CHECK_MSG(causes > 0, "repairing a cable that was never failed");
    if (--causes == 0) {
      net_->set_cable_failed(a, b, false);
      count_injection();
      emit_fault(obs::FaultAction::CableUp, a, b);
    }
  }
}

void FaultInjector::apply_daemon_crash(NodeId host) {
  ++agent_crashes_;
  count_injection();
  agent_->on_daemon_crash(*net_, host);
  emit_fault(obs::FaultAction::AgentCrash, host);
}

void FaultInjector::apply_daemon_restart(NodeId host) {
  ++agent_restarts_;
  count_injection();
  agent_->on_daemon_restart(*net_, host);
  emit_fault(obs::FaultAction::AgentRestart, host);
  if (restart_listener_) restart_listener_(net_->events().now(), host);
}

void FaultInjector::install() {
  DCN_CHECK_MSG(!installed_, "fault plan installed twice");
  DCN_CHECK_MSG(
      (agent_events_.empty() && host_events_.empty()) || agent_ != nullptr,
      "agent-level faults require set_agent() before install()");
  installed_ = true;
  if (obs::MetricsRegistry* m = net_->metrics())
    m_injected_ = &m->counter("faults.injected");

  flowsim::EventQueue& events = net_->events();
  const Seconds now = events.now();
  // Events at or before `now` apply at the current instant (a plan may
  // start at t=0 on a queue that has not run yet).
  const auto at = [now](Seconds t) { return std::max(t, now); };

  for (const ResolvedLinkEvent& e : link_events_)
    events.schedule(at(e.time),
                    [this, e] { apply_cable(e.a, e.b, e.fail); });

  for (const ResolvedSwitchEvent& e : switch_events_)
    events.schedule(at(e.time), [this, &e] {
      for (const NodeId nb : e.neighbors) apply_cable(e.node, nb, e.fail);
    });

  for (const ControlWindow& w : windows_) {
    events.schedule(at(w.start), [this, w] {
      model_.set_degradation(w.query_loss, w.reply_delay);
      if (w.stale) model_.capture_stale(net_->link_state());
      count_injection();
      emit_fault(obs::FaultAction::ControlWindowStart);
    });
    events.schedule(at(w.end), [this] {
      model_.clear_degradation();
      model_.clear_stale();
      count_injection();
      emit_fault(obs::FaultAction::ControlWindowEnd);
    });
  }

  for (const ResolvedAgentEvent& e : agent_events_) {
    events.schedule(at(e.time), [this, e] { apply_daemon_crash(e.host); });
    if (e.restart_after >= 0)
      events.schedule(at(e.time) + e.restart_after,
                      [this, e] { apply_daemon_restart(e.host); });
  }

  for (const ResolvedHostEvent& e : host_events_)
    events.schedule(at(e.time), [this, &e] {
      if (e.fail) {
        // Daemon dies with its host; the NIC cables fail after, so the
        // crash hook observes the pre-outage network one last time.
        apply_daemon_crash(e.host);
        for (const NodeId tor : e.tors) apply_cable(e.host, tor, true);
        emit_fault(obs::FaultAction::HostDown, e.host);
      } else {
        // Cables first: the restarting daemon's cold-start queries must see
        // the revived fabric, not the outage.
        for (const NodeId tor : e.tors) apply_cable(e.host, tor, false);
        apply_daemon_restart(e.host);
        emit_fault(obs::FaultAction::HostUp, e.host);
      }
    });
}

std::size_t FaultInjector::cables_down() const {
  std::size_t n = 0;
  for (const auto& [cable, causes] : down_causes_)
    if (causes > 0) ++n;
  return n;
}

}  // namespace dard::faults
