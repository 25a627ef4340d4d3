#include "obs/spans.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dard::obs {

namespace {

// An exchange v6 folds into its refresh span (TraceEvent::span_clean).
bool clean(const QueryExchange& q) {
  return q.attempts == 1 && q.timeouts == 0 && q.lost == 0 && q.delivered;
}

}  // namespace

SpanRecorder::SpanRecorder(SimObserver* observer,
                           const topo::Topology* topology,
                           std::uint64_t query_bytes,
                           std::uint64_t reply_bytes)
    : observer_(observer),
      topo_(topology),
      query_bytes_(query_bytes),
      reply_bytes_(reply_bytes) {
  DCN_CHECK(topo_ != nullptr);
}

void SpanRecorder::emit(const TraceEvent& e) {
  if (observer_ != nullptr) observer_->on_span(e);
}

SpanRecorder::PairTally& SpanRecorder::Monitor::tally(std::size_t i,
                                                      NodeId sw) {
  if (i < tallies.size() && tallies[i].sw == sw) return tallies[i];
  const auto it = std::find_if(tallies.begin(), tallies.end(),
                               [sw](const PairTally& t) { return t.sw == sw; });
  if (it != tallies.end()) return *it;
  tallies.push_back(PairTally{sw, 0, 0});
  return tallies.back();
}

std::vector<std::uint64_t> SpanRecorder::link_bytes() const {
  std::vector<std::uint64_t> bytes(topo_->link_count(), 0);
  const std::size_t nodes = topo_->node_count();
  // Control messages take shortest hop-count routes — the modeled OpenFlow
  // channel, not subject to DARD's own path choice — found by BFS. A host
  // with one link (every host the topology builders make) shares the BFS
  // of the switch at its far end: that tree holds the host's routes past
  // the link, as the host's own BFS would find them. up[n] is the link that
  // first reached n, pointing away from the root; it is valid where
  // reached[n] is the current BFS.
  const auto root_of = [this](NodeId host) {
    const std::vector<LinkId>& out = topo_->out_links(host);
    return out.size() == 1 ? topo_->link(out.front()).dst : host;
  };
  std::vector<LinkId> up(nodes);
  std::vector<std::size_t> reached(nodes, 0);
  std::vector<NodeId> frontier;
  std::size_t bfs = 0;
  // The tallies of one root's hosts summed per switch: by_switch[sw], valid
  // for the switches listed in `switches`.
  std::vector<PairTally> by_switch(nodes);
  std::vector<NodeId> switches;

  struct Entry {
    NodeId::value_type root;
    std::uint64_t key;  // host<<32 | dst_tor
    const Monitor* m;
    bool operator<(const Entry& o) const {
      return root != o.root ? root < o.root : key < o.key;
    }
  };
  std::vector<Entry> order;
  order.reserve(monitors_.size());
  for (const auto& [key, m] : monitors_) {
    const NodeId host(static_cast<NodeId::value_type>(key >> 32));
    order.push_back(Entry{root_of(host).value(), key, &m});
  }
  std::sort(order.begin(), order.end());
  for (auto it = order.begin(); it != order.end();) {
    const NodeId root(it->root);
    ++bfs;
    frontier.assign(1, root);
    reached[root.value()] = bfs;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (const LinkId l : topo_->out_links(frontier[head])) {
        const NodeId next = topo_->link(l).dst;
        if (reached[next.value()] == bfs) continue;
        reached[next.value()] = bfs;
        up[next.value()] = l;
        frontier.push_back(next);
      }
    }

    switches.clear();
    for (; it != order.end() && it->root == root.value(); ++it) {
      const NodeId host(static_cast<NodeId::value_type>(it->key >> 32));
      for (const PairTally& t : it->m->tallies) {
        // A switch the host cannot reach gets no bytes: the exchange never
        // had a wire to ride.
        if (t.sw == host || reached[t.sw.value()] != bfs) continue;
        if (host != root) {
          const LinkId first = topo_->out_links(host).front();
          bytes[first.value()] += query_bytes_ * t.queries;
          bytes[topo_->reverse(first).value()] += reply_bytes_ * t.replies;
        }
        PairTally& sum = by_switch[t.sw.value()];
        if (!sum.sw.valid()) {
          sum.sw = t.sw;
          switches.push_back(t.sw);
        }
        sum.queries += t.queries;
        sum.replies += t.replies;
      }
    }
    for (const NodeId sw : switches) {
      const PairTally t = std::exchange(by_switch[sw.value()], PairTally{});
      // Each query attempt rides every hop towards the switch; each
      // delivered reply rides back over the same cables.
      for (NodeId n = sw; n != root; n = topo_->link(up[n.value()]).src) {
        const LinkId l = up[n.value()];
        bytes[l.value()] += query_bytes_ * t.queries;
        bytes[topo_->reverse(l).value()] += reply_bytes_ * t.replies;
      }
    }
  }
  return bytes;
}

void SpanRecorder::record_refresh(Seconds now, NodeId host, NodeId dst_tor,
                                  const std::vector<QueryExchange>& exchanges) {
  DCN_CHECK(host.value() < topo_->node_count());
  Monitor& m =
      monitors_[(static_cast<std::uint64_t>(host.value()) << 32) |
                dst_tor.value()];

  // Aggregate before emitting: the Refresh span precedes its Query children
  // in the stream so a streaming auditor never sees a dangling parent.
  std::uint32_t attempts = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t lost = 0;
  std::uint32_t folded = 0;
  Seconds longest = 0;
  bool all_ok = true;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const QueryExchange& q = exchanges[i];
    DCN_CHECK(q.sw.value() < topo_->node_count());
    attempts += q.attempts;
    timeouts += q.timeouts;
    lost += q.lost;
    longest = std::max(longest, q.latency);
    all_ok = all_ok && q.delivered;
    if (clean(q)) ++folded;
    PairTally& t = m.tally(i, q.sw);
    t.queries += q.attempts;
    t.replies += q.attempts - std::min(q.attempts, q.lost);
  }
  const std::uint64_t bytes =
      query_bytes_ * attempts +
      reply_bytes_ * (attempts - std::min(attempts, lost));

  const std::uint64_t refresh_id = next_id();
  TraceEvent r;
  r.kind = TraceEventKind::Span;
  r.time = now;
  r.span_kind = SpanKind::Refresh;
  r.cause_id = refresh_id;
  r.src_host = host;
  r.dst_host = dst_tor;
  r.span_attempts = attempts;
  r.span_timeouts = timeouts;
  r.span_lost = lost;
  r.span_clean = folded;
  r.span_bytes = bytes;
  r.span_duration = longest;
  r.accepted = all_ok;
  emit(r);

  // Every exchange draws its span id, so ids match a trace that wrote them
  // all; only the exchanges that are not clean get a Query span.
  for (const QueryExchange& q : exchanges) {
    const std::uint64_t id = next_id();
    if (clean(q)) continue;
    const std::uint64_t delivered =
        q.attempts - std::min(q.attempts, q.lost);
    TraceEvent e;
    e.kind = TraceEventKind::Span;
    e.time = now;
    e.span_kind = SpanKind::Query;
    e.cause_id = id;
    e.parent_id = refresh_id;
    e.src_host = host;
    e.dst_host = q.sw;
    e.span_attempts = q.attempts;
    e.span_timeouts = q.timeouts;
    e.span_lost = q.lost;
    e.span_bytes = query_bytes_ * q.attempts + reply_bytes_ * delivered;
    e.span_duration = q.latency;
    e.accepted = q.delivered;
    emit(e);
  }

  totals_.query_spans += exchanges.size();
  totals_.refresh_spans += 1;
  totals_.spans += exchanges.size() + 1;
  totals_.attempts += attempts;
  totals_.timeouts += timeouts;
  totals_.lost += lost;
  totals_.messages += 2ull * attempts - lost;
  totals_.bytes += bytes;

  m.head_id = refresh_id;
  m.head_start = now;
}

void SpanRecorder::record_decision(Seconds now, NodeId host,
                                   std::size_t evaluations, bool accepted,
                                   NodeId winner_dst_tor) {
  // Parent to the refresh whose assembled state the decision consumed; the
  // duration is that state's age. Decisions with no accepted move (or
  // before any refresh) are roots.
  std::uint64_t parent = 0;
  Seconds age = 0;
  if (accepted && winner_dst_tor.valid()) {
    const auto head = monitors_.find(
        (static_cast<std::uint64_t>(host.value()) << 32) |
        winner_dst_tor.value());
    if (head != monitors_.end()) {
      parent = head->second.head_id;
      age = now - head->second.head_start;
    }
  }

  TraceEvent e;
  e.kind = TraceEventKind::Span;
  e.time = now;
  e.span_kind = SpanKind::Decision;
  e.cause_id = next_id();
  e.parent_id = parent;
  e.src_host = host;
  if (accepted) e.dst_host = winner_dst_tor;
  e.span_attempts = static_cast<std::uint32_t>(evaluations);
  e.span_duration = age;
  e.accepted = accepted;
  emit(e);

  ++totals_.decision_spans;
  ++totals_.spans;
}

void SpanRecorder::record_move(Seconds now, NodeId host, FlowId flow,
                               NodeId dst_tor, std::uint64_t round_id) {
  Seconds chain = 0;
  const auto head = monitors_.find(
      (static_cast<std::uint64_t>(host.value()) << 32) | dst_tor.value());
  if (head != monitors_.end()) chain = now - head->second.head_start;

  TraceEvent e;
  e.kind = TraceEventKind::Span;
  e.time = now;
  e.span_kind = SpanKind::Move;
  e.cause_id = next_id();
  e.parent_id = round_id;
  e.src_host = host;
  e.dst_host = dst_tor;
  e.flow = flow;
  e.span_duration = chain;
  e.accepted = true;
  emit(e);

  ++totals_.move_spans;
  ++totals_.spans;
}

void SpanRecorder::write_link_csv(std::ostream& os) const {
  const std::vector<std::uint64_t> bytes = link_bytes();
  os << "link,src,dst,control_bytes\n";
  for (std::size_t lv = 0; lv < bytes.size(); ++lv) {
    if (bytes[lv] == 0) continue;
    const topo::Link& l = topo_->link(LinkId{static_cast<LinkId::value_type>(lv)});
    os << lv << ',' << topo_->node(l.src).name << ','
       << topo_->node(l.dst).name << ',' << bytes[lv] << '\n';
  }
}

}  // namespace dard::obs
