#include "pktsim/tcp.h"

#include <algorithm>

namespace dard::pktsim {

TcpFlow::TcpFlow(FlowId id, NodeId src_host, NodeId dst_host,
                 std::uint16_t src_port, std::uint16_t dst_port,
                 std::uint64_t total_segments, const TcpConfig& cfg,
                 const topo::Topology& t, PacketNetwork& net,
                 flowsim::EventQueue& events, PacketRouter& router)
    : id_(id),
      src_host_(src_host),
      dst_host_(dst_host),
      src_port_(src_port),
      dst_port_(dst_port),
      total_(total_segments),
      cfg_(cfg),
      topo_(&t),
      net_(&net),
      events_(&events),
      router_(&router),
      cwnd_(cfg.initial_cwnd),
      ssthresh_(cfg.initial_ssthresh),
      rto_(cfg.initial_rto) {
  DCN_CHECK(total_ > 0);
}

void TcpFlow::start(Seconds at) {
  events_->schedule(at, [this] { begin(); });
}

void TcpFlow::begin() {
  result_.start = events_->now();
  router_->on_flow_started(id_, src_host_, dst_host_, src_port_, dst_port_);
  maybe_send();
  arm_rto();
}

Route TcpFlow::reverse_route(const Route& route) const {
  Route rev;
  for (auto it = route.end(); it != route.begin();)
    rev.push_back(topo_->reverse(*--it));
  return rev;
}

void TcpFlow::send_segment(std::uint64_t seq) {
  Packet p;
  p.flow = id_;
  p.seq = seq;
  p.is_ack = false;
  p.size = kDataPacketBytes + router_->encap_overhead();
  p.route = router_->route_for(id_, seq);
  if (seq < snd_max_) {
    ++result_.retransmissions;
    // Karn: never time a retransmitted segment.
    if (timing_ && seq <= timed_seq_) timing_ = false;
  } else {
    ++result_.unique_packets;
    snd_max_ = seq + 1;
    if (!timing_) {
      timing_ = true;
      timed_seq_ = seq;
      timed_at_ = events_->now();
    }
  }
  net_->send(p);
}

void TcpFlow::maybe_send() {
  const auto window = static_cast<std::uint64_t>(std::max(1.0, cwnd_));
  while (next_seq_ < total_ && next_seq_ - acked_ < window) {
    send_segment(next_seq_);
    ++next_seq_;
  }
}

void TcpFlow::on_packet(const Packet& p) {
  if (result_.done()) return;
  if (p.is_ack)
    on_ack(p.seq);
  else
    on_data(p);
}

void TcpFlow::on_data(const Packet& p) {
  // Receiver side: reassemble, emit one cumulative ACK per data packet.
  if (p.seq == rcv_next_) {
    ++rcv_next_;
    while (!out_of_order_.empty() && *out_of_order_.begin() == rcv_next_) {
      out_of_order_.erase(out_of_order_.begin());
      ++rcv_next_;
    }
  } else if (p.seq > rcv_next_) {
    out_of_order_.insert(p.seq);
  }  // p.seq < rcv_next_: stale duplicate; still ack

  Packet ack;
  ack.flow = id_;
  ack.seq = rcv_next_;
  ack.is_ack = true;
  ack.size = kAckPacketBytes + router_->encap_overhead();
  ack.route = reverse_route(p.route);
  net_->send(ack);
}

void TcpFlow::on_ack(std::uint64_t cum) {
  if (cum > acked_)
    handle_new_ack(cum);
  else if (cum == acked_)
    handle_dup_ack();
  // cum < acked_: reordered stale ACK; ignore.
}

void TcpFlow::handle_new_ack(std::uint64_t cum) {
  // RTT sample (only for never-retransmitted timed segments).
  if (timing_ && cum > timed_seq_) {
    const double sample = events_->now() - timed_at_;
    timing_ = false;
    if (srtt_ < 0) {
      srtt_ = sample;
      rttvar_ = sample / 2;
    } else {
      rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
      srtt_ = 0.875 * srtt_ + 0.125 * sample;
    }
    rto_ = std::max(cfg_.min_rto, srtt_ + 4 * rttvar_);
  }

  if (in_recovery_) {
    if (cum >= recover_) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      dupacks_ = 0;
    } else {
      // New Reno partial ACK: the next hole was also lost; retransmit it
      // immediately and stay in recovery.
      acked_ = cum;
      next_seq_ = std::max(next_seq_, acked_);  // keep send cursor >= una
      send_segment(cum);
      arm_rto();
      return;
    }
  } else {
    cwnd_ += cwnd_ < ssthresh_ ? 1.0 : 1.0 / cwnd_;
  }
  acked_ = cum;
  next_seq_ = std::max(next_seq_, acked_);  // the ACK may jump past a rewind
  dupacks_ = 0;

  if (acked_ >= total_) {
    complete();
    return;
  }
  arm_rto();
  maybe_send();
}

void TcpFlow::handle_dup_ack() {
  ++dupacks_;
  if (!in_recovery_ && dupacks_ == 3) {
    ssthresh_ = std::max(cwnd_ / 2, 2.0);
    cwnd_ = ssthresh_ + 3;
    in_recovery_ = true;
    recover_ = snd_max_;
    ++result_.fast_retransmits;
    send_segment(acked_);
    arm_rto();
  } else if (in_recovery_) {
    cwnd_ += 1.0;  // window inflation per additional dup ACK
    maybe_send();
  }
}

void TcpFlow::arm_rto() { events_->arm(id_.value(), events_->now() + rto_); }

void TcpFlow::on_rto() {
  if (acked_ >= next_seq_ && acked_ >= snd_max_) return;  // truly idle

  ++result_.timeouts;
  ssthresh_ = std::max(cwnd_ / 2, 2.0);
  cwnd_ = 1;
  dupacks_ = 0;
  in_recovery_ = false;
  timing_ = false;
  rto_ = std::min(rto_ * 2, 2.0);  // exponential backoff, capped
  // Go-back-N: rewind and resend forward from the last cumulative ACK as
  // slow start reopens the window. Segments the receiver already holds out
  // of order make the cumulative ACK jump, skipping most of the rewind.
  next_seq_ = acked_;
  maybe_send();
  arm_rto();
}

void TcpFlow::complete() {
  result_.finish = events_->now();
  events_->disarm(id_.value());
  router_->on_flow_finished(id_);
}

}  // namespace dard::pktsim
