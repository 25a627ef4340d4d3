// TCP New Reno endpoints over the packet network.
//
// Both ends of a connection are simulated in one object: the sender side
// (congestion window, fast retransmit / recovery, RTO with Karn-clamped
// Jacobson estimation) and the receiver side (cumulative ACKs over an
// out-of-order reassembly set — which is what turns per-packet path
// scattering into duplicate ACKs and spurious retransmissions).
//
// The RTO is the event queue's keyed timer for the flow's id: every re-arm
// moves the one pending deadline, and completion disarms it. The owning
// PktSession installs the queue's timer handler, which calls on_rto().
//
// Packets are built on the stack with inline routes (packet.h): a data
// segment copies its router's route, and an ACK reverses the data packet's
// route link by link with Topology::reverse(), so neither allocates.
#pragma once

#include <set>

#include "flowsim/event_queue.h"
#include "pktsim/network.h"
#include "pktsim/routing.h"

namespace dard::pktsim {

struct TcpConfig {
  double initial_cwnd = 2;       // segments
  double initial_ssthresh = 64;  // segments
  Seconds min_rto = 0.010;       // datacenter-appropriate floor
  Seconds initial_rto = 0.100;
};

struct TcpResult {
  Seconds start = 0;
  Seconds finish = -1;  // -1 while running
  std::uint64_t unique_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;

  [[nodiscard]] bool done() const { return finish >= 0; }
  [[nodiscard]] Seconds transfer_time() const { return finish - start; }
  // Paper's definition: retransmitted packets over unique packets.
  [[nodiscard]] double retransmission_rate() const {
    return unique_packets == 0
               ? 0.0
               : static_cast<double>(retransmissions) /
                     static_cast<double>(unique_packets);
  }
};

class TcpFlow {
 public:
  TcpFlow(FlowId id, NodeId src_host, NodeId dst_host, std::uint16_t src_port,
          std::uint16_t dst_port, std::uint64_t total_segments,
          const TcpConfig& cfg, const topo::Topology& t, PacketNetwork& net,
          flowsim::EventQueue& events, PacketRouter& router);

  void start(Seconds at);
  // Dispatched by the session for every delivered packet of this flow.
  void on_packet(const Packet& p);
  // Dispatched by the session when the flow's RTO timer fires.
  void on_rto();

  [[nodiscard]] const TcpResult& result() const { return result_; }
  [[nodiscard]] FlowId id() const { return id_; }
  // Segments cumulatively acknowledged; monotone, equals the segment total
  // once done. Recovery trackers differentiate this into goodput.
  [[nodiscard]] std::uint64_t acked_segments() const { return acked_; }

 private:
  void begin();
  // A segment below snd_max_ is a retransmission by definition.
  void send_segment(std::uint64_t seq);
  void maybe_send();
  void on_data(const Packet& p);
  void on_ack(std::uint64_t cum);
  void handle_new_ack(std::uint64_t cum);
  void handle_dup_ack();
  void arm_rto();
  void complete();
  // The ACK path: each link's other direction, last hop first.
  [[nodiscard]] Route reverse_route(const Route& route) const;

  FlowId id_;
  NodeId src_host_, dst_host_;
  std::uint16_t src_port_, dst_port_;
  std::uint64_t total_;
  TcpConfig cfg_;
  const topo::Topology* topo_;
  PacketNetwork* net_;
  flowsim::EventQueue* events_;
  PacketRouter* router_;

  // Sender.
  double cwnd_;
  double ssthresh_;
  std::uint64_t next_seq_ = 0;  // next segment to send (rewound on RTO)
  std::uint64_t snd_max_ = 0;   // highest segment ever sent + 1
  std::uint64_t acked_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  // RTT estimation (one timed segment at a time; Karn's rule).
  bool timing_ = false;
  std::uint64_t timed_seq_ = 0;
  Seconds timed_at_ = 0;
  double srtt_ = -1, rttvar_ = 0, rto_;

  // Receiver.
  std::uint64_t rcv_next_ = 0;
  std::set<std::uint64_t> out_of_order_;

  TcpResult result_;
};

}  // namespace dard::pktsim
