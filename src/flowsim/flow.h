// Flow state for the fluid simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace dard::flowsim {

struct FlowSpec {
  NodeId src_host;
  NodeId dst_host;
  Bytes size = 0;
  Seconds arrival = 0;
  // Transport-level ports; together with host uids they form the "five
  // tuple" that ECMP hashes.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

enum class FlowState : std::uint8_t { Active, Finished };

struct Flow {
  FlowId id;
  FlowSpec spec;
  NodeId src_tor;
  NodeId dst_tor;
  FlowState state = FlowState::Active;

  // Index into the (src_tor, dst_tor) equal-cost path set. The concrete
  // link list — the host-level expansion of that path — lives in the
  // simulator's pooled PathStore; read it via FlowSimulator::links_of().
  // Only active flows have a path; a finished flow's list is released.
  PathIndex path_index = 0;

  Seconds finish_time = 0;     // set when state becomes Finished
  std::uint32_t path_switches = 0;
  bool is_elephant = false;

  // The *hot* per-flow scalars — remaining bytes, current rate, last
  // settlement time — live in flat SoA lanes on the simulator (rate via
  // FlowSimulator::rate_of()), and the flow's completion and promotion
  // deadlines are keyed timers on its event queue, not here: the
  // reallocation inner loop touches every dirty flow's hot state and
  // nothing else, so packing those lanes densely is what keeps a k=32
  // realloc inside the cache.
};

// Immutable summary of a finished flow, kept for statistics.
struct FlowRecord {
  FlowId id;
  NodeId src_host;
  NodeId dst_host;
  Bytes size = 0;
  Seconds arrival = 0;
  Seconds finish = 0;
  std::uint32_t path_switches = 0;
  bool was_elephant = false;
  bool intra_tor = false;
  bool intra_pod = false;

  [[nodiscard]] Seconds transfer_time() const { return finish - arrival; }
};

}  // namespace dard::flowsim
