// Random flow-level scheduling baselines (paper Sections 1 and 4.2).
//
// * EcmpAgent — Equal-Cost Multi-Path: a flow's path is a hash of its five
//   tuple, fixed for the flow's lifetime. Zero control traffic; elephant
//   collisions persist. Its weighted variant (WCMP) hashes into a slot
//   space sized by each path's bottleneck capacity instead of a uniform
//   one — the standard answer to asymmetric fabrics for hash-based routing.
// * PvlbAgent — "periodical VLB": flow-level Valiant load balancing that
//   re-randomizes each flow's intermediate switch every `repick_interval`
//   (paper: 10 s) to break the permanent collisions plain VLB shares with
//   ECMP. Its weighted variant re-picks proportionally to capacity.
// On a uniform-capacity fabric both weighted variants make *exactly* the
// decisions (and random draws) of their unweighted selves, so enabling
// them on symmetric topologies is bit-identical.
// All are written against fabric::DataPlane and run on either substrate.
#pragma once

#include <memory>
#include <set>

#include "common/rng.h"
#include "fabric/data_plane.h"
#include "topology/paths.h"

namespace dard::baselines {

class EcmpAgent : public fabric::ControlAgent {
 public:
  explicit EcmpAgent(bool weighted = false) : weighted_(weighted) {}

  [[nodiscard]] const char* name() const override {
    return weighted_ ? "WCMP" : "ECMP";
  }

  void start(fabric::DataPlane& net) override;
  PathIndex place(fabric::DataPlane& net,
                  const fabric::FlowView& flow) override;

 private:
  bool weighted_;
  topo::WeightedPathSelector selector_;
};

class PvlbAgent : public fabric::ControlAgent {
 public:
  explicit PvlbAgent(Seconds repick_interval = 10.0, std::uint64_t seed = 7,
                     bool weighted = false)
      : repick_interval_(repick_interval), seed_(seed), weighted_(weighted) {}

  [[nodiscard]] const char* name() const override {
    return weighted_ ? "wpVLB" : "pVLB";
  }

  void start(fabric::DataPlane& net) override;
  PathIndex place(fabric::DataPlane& net,
                  const fabric::FlowView& flow) override;
  void on_finished(fabric::DataPlane& net,
                   const fabric::FlowView& flow) override;

 private:
  void tick(fabric::DataPlane& net);
  PathIndex random_pick(const fabric::FlowView& flow, std::size_t count);

  Seconds repick_interval_;
  std::uint64_t seed_;
  bool weighted_;
  std::unique_ptr<Rng> rng_;
  topo::WeightedPathSelector selector_;
  std::set<FlowId> live_;  // flows subject to periodic re-picking
};

}  // namespace dard::baselines
