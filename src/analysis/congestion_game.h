// Game-theoretic machinery from the paper's appendix.
//
// The selfish flow scheduling is a congestion game (F, G, {r_f}): each flow
// picks one route from its equal-cost set; a link's BoNF is its bandwidth
// over the number of flows crossing it; a flow's payoff is the smallest
// BoNF on its route. The appendix proves (Theorem 2) that asynchronous
// selfish moves strictly decrease the δ-binned state vector
// SV(s) = [v_0, v_1, ...] (v_k = number of links with BoNF in
// [kδ, (k+1)δ)) in lexicographic order, hence play converges to a Nash
// equilibrium in finitely many steps. This module makes those objects
// concrete so tests and benches can check them on real instances.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "topology/paths.h"
#include "topology/topology.h"

namespace dard::analysis {

struct GameFlow {
  // Candidate routes (each a link list); `route` indexes the current one.
  std::vector<std::vector<LinkId>> routes;
  std::uint32_t route = 0;
};

// Lexicographic-ordered δ-binned link census. SV(a) < SV(b) means strategy
// a has strictly fewer links in the smallest differing BoNF bin.
struct StateVector {
  std::vector<std::uint32_t> bins;

  // <0, 0, >0 like a three-way compare.
  [[nodiscard]] int compare(const StateVector& other) const;
};

class CongestionGame {
 public:
  CongestionGame(const topo::Topology& t, std::vector<GameFlow> flows);

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] const GameFlow& flow(std::size_t f) const {
    return flows_[f];
  }

  [[nodiscard]] double link_bonf(LinkId l) const;
  // S(s): the smallest BoNF over links carrying at least one flow.
  [[nodiscard]] double min_bonf() const;
  // S_f(s): the smallest BoNF along flow f's current route.
  [[nodiscard]] double flow_bonf(std::size_t f) const;

  [[nodiscard]] StateVector state_vector(double delta) const;

  // Exact payoff of flow f if it unilaterally moved to `route`.
  [[nodiscard]] double payoff_if_moved(std::size_t f,
                                       std::uint32_t route) const;

  // Best unilateral deviation improving f's payoff by more than `delta`;
  // returns false when f is locally optimal.
  [[nodiscard]] bool best_response(std::size_t f, double delta,
                                   std::uint32_t* out_route) const;

  [[nodiscard]] bool is_nash(double delta) const;

  // Applies a move (used by the dynamics below and by tests).
  void move(std::size_t f, std::uint32_t route);

 private:
  const topo::Topology* topo_;
  std::vector<GameFlow> flows_;
  std::vector<std::uint32_t> flows_on_;  // link -> flow count
};

struct PlayResult {
  std::size_t rounds = 0;          // full sweeps over all flows
  std::size_t moves = 0;           // accepted deviations
  bool converged = false;          // reached Nash within the round budget
  bool potential_monotone = true;  // SV strictly decreased on every move
  double initial_min_bonf = 0;
  double final_min_bonf = 0;
};

// Asynchronous best-response dynamics: sweep flows in random order, each
// making its best improving move (> delta), until a full sweep makes no
// move. Checks Theorem 2's potential argument along the way.
[[nodiscard]] PlayResult play_until_converged(CongestionGame& game,
                                              double delta, Rng& rng,
                                              std::size_t max_rounds = 1000);

// Random instance factory for property tests / ablations: `flow_count`
// flows between random distinct-ToR host pairs, each with its full
// equal-cost route set, starting from random routes.
[[nodiscard]] CongestionGame random_game(const topo::Topology& t,
                                         std::size_t flow_count, Rng& rng);

}  // namespace dard::analysis
