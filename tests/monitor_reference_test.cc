// The snapshotting monitor against the former eager one
// (tests/monitor_reference.h). Both are driven through one random sequence
// per seed: flows added, removed and moved (their elephants on the board),
// other hosts' elephants coming and going, link failures and repairs, 1 s
// refreshes through a control plane that loses exchanges, answers past the
// timeout and serves stale windows, and rounds with twin RNGs. After every
// step they must agree on everything either exposes: refresh outcome and
// exchanges, path states, blacklist and probation, proposals and round
// evaluations, and the accountant's bytes, message count and rate series.
// Each monitor has its own query channel — a fault model with the same
// seed and settings — so neither's draws shift the other's. A failure
// prints the fabric, seed and step to replay.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ecmp.h"
#include "common/rng.h"
#include "dard/monitor.h"
#include "flowsim/simulator.h"
#include "monitor_reference.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace dard::core {
namespace {

using reference::EagerMonitor;

struct Fabric {
  std::string name;
  topo::Topology t;
};

std::vector<Fabric> fabrics() {
  std::vector<Fabric> out;
  for (const int p : {4, 8}) {
    topo::FatTreeParams ft;
    ft.p = p;
    out.push_back({"fat tree p=" + std::to_string(p), topo::build_fat_tree(ft)});
  }
  out.push_back({"clos", topo::build_clos({})});
  out.push_back({"three tier", topo::build_three_tier({})});
  topo::LeafSpineParams ls;
  ls.stripped_leaves = 2;
  ls.stripped_leaf_uplinks = 2;
  out.push_back({"stripped leaf-spine", topo::build_leaf_spine(ls)});
  return out;
}

// One monitor's query channel: its fault model, its accountant and that
// accountant's message mirror. The service charges the accountant only
// when the monitor charges through it (the snapshotting monitor); the
// eager reference charges the accountant itself.
struct Channel {
  Channel(const fabric::LinkStateBoard& board, std::uint64_t seed,
          bool service_charges)
      : model(seed),
        service(board, service_charges ? &accountant : nullptr) {
    service.set_model(&model);
    accountant.set_message_counter(&messages);
  }
  fabric::ControlPlaneModel model;
  fabric::ControlPlaneAccountant accountant;
  obs::Counter messages;
  fabric::StateQueryService service;
};

// A monitored ToR pair: the monitor, its reference twin, their channels
// and round RNGs, and this host's flows with the path each is on.
struct Pair {
  Pair(fabric::DataPlane& net, const fabric::LinkStateBoard& board,
       NodeId s, NodeId d, std::uint64_t seed)
      : src(s),
        dst(d),
        fast(board, seed, true),
        slow(board, seed, false),
        monitor(net, s, d),
        eager(net, s, d, &slow.accountant),
        rng_fast(seed),
        rng_slow(seed) {}
  NodeId src, dst;
  Channel fast, slow;
  PathMonitor monitor;
  EagerMonitor eager;
  Rng rng_fast, rng_slow;
  std::vector<std::pair<FlowId, PathIndex>> flows;
};

void expect_same_state(const Pair& p, Seconds horizon, bool read_paths) {
  const PathMonitor& m = p.monitor;
  const EagerMonitor& e = p.eager;
  ASSERT_EQ(m.path_count(), e.path_count());
  ASSERT_EQ(m.queried_switches(), e.queried_switches());
  EXPECT_EQ(m.tracked_flows(), e.tracked_flows());
  EXPECT_EQ(m.blacklisted_count(), e.blacklisted_count());
  EXPECT_EQ(m.all_paths_blacklisted(), e.all_paths_blacklisted());
  for (PathIndex i = 0; i < m.path_count(); ++i) {
    EXPECT_EQ(m.flows_on(i), e.flows_on(i)) << "path " << i;
    EXPECT_EQ(m.is_blacklisted(i), e.is_blacklisted(i)) << "path " << i;
    EXPECT_EQ(m.probation_left(i), e.probation_left(i)) << "path " << i;
  }
  // Some steps leave the assembly to the next round's propose().
  if (read_paths) {
    for (PathIndex i = 0; i < m.path_count(); ++i) {
      const PathState& a = m.path_states()[i];
      const PathState& b = e.path_states()[i];
      EXPECT_EQ(a.assembled, b.assembled) << "path " << i;
      // An unassembled path reads PathState{} here; the eager monitor kept
      // the last assembled values, which nothing reads.
      if (!a.assembled || !b.assembled) continue;
      EXPECT_EQ(a.bottleneck, b.bottleneck) << "path " << i;
      EXPECT_EQ(a.bandwidth, b.bandwidth) << "path " << i;
      EXPECT_EQ(a.flow_numbers, b.flow_numbers) << "path " << i;
    }
  }
  const fabric::ControlPlaneAccountant& fa = p.fast.accountant;
  const fabric::ControlPlaneAccountant& sa = p.slow.accountant;
  for (const auto c :
       {fabric::ControlCategory::DardQuery, fabric::ControlCategory::DardReply,
        fabric::ControlCategory::SchedulerReport,
        fabric::ControlCategory::SchedulerUpdate}) {
    EXPECT_EQ(fa.total_bytes(c), sa.total_bytes(c));
    EXPECT_EQ(fa.message_count(c), sa.message_count(c));
  }
  EXPECT_EQ(fa.message_count(), sa.message_count());
  EXPECT_EQ(fa.rate_series(horizon), sa.rate_series(horizon));
  EXPECT_EQ(p.fast.messages.value, p.slow.messages.value);
}

void expect_same_refresh(Pair& p, Seconds now, const DardConfig& cfg) {
  std::vector<obs::QueryExchange> fx, sx;
  const RefreshStats a = p.monitor.refresh(now, p.fast.service, cfg, &fx);
  const RefreshStats b = p.eager.refresh(now, p.slow.service, cfg, &sx);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_switches, b.failed_switches);
  EXPECT_EQ(a.newly_blacklisted, b.newly_blacklisted);
  EXPECT_EQ(a.cleared, b.cleared);
  ASSERT_EQ(fx.size(), sx.size());
  for (std::size_t i = 0; i < fx.size(); ++i) {
    EXPECT_EQ(fx[i].sw, sx[i].sw) << "exchange " << i;
    EXPECT_EQ(fx[i].attempts, sx[i].attempts) << "exchange " << i;
    EXPECT_EQ(fx[i].timeouts, sx[i].timeouts) << "exchange " << i;
    EXPECT_EQ(fx[i].lost, sx[i].lost) << "exchange " << i;
    EXPECT_EQ(fx[i].delivered, sx[i].delivered) << "exchange " << i;
    EXPECT_EQ(fx[i].reply_delay, sx[i].reply_delay) << "exchange " << i;
    EXPECT_EQ(fx[i].latency, sx[i].latency) << "exchange " << i;
  }
}

// Returns the move both proposed, if any.
std::optional<ProposedMove> expect_same_round(Pair& p, const DardConfig& cfg) {
  RoundEvaluation ea, eb;
  const auto a = p.monitor.propose(cfg.delta, p.rng_fast, &ea);
  const auto b = p.eager.propose(cfg.delta, p.rng_slow, &eb);
  EXPECT_EQ(ea.considered, eb.considered);
  EXPECT_EQ(ea.fallback, eb.fallback);
  EXPECT_EQ(ea.from, eb.from);
  EXPECT_EQ(ea.to, eb.to);
  EXPECT_EQ(ea.from_bonf, eb.from_bonf);
  EXPECT_EQ(ea.to_bonf, eb.to_bonf);
  EXPECT_EQ(ea.estimated_gain, eb.estimated_gain);
  EXPECT_EQ(ea.passed_delta, eb.passed_delta);
  EXPECT_TRUE(p.rng_fast.engine() == p.rng_slow.engine());
  EXPECT_EQ(a.has_value(), b.has_value());
  if (!a || !b) return std::nullopt;
  EXPECT_EQ(a->flow, b->flow);
  EXPECT_EQ(a->from, b->from);
  EXPECT_EQ(a->to, b->to);
  EXPECT_EQ(a->estimated_gain, b->estimated_gain);
  return a;
}

// Drives one fabric through `steps` random steps from `seed`.
void run_sequence(const topo::Topology& t, std::uint64_t seed, int steps) {
  flowsim::FlowSimulator sim(t);
  baselines::EcmpAgent agent;
  sim.set_agent(&agent);
  fabric::LinkStateBoard& board = sim.link_state();
  const topo::PathGenerator& gen = sim.paths().generator();
  Rng rng(seed);

  DardConfig cfg;
  cfg.query_max_retries = 2;
  cfg.state_staleness_cap = 1.5;
  cfg.probation_rounds = 2;
  cfg.delta = 0;

  const auto& tors = t.tors();
  std::vector<std::unique_ptr<Pair>> pairs;
  while (pairs.size() < 3) {
    const NodeId s = tors[rng.next_below(tors.size())];
    const NodeId d = tors[rng.next_below(tors.size())];
    if (s == d) continue;
    pairs.push_back(
        std::make_unique<Pair>(sim, board, s, d, seed * 16 + pairs.size()));
  }
  auto path_links = [&](const Pair& p, PathIndex i) {
    LinkId out[topo::kMaxTorPathLinks];
    const std::size_t n = gen.path_links(p.src, p.dst, i, out);
    return std::vector<LinkId>(out, out + n);
  };
  auto place = [&](const Pair& p, PathIndex i, bool add) {
    for (const LinkId l : path_links(p, i))
      add ? board.add_elephant(l) : board.remove_elephant(l);
  };
  std::vector<LinkId> background;  // other hosts' elephants, one link each
  std::vector<LinkId> failed;
  std::uint32_t next_flow = 0;
  Seconds now = 0;
  Seconds next_refresh = 0;

  for (int step = 0; step < steps && !::testing::Test::HasFailure();
       ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    now += 0.05 + 0.45 * rng.uniform(0.0, 1.0);
    sim.run_until(now);
    Pair& p = *pairs[rng.next_below(pairs.size())];
    const auto count = static_cast<PathIndex>(p.monitor.path_count());
    const std::uint64_t action = rng.next_below(100);
    if (now >= next_refresh) {
      // The 1 s query interval, every pair, sometimes a little late.
      next_refresh = now + 1.0;
      for (auto& q : pairs) expect_same_refresh(*q, now, cfg);
    } else if (action < 20) {
      for (auto& q : pairs) {
        const auto move = expect_same_round(*q, cfg);
        if (!move) continue;
        for (auto& [flow, path] : q->flows) {
          if (flow != move->flow) continue;
          place(*q, path, false);
          place(*q, move->to, true);
          path = move->to;
        }
        q->monitor.record_move(move->flow, move->from, move->to);
        q->eager.record_move(move->flow, move->from, move->to);
      }
    } else if (action < 35) {
      const FlowId flow{next_flow++};
      const auto path = static_cast<PathIndex>(rng.next_below(count));
      place(p, path, true);
      p.flows.emplace_back(flow, path);
      p.monitor.add_flow(flow, path);
      p.eager.add_flow(flow, path);
    } else if (action < 45 && !p.flows.empty()) {
      const std::size_t k = rng.next_below(p.flows.size());
      const auto [flow, path] = p.flows[k];
      place(p, path, false);
      p.flows.erase(p.flows.begin() + static_cast<std::ptrdiff_t>(k));
      p.monitor.remove_flow(flow, path);
      p.eager.remove_flow(flow, path);
    } else if (action < 52 && !p.flows.empty()) {
      auto& [flow, path] = p.flows[rng.next_below(p.flows.size())];
      const auto to = static_cast<PathIndex>(rng.next_below(count));
      place(p, path, false);
      place(p, to, true);
      p.monitor.record_move(flow, path, to);
      p.eager.record_move(flow, path, to);
      path = to;
    } else if (action < 62) {
      const auto links =
          path_links(p, static_cast<PathIndex>(rng.next_below(count)));
      if (!links.empty()) {
        const LinkId l = links[rng.next_below(links.size())];
        board.add_elephant(l);
        background.push_back(l);
      }
    } else if (action < 68 && !background.empty()) {
      const std::size_t k = rng.next_below(background.size());
      board.remove_elephant(background[k]);
      background.erase(background.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (action < 75) {
      const auto links =
          path_links(p, static_cast<PathIndex>(rng.next_below(count)));
      if (!links.empty()) {
        const LinkId l = links[rng.next_below(links.size())];
        board.set_failed(l, true);
        failed.push_back(l);
      }
    } else if (action < 83 && !failed.empty()) {
      const std::size_t k = rng.next_below(failed.size());
      board.set_failed(failed[k], false);
      failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (action < 92) {
      // Loss and reply delay (0.08 s is past the 0.05 s timeout), or a
      // clean channel again; the same on every twin.
      constexpr double kLoss[] = {0.0, 0.3, 0.7, 1.0};
      constexpr Seconds kDelay[] = {0.0, 0.02, 0.08};
      const double loss = kLoss[rng.next_below(4)];
      const Seconds delay = kDelay[rng.next_below(3)];
      for (auto& q : pairs) {
        for (Channel* c : {&q->fast, &q->slow}) {
          if (loss == 0 && delay == 0) {
            c->model.clear_degradation();
          } else {
            c->model.set_degradation(loss, delay);
          }
        }
      }
    } else {
      const bool stale = !p.fast.model.stale_active();
      for (auto& q : pairs) {
        for (Channel* c : {&q->fast, &q->slow}) {
          if (stale) {
            c->model.capture_stale(board);
          } else {
            c->model.clear_stale();
          }
        }
      }
    }
    for (auto& q : pairs) expect_same_state(*q, now + 1, rng.next_below(2) == 0);
  }
}

TEST(MonitorReference, SnapshotMonitorMatchesTheEagerMonitor) {
  for (const Fabric& f : fabrics()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(f.name + ", seed " + std::to_string(seed));
      run_sequence(f.t, seed, 400);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dard::core
