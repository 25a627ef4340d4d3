#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ecmp.h"
#include "common/rng.h"
#include "flowsim/event_queue.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"

namespace dard::flowsim {
namespace {

using topo::build_fat_tree;
using topo::Topology;

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(3.0, [&] { order.push_back(3); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, TiesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&, i] { order.push_back(i); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule(q.now() + 1.0, [&] { ++fired; });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueueTest, TimersAndCallbacksAtEqualTimesFireInArmOrder) {
  EventQueue q;
  std::vector<std::string> order;
  q.set_timer_handler(
      [&](std::uint32_t key) { order.push_back("k" + std::to_string(key)); });
  q.arm(3, 1.0);
  q.schedule(1.0, [&] { order.push_back("c0"); });
  q.arm(1, 1.0);
  q.schedule(1.0, [&] { order.push_back("c1"); });
  q.arm(2, 0.5);
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<std::string>{"k2", "k3", "c0", "k1", "c1"}));
}

TEST(EventQueueTest, RearmTakesAFreshSeq) {
  EventQueue q;
  std::vector<std::string> order;
  q.set_timer_handler(
      [&](std::uint32_t key) { order.push_back("k" + std::to_string(key)); });
  q.arm(7, 1.0);
  q.schedule(1.0, [&] { order.push_back("c"); });
  q.arm(7, 1.0);  // same time, but now after the callback
  q.arm(8, 2.0);
  q.arm(8, 0.5);  // decrease-key
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<std::string>{"k8", "c", "k7"}));
}

TEST(EventQueueTest, DisarmOfAnUnarmedKeyIsANoOp) {
  EventQueue q;
  int fired = 0;
  q.set_timer_handler([&](std::uint32_t) { ++fired; });
  q.disarm(5);  // never armed, beyond every key seen
  q.arm(1, 1.0);
  q.disarm(0);  // below an armed key, itself unarmed
  q.disarm(1);
  q.disarm(1);  // already disarmed
  EXPECT_FALSE(q.armed(1));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, PendingCountsLiveEntriesOnly) {
  EventQueue q;
  std::vector<std::uint32_t> fired;
  q.set_timer_handler([&](std::uint32_t key) { fired.push_back(key); });
  q.schedule(1.0, [] {});
  q.arm(0, 2.0);
  q.arm(1, 3.0);
  EXPECT_EQ(q.pending(), 3u);
  q.arm(0, 4.0);  // a move, not a second entry
  EXPECT_EQ(q.pending(), 3u);
  q.disarm(1);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.armed(0));
  EXPECT_FALSE(q.armed(1));
  q.run_until(3.5);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(fired.empty());
  q.run_until(4.0);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0}));
  EXPECT_FALSE(q.armed(0));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FiredKeyIsUnarmedWhenItsHandlerRuns) {
  EventQueue q;
  int fired = 0;
  q.set_timer_handler([&](std::uint32_t key) {
    EXPECT_FALSE(q.armed(key));
    if (++fired < 3) q.arm(key, q.now() + 1.0);  // re-arms itself
  });
  q.arm(4, 1.0);
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueDeathTest, ArmingIntoThePastAborts) {
  EventQueue q;
  q.set_timer_handler([](std::uint32_t) {});
  q.schedule(5.0, [] {});
  q.run_until(5.0);
  EXPECT_DEATH(q.arm(0, 1.0), "cannot arm a timer in the past");
}

TEST(EventQueueDeathTest, ArmingWithNoHandlerAborts) {
  EventQueue q;
  EXPECT_DEATH(q.arm(0, 1.0), "no handler installed");
}

// The lazily cancelled scheme keyed timers replace, kept as a reference:
// every deadline is a fresh callback, and a per-key version skips the stale
// ones when they fire.
class VersionGuardedTimers {
 public:
  VersionGuardedTimers(EventQueue& q, std::function<void(std::uint32_t)> fire)
      : q_(&q), fire_(std::move(fire)) {}

  void arm(std::uint32_t key, Seconds at) {
    grow(key);
    armed_[key] = true;
    q_->schedule(at, [this, key, v = ++version_[key]] {
      if (version_[key] != v) {
        stale_ = true;
        return;
      }
      armed_[key] = false;
      fire_(key);
    });
  }
  void disarm(std::uint32_t key) {
    grow(key);
    ++version_[key];
    armed_[key] = false;
  }
  [[nodiscard]] bool armed(std::uint32_t key) const {
    return key < armed_.size() && armed_[key];
  }
  // Runs events up to and including the next live one.
  void run_next() {
    do {
      stale_ = false;
    } while (q_->run_next() && stale_);
  }

 private:
  void grow(std::uint32_t key) {
    if (key >= version_.size()) {
      version_.resize(key + 1, 0);
      armed_.resize(key + 1, false);
    }
  }
  EventQueue* q_;
  std::function<void(std::uint32_t)> fire_;
  std::vector<std::uint64_t> version_;
  std::vector<bool> armed_;
  bool stale_ = false;
};

class KeyedTimers {
 public:
  KeyedTimers(EventQueue& q, std::function<void(std::uint32_t)> fire)
      : q_(&q) {
    q.set_timer_handler(std::move(fire));
  }
  void arm(std::uint32_t key, Seconds at) { q_->arm(key, at); }
  void disarm(std::uint32_t key) { q_->disarm(key); }
  [[nodiscard]] bool armed(std::uint32_t key) const { return q_->armed(key); }
  void run_next() { q_->run_next(); }

 private:
  EventQueue* q_;
};

// One seeded script of schedule / arm / re-arm / disarm / run operations on
// a coarse time grid, where ties are common. Fired timers and callbacks
// arm and disarm further keys, as completions re-time other flows. Returns
// the fired (time, id) sequence: callbacks by their order of scheduling,
// timer keys as -1 - key.
template <class Timers>
std::vector<std::pair<Seconds, std::int64_t>> fire_script(std::uint64_t seed,
                                                          int ops) {
  constexpr std::uint32_t kKeys = 48;
  EventQueue q;
  Rng rng(seed);
  std::vector<std::pair<Seconds, std::int64_t>> fired;
  std::int64_t callbacks = 0;
  std::size_t callbacks_pending = 0;
  const auto later = [&] { return q.now() + 0.25 * rng.next_below(12); };
  const auto key = [&] {
    return static_cast<std::uint32_t>(rng.next_below(kKeys));
  };
  std::function<void(std::uint32_t)> on_timer;
  Timers timers(q, [&](std::uint32_t k) { on_timer(k); });
  on_timer = [&](std::uint32_t k) {
    fired.emplace_back(q.now(), -1 - static_cast<std::int64_t>(k));
    if (rng.next_below(3) == 0) timers.arm(key(), later());
  };
  const auto live = [&] {
    std::size_t n = callbacks_pending;
    for (std::uint32_t k = 0; k < kKeys; ++k) n += timers.armed(k) ? 1 : 0;
    return n;
  };
  for (int op = 0; op < ops; ++op) {
    switch (rng.next_below(8)) {
      case 0:
      case 1:
        ++callbacks_pending;
        q.schedule(later(), [&, id = callbacks++] {
          --callbacks_pending;
          fired.emplace_back(q.now(), id);
          if (rng.next_below(4) == 0) timers.disarm(key());
        });
        break;
      case 2:
      case 3:
      case 4:  // arms the key, or moves its pending deadline
        timers.arm(key(), later());
        break;
      case 5:
        timers.disarm(key());
        break;
      case 6:
        // The reference would run its trailing stale events, and their
        // clock, once nothing live is left; the script never asks it to.
        if (live() > 0) timers.run_next();
        break;
      default:
        q.run_until(q.now() + 0.25 * rng.next_below(4));
        break;
    }
  }
  while (live() > 0) timers.run_next();
  return fired;
}

TEST(EventQueueTest, KeyedTimersFireLikeVersionGuardedCallbacks) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto reference = fire_script<VersionGuardedTimers>(seed, 5000);
    const auto keyed = fire_script<KeyedTimers>(seed, 5000);
    ASSERT_GT(reference.size(), 2000u);
    EXPECT_EQ(keyed, reference) << "seed " << seed;
  }
}

TEST(EventQueueTest, PostsTimersAndCallbacksAtEqualTimesFireInDrawOrder) {
  EventQueue q;
  std::vector<std::string> order;
  q.set_timer_handler(
      [&](std::uint32_t key) { order.push_back("k" + std::to_string(key)); });
  q.set_post_handler(
      [&](std::uint32_t tag) { order.push_back("p" + std::to_string(tag)); });
  q.post(1.0, 0);
  q.arm(3, 1.0);
  q.schedule(1.0, [&] { order.push_back("c0"); });
  (void)q.reserve(1.0);  // draws a seq, queues nothing
  q.post(1.0, 1);
  q.arm(1, 1.0);
  q.post(0.5, 2);
  q.schedule(1.0, [&] { order.push_back("c1"); });
  EXPECT_EQ(q.pending(), 7u);
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<std::string>{"p2", "p0", "k3", "c0", "p1",
                                             "k1", "c1"}));
}

// One seeded program of posts, timer arms and disarms, callbacks and
// reserved stamps on a coarse time grid, where ties are common. Handlers
// run further random operations, and so does the outer loop between
// run_next() calls and after run_until(). With `mirror` set, every
// reserve(at) is replaced by a scheduled no-op that records its firing: it
// draws the same seq, so both runs see the same events in the same order.
// Returns, at every check (inside each handler, after each run_next() step
// or run_until(), and after the operations that follow it), which stamps
// count as passed: passed() on the real queue, "has fired" on the mirror.
std::vector<std::vector<bool>> stamp_checks(std::uint64_t seed, bool mirror) {
  EventQueue q;
  Rng rng(seed);
  std::vector<EventQueue::Stamp> stamps;
  std::vector<bool> fired;  // the mirror's no-ops
  std::uint64_t mirrors_fired = 0;
  std::vector<std::vector<bool>> checks;
  std::uint32_t tags = 0;
  int budget = 4000;  // operations left; the program ends when spent

  const auto check = [&] {
    std::vector<bool> row(stamps.size());
    for (std::size_t i = 0; i < stamps.size(); ++i)
      row[i] = mirror ? fired[i] : q.passed(stamps[i]);
    checks.push_back(std::move(row));
  };
  const auto later = [&] { return q.now() + 0.25 * rng.next_below(4); };
  std::function<void()> random_ops;
  const auto handler = [&] {
    check();
    random_ops();
  };
  random_ops = [&] {
    const auto n = rng.next_below(6);
    for (std::uint64_t i = 0; i < n && budget > 0; ++i, --budget) {
      switch (rng.next_below(5)) {
        case 0:
          q.post(later(), tags++);
          break;
        case 1: {
          const auto key = static_cast<std::uint32_t>(rng.next_below(8));
          q.arm(key, later());
          break;
        }
        case 2:
          q.disarm(static_cast<std::uint32_t>(rng.next_below(8)));
          break;
        case 3:
          q.schedule(later(), handler);
          break;
        default: {
          const Seconds at = later();
          if (!mirror) {
            stamps.push_back(q.reserve(at));
            break;
          }
          const std::size_t id = stamps.size();
          stamps.push_back({at, 0});
          fired.push_back(false);
          q.schedule(at, [&fired, &mirrors_fired, id] {
            fired[id] = true;
            ++mirrors_fired;
          });
        }
      }
    }
  };
  q.set_post_handler([&](std::uint32_t) { handler(); });
  q.set_timer_handler([&](std::uint32_t) { handler(); });
  // One run_next(); on the mirror, run on past its no-ops to the next event
  // both programs share.
  const auto step = [&] {
    for (;;) {
      const std::uint64_t before = mirrors_fired;
      if (!q.run_next()) return false;
      if (mirrors_fired == before) return true;
    }
  };

  for (int i = 0; i < 8; ++i) random_ops();
  Seconds until = 0;
  while (budget > 0) {
    if (rng.next_below(2) == 0) {
      if (!step()) break;
    } else {
      until = std::max(until, q.now()) + 0.25 * rng.next_below(3);
      q.run_until(until);
    }
    check();
    // Outside any event: stamps drawn at the current time have not passed.
    random_ops();
    check();
  }
  return checks;
}

TEST(EventQueueTest, PassedMatchesAMirroredNoOpHavingFired) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto mirrored = stamp_checks(seed, /*mirror=*/true);
    const auto passed = stamp_checks(seed, /*mirror=*/false);
    ASSERT_EQ(passed.size(), mirrored.size()) << "seed " << seed;
    ASSERT_GT(passed.size(), 500u);
    // Not vacuous: some check sees stamps both passed and pending.
    bool mixed = false;
    for (std::size_t i = 0; i < passed.size(); ++i) {
      ASSERT_EQ(passed[i], mirrored[i]) << "seed " << seed << ", check " << i;
      const auto& row = passed[i];
      mixed = mixed || (std::find(row.begin(), row.end(), true) != row.end() &&
                        std::find(row.begin(), row.end(), false) != row.end());
    }
    EXPECT_TRUE(mixed) << "seed " << seed;
  }
}

TEST(EventQueueDeathTest, PostingWithNoHandlerAborts) {
  EventQueue q;
  EXPECT_DEATH(q.post(1.0, 0), "posting with no handler installed");
}

TEST(EventQueueDeathTest, PostingIntoThePastAborts) {
  EventQueue q;
  q.set_post_handler([](std::uint32_t) {});
  q.schedule(5.0, [] {});
  q.run_until(5.0);
  EXPECT_DEATH(q.post(1.0, 0), "cannot post into the past");
}

TEST(EventQueueDeathTest, ReservingIntoThePastAborts) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_until(5.0);
  EXPECT_DEATH((void)q.reserve(1.0), "cannot reserve into the past");
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : topo_(build_fat_tree({.p = 4})), sim_(topo_) {
    sim_.set_agent(&agent_);
  }

  FlowSpec make_spec(NodeId src, NodeId dst, Bytes size, Seconds at,
                     std::uint16_t port = 1000) {
    FlowSpec s;
    s.src_host = src;
    s.dst_host = dst;
    s.size = size;
    s.arrival = at;
    s.src_port = port;
    s.dst_port = 80;
    return s;
  }

  Topology topo_;
  FlowSimulator sim_;
  baselines::EcmpAgent agent_;
};

TEST_F(SimulatorTest, SingleFlowFinishesAtLineRate) {
  // 125 MB at 1 Gbps = 1 s, arriving at t=1.
  const FlowId id = sim_.submit(make_spec(topo_.hosts().front(),
                                          topo_.hosts().back(),
                                          Bytes{125'000'000}, 1.0));
  sim_.run_until_flows_done();
  const Flow& f = sim_.flow(id);
  EXPECT_EQ(f.state, FlowState::Finished);
  EXPECT_NEAR(f.finish_time, 2.0, 1e-6);
  ASSERT_EQ(sim_.records().size(), 1u);
  EXPECT_NEAR(sim_.records().front().transfer_time(), 1.0, 1e-6);
}

TEST_F(SimulatorTest, TwoFlowsSameNicSharesHalve) {
  // Two flows from the same host: NIC is the bottleneck; each runs at
  // 500 Mbps while both are active.
  const NodeId src = topo_.hosts().front();
  sim_.submit(make_spec(src, topo_.hosts().back(), Bytes{125'000'000}, 0.0, 1));
  sim_.submit(make_spec(src, topo_.hosts()[8], Bytes{125'000'000}, 0.0, 2));
  sim_.run_until_flows_done();
  // Both finish at 2 s (perfect sharing, equal sizes).
  for (const auto& rec : sim_.records())
    EXPECT_NEAR(rec.transfer_time(), 2.0, 1e-6);
}

TEST_F(SimulatorTest, LaterArrivalSlowsEarlierFlow) {
  const NodeId src = topo_.hosts().front();
  const NodeId dst = topo_.hosts().back();
  // Flow A alone for 0.5 s (62.5 MB done), then shares with B.
  sim_.submit(make_spec(src, dst, Bytes{125'000'000}, 0.0, 1));
  sim_.submit(make_spec(src, dst, Bytes{62'500'000}, 0.5, 2));
  sim_.run_until_flows_done();
  ASSERT_EQ(sim_.records().size(), 2u);
  // A: 0.5 s alone + 1 s shared = finish 1.5 s; remaining 62.5 MB of A and
  // all of B drain together at 0.5 Gbps each, both ending at t=1.5.
  EXPECT_NEAR(sim_.records()[0].finish, 1.5, 1e-6);
  EXPECT_NEAR(sim_.records()[1].finish, 1.5, 1e-6);
}

TEST_F(SimulatorTest, ElephantPromotionAfterThreshold) {
  const NodeId src = topo_.hosts().front();
  const NodeId dst = topo_.hosts().back();
  // 250 MB at 1 Gbps = 2 s > 1 s threshold: becomes an elephant.
  const FlowId big =
      sim_.submit(make_spec(src, dst, Bytes{250'000'000}, 0.0, 1));
  // 25 MB from another host finishes in ~0.2 s: never an elephant.
  const FlowId small = sim_.submit(
      make_spec(topo_.hosts()[1], topo_.hosts()[8], Bytes{25'000'000}, 0.0, 2));
  sim_.run_until_flows_done();
  EXPECT_TRUE(sim_.flow(big).is_elephant);
  EXPECT_FALSE(sim_.flow(small).is_elephant);
  EXPECT_EQ(sim_.peak_active_elephants(), 1u);
  EXPECT_EQ(sim_.active_elephants(), 0u);  // all drained
}

TEST_F(SimulatorTest, ElephantCountsAppearOnBoard) {
  const NodeId src = topo_.hosts().front();
  const NodeId dst = topo_.hosts().back();
  const FlowId id =
      sim_.submit(make_spec(src, dst, Bytes{500'000'000}, 0.0, 1));
  sim_.run_until(1.5);  // past promotion
  const Flow& f = sim_.flow(id);
  ASSERT_TRUE(f.is_elephant);
  // Capture the links while the flow is active: a finished flow's path is
  // released from the store.
  const auto links = std::vector<LinkId>(sim_.links_of(f).begin(),
                                         sim_.links_of(f).end());
  for (const LinkId l : links)
    EXPECT_EQ(sim_.link_state().elephants(l), 1u);
  sim_.run_until_flows_done();
  for (const LinkId l : links)
    EXPECT_EQ(sim_.link_state().elephants(l), 0u);
}

TEST_F(SimulatorTest, MoveFlowUpdatesBoardAndCountsSwitch) {
  const NodeId src = topo_.hosts().front();
  const NodeId dst = topo_.hosts().back();
  const FlowId id =
      sim_.submit(make_spec(src, dst, Bytes{500'000'000}, 0.0, 1));
  sim_.run_until(1.5);
  const Flow& f = sim_.flow(id);
  const auto old_links = std::vector<LinkId>(sim_.links_of(f).begin(),
                                             sim_.links_of(f).end());
  const PathIndex other = (f.path_index + 1) % 4;

  sim_.move_flow(id, other);
  EXPECT_EQ(f.path_index, other);
  EXPECT_EQ(f.path_switches, 1u);
  const auto new_links = sim_.links_of(f);
  for (const LinkId l : old_links) {
    if (std::find(new_links.begin(), new_links.end(), l) == new_links.end()) {
      EXPECT_EQ(sim_.link_state().elephants(l), 0u);
    }
  }
  for (const LinkId l : new_links)
    EXPECT_EQ(sim_.link_state().elephants(l), 1u);

  sim_.run_until_flows_done();
  EXPECT_EQ(sim_.records().front().path_switches, 1u);
}

TEST_F(SimulatorTest, MoveToSamePathIsNoop) {
  const FlowId id = sim_.submit(make_spec(topo_.hosts().front(),
                                          topo_.hosts().back(),
                                          Bytes{500'000'000}, 0.0, 1));
  sim_.run_until(0.5);
  sim_.move_flow(id, sim_.flow(id).path_index);
  EXPECT_EQ(sim_.flow(id).path_switches, 0u);
  sim_.run_until_flows_done();
}

TEST_F(SimulatorTest, MovingOffSharedLinkSpeedsBothUp) {
  // Two elephants hash-colliding is not guaranteed, so force the overlap:
  // put both flows on path 0, then move one to path 1 and check both
  // finish sooner than the shared-path baseline.
  const NodeId s1 = topo_.hosts()[0];
  const NodeId s2 = topo_.hosts()[1];  // same ToR
  const NodeId d1 = topo_.hosts()[8];
  const NodeId d2 = topo_.hosts()[9];  // same remote ToR

  const FlowId f1 = sim_.submit(make_spec(s1, d1, Bytes{250'000'000}, 0.0, 1));
  const FlowId f2 = sim_.submit(make_spec(s2, d2, Bytes{250'000'000}, 0.0, 2));
  sim_.run_until(0.1);
  sim_.move_flow(f1, 0);
  sim_.move_flow(f2, 0);
  sim_.run_until(0.2);
  // Shared: both at ~0.5 Gbps.
  EXPECT_NEAR(sim_.rate_of(f1), 0.5 * kGbps, 1e6);
  // Paths 0 and 1 share the ToR->agg0 uplink (they differ only in core);
  // path 2 climbs via agg1 and is fully disjoint above the ToR.
  sim_.move_flow(f2, 2);
  // Disjoint paths: both at line rate.
  EXPECT_NEAR(sim_.rate_of(f1), 1.0 * kGbps, 1e6);
  EXPECT_NEAR(sim_.rate_of(f2), 1.0 * kGbps, 1e6);
  sim_.run_until_flows_done();
}

TEST_F(SimulatorTest, RecordsClassifyIntraTorAndIntraPod) {
  // hosts 0,1 share a ToR; hosts 0,2 share pod 0; host far away is inter-pod.
  const FlowId a =
      sim_.submit(make_spec(topo_.hosts()[0], topo_.hosts()[1], Bytes{1000}, 0.0, 1));
  const FlowId b =
      sim_.submit(make_spec(topo_.hosts()[0], topo_.hosts()[2], Bytes{1000}, 0.0, 2));
  const FlowId c =
      sim_.submit(make_spec(topo_.hosts()[0], topo_.hosts()[8], Bytes{1000}, 0.0, 3));
  sim_.run_until_flows_done();
  ASSERT_EQ(sim_.records().size(), 3u);
  // Records are in completion order; find them by id.
  auto record_of = [&](FlowId id) {
    for (const auto& rec : sim_.records())
      if (rec.id == id) return rec;
    ADD_FAILURE() << "record missing";
    return sim_.records().front();
  };
  EXPECT_TRUE(record_of(a).intra_tor);
  EXPECT_TRUE(record_of(a).intra_pod);
  EXPECT_FALSE(record_of(b).intra_tor);
  EXPECT_TRUE(record_of(b).intra_pod);
  EXPECT_FALSE(record_of(c).intra_pod);
}

TEST_F(SimulatorTest, ConservationOfBytes) {
  // Total transferred time x rate integrates to exactly the flow size:
  // transfer_time >= size / line_rate always.
  Rng rng(4);
  const auto& hosts = topo_.hosts();
  for (int i = 0; i < 30; ++i) {
    const NodeId s = hosts[rng.next_below(hosts.size())];
    NodeId d = s;
    while (d == s) d = hosts[rng.next_below(hosts.size())];
    sim_.submit(make_spec(s, d, Bytes{10'000'000} * (1 + i % 5),
                          rng.uniform(0.0, 2.0),
                          static_cast<std::uint16_t>(i)));
  }
  sim_.run_until_flows_done();
  for (const auto& rec : sim_.records()) {
    const double line_rate_time =
        static_cast<double>(rec.size) * 8.0 / (1 * kGbps);
    // The simulator keeps stale rates within a 0.1% band (see
    // kRateTolerance), so a flow can nominally beat line rate by that much.
    EXPECT_GE(rec.transfer_time(), line_rate_time * (1 - 2e-3));
  }
}

}  // namespace
}  // namespace dard::flowsim
