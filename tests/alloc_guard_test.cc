// Allocation guards. The packet hop: once a PacketNetwork and its
// EventQueue have carried one burst, a second burst of data packets and
// ACKs along 6-hop routes allocates nothing. DARD monitors: a k=32
// inter-pod monitor holds a bounded heap, and once warm a refresh plus the
// round's propose() allocate nothing. dardscope's load: reading and
// reporting a large run dir stays within a fixed heap budget, because the
// trace is digested as it is read. This binary replaces the global operator
// new with a counting one, which is why it stands alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "baselines/ecmp.h"
#include "dard/monitor.h"
#include "fabric/wire.h"
#include "flowsim/event_queue.h"
#include "flowsim/simulator.h"
#include "harness/manifest.h"
#include "obs/trace.h"
#include "pktsim/network.h"
#include "scope/report.h"
#include "scope/run_loader.h"
#include "scope/trace_load.h"
#include "topology/builders.h"
#include "topology/path_gen.h"

namespace {
std::size_t g_allocations = 0;
// Bytes requested and not yet freed, and the most there ever were; each
// block carries its size in a header in front of it.
std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// Not inlined: inlined into a caller, the header arithmetic reads to the
// compiler as an access before the block the caller sees.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  void* p = std::malloc(n + kHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = n;
  g_live_bytes += n;
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return static_cast<char*>(p) + kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* const block = static_cast<char*>(p) - kHeader;
  g_live_bytes -= *reinterpret_cast<std::size_t*>(block);
  std::free(block);
}
// Every other unaligned form goes through the pair above, so no block
// crosses to another allocator's delete (a sanitizer runtime supplies the
// forms a program does not replace).
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace dard::pktsim {
namespace {

TEST(AllocationGuard, CountsAllocations) {
  const std::size_t before = g_allocations;
  std::vector<int> v(4);
  EXPECT_EQ(g_allocations - before, 1u);
}

TEST(AllocationGuard, TracksPeakLiveBytes) {
  const std::size_t live = g_live_bytes;
  g_peak_bytes = live;
  {
    std::vector<char> a(1000);
    std::vector<char> b(3000);
    EXPECT_EQ(g_live_bytes - live, 4000u);
  }
  std::vector<char> c(500);
  EXPECT_EQ(g_live_bytes - live, 500u);
  EXPECT_EQ(g_peak_bytes - live, 4000u);
}

// Every host sends kWindow data packets to the host half the fabric away
// (another pod: 6 hops), each on its own path index; the delivery handler
// acknowledges every data packet along the reversed route.
class PacketHopAllocations : public ::testing::Test {
 protected:
  static constexpr int kWindow = 8;

  PacketHopAllocations()
      : t_(topo::build_fat_tree({.p = 4,
                                 .hosts_per_tor = -1,
                                 .link_capacity = 100 * kMbps,
                                 .link_delay = 0.0001})),
        net_(t_, events_) {
    const topo::PathGenerator gen(t_);
    const auto& hosts = t_.hosts();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const NodeId src = hosts[h];
      const NodeId dst = hosts[(h + hosts.size() / 2) % hosts.size()];
      const NodeId s = t_.tor_of_host(src), d = t_.tor_of_host(dst);
      LinkId mid[topo::kMaxTorPathLinks];
      const std::size_t n = gen.path_links(s, d, h % gen.count(s, d), mid);
      Route r;
      r.push_back(t_.out_links(src).front());
      for (std::size_t i = 0; i < n; ++i) r.push_back(mid[i]);
      r.push_back(t_.reverse(t_.out_links(dst).front()));
      routes_.push_back(r);
    }
    net_.set_delivery_handler([this](const Packet& p) {
      ++delivered_;
      if (p.is_ack) return;
      Packet ack;
      ack.flow = p.flow;
      ack.seq = p.seq + 1;
      ack.is_ack = true;
      ack.size = kAckPacketBytes;
      for (auto it = p.route.end(); it != p.route.begin();)
        ack.route.push_back(t_.reverse(*--it));
      net_.send(ack);
    });
  }

  void burst() {
    for (int seq = 0; seq < kWindow; ++seq) {
      for (std::size_t h = 0; h < routes_.size(); ++h) {
        Packet p;
        p.flow = FlowId(static_cast<FlowId::value_type>(h));
        p.seq = static_cast<std::uint64_t>(seq);
        p.route = routes_[h];
        net_.send(p);
      }
    }
    while (events_.run_next()) {
    }
  }

  topo::Topology t_;
  flowsim::EventQueue events_;
  PacketNetwork net_;
  std::vector<Route> routes_;
  std::uint64_t delivered_ = 0;
};

TEST_F(PacketHopAllocations, WarmBurstAllocatesNothing) {
  burst();
  const std::uint64_t forwarded = net_.forwarded();
  const std::uint64_t delivered = delivered_;
  ASSERT_GT(delivered, 0u);

  const std::size_t before = g_allocations;
  burst();
  const std::size_t allocations = g_allocations - before;

  // The second burst did the same work: hundreds of hops, data and ACKs.
  EXPECT_EQ(net_.forwarded() - forwarded, forwarded);
  EXPECT_EQ(delivered_ - delivered, delivered);
  EXPECT_GT(forwarded, 1000u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace dard::pktsim

namespace dard::core {
namespace {

// An idle k=32 fat tree and a monitor between ToRs of different pods: 256
// paths, 544 links, 289 queried switches.
class MonitorAllocations : public ::testing::Test {
 protected:
  MonitorAllocations() : t_(make_fabric()), sim_(t_) {
    sim_.set_agent(&agent_);
  }
  static topo::Topology make_fabric() {
    topo::FatTreeParams p;
    p.p = 32;
    return topo::build_fat_tree(p);
  }
  [[nodiscard]] NodeId src() const { return t_.tors().front(); }
  [[nodiscard]] NodeId dst() const { return t_.tors().back(); }

  topo::Topology t_;
  flowsim::FlowSimulator sim_;
  baselines::EcmpAgent agent_;
};

// What one live monitor costs its host's heap, its build scratch (shared by
// the thread's builds) already grown by an earlier build.
constexpr std::size_t kMonitorHeapBudget = 32 << 10;

TEST_F(MonitorAllocations, InterPodMonitorHoldsItsBudget) {
  { const PathMonitor warm(sim_, src(), dst()); }
  const std::size_t live = g_live_bytes;
  const PathMonitor monitor(sim_, src(), dst());
  ASSERT_EQ(monitor.path_count(), 256u);
  const std::size_t held = g_live_bytes - live;
  EXPECT_LE(held, kMonitorHeapBudget) << held << " bytes";
  RecordProperty("monitor_heap_bytes", static_cast<int>(held));
}

TEST_F(MonitorAllocations, WarmRefreshAndProposeAllocateNothing) {
  const fabric::StateQueryService service(sim_.link_state(),
                                          &sim_.accountant());
  const DardConfig cfg;
  PathMonitor monitor(sim_, src(), dst());
  monitor.add_flow(FlowId(0), 0);
  Rng rng(1);
  std::vector<obs::QueryExchange> exchanges;
  auto round = [&] {
    monitor.refresh(3.0, service, cfg, &exchanges);
    RoundEvaluation eval;
    (void)monitor.propose(cfg.delta, rng, &eval);
    EXPECT_TRUE(eval.considered);
  };
  round();  // grows the accountant's buckets and the exchange list

  const std::size_t before = g_allocations;
  for (int i = 0; i < 8; ++i) round();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(sim_.accountant().message_count(), 9 * 2 * 289u);
  EXPECT_EQ(exchanges.size(), 289u);
}

}  // namespace
}  // namespace dard::core

namespace dard::scope {
namespace {

using obs::SpanKind;
using obs::TraceEvent;
using obs::TraceEventKind;

std::vector<std::string> data_lines(const char* name) {
  std::ifstream in(std::string(DARD_TEST_DATA_DIR) + "/" + name);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// The first corpus event that `pick` accepts.
template <class Pick>
TraceEvent corpus_event(const std::vector<TraceEvent>& corpus, Pick pick) {
  const auto it = std::find_if(corpus.begin(), corpus.end(), pick);
  EXPECT_NE(it, corpus.end());
  return it != corpus.end() ? *it : TraceEvent{};
}

// A run dir shaped like a `dardsim --run-dir --spans` k=8 window, built from
// the tests/data corpus: kChains DARD chains (an accepted round, a refresh
// with kQueries query spans, a decision, the flow move and its move span;
// 12 span lines each) over a flow per 4 chains, and kPeriods periods of the
// corpus's link-sample rows.
constexpr std::size_t kChains = 17'000;
constexpr std::size_t kQueries = 9;
constexpr std::size_t kPeriods = 8'400;

std::filesystem::path write_scope_run_dir(std::size_t* trace_lines,
                                          std::size_t* sample_rows) {
  std::vector<TraceEvent> corpus;
  for (const std::string& line : data_lines("trace_corpus.jsonl")) {
    TraceEvent e;
    std::string error;
    EXPECT_TRUE(parse_trace_line(line, &e, &error)) << error;
    corpus.push_back(e);
  }
  const auto of_kind = [&](TraceEventKind kind) {
    return corpus_event(corpus,
                        [kind](const TraceEvent& e) { return e.kind == kind; });
  };
  const auto of_span = [&](SpanKind kind) {
    return corpus_event(corpus, [kind](const TraceEvent& e) {
      return e.kind == TraceEventKind::Span && e.span_kind == kind;
    });
  };
  TraceEvent arrive = of_kind(TraceEventKind::FlowArrive);
  TraceEvent elephant = of_kind(TraceEventKind::FlowElephant);
  TraceEvent move = of_kind(TraceEventKind::FlowMove);
  TraceEvent complete = of_kind(TraceEventKind::FlowComplete);
  TraceEvent round = corpus_event(corpus, [](const TraceEvent& e) {
    return e.kind == TraceEventKind::DardRound && e.accepted;
  });
  TraceEvent refresh = of_span(SpanKind::Refresh);
  TraceEvent query = of_span(SpanKind::Query);
  TraceEvent decision = of_span(SpanKind::Decision);
  TraceEvent move_span = of_span(SpanKind::Move);

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "alloc_guard_scope_run";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream trace(dir / harness::kTraceFile);
  std::string line;
  *trace_lines = 0;
  const auto emit = [&](const TraceEvent& e, double t) {
    TraceEvent copy = e;
    copy.time = t;
    line.clear();
    obs::append_json(line, copy);
    trace << line << '\n';
    ++*trace_lines;
  };
  std::uint64_t next_id = 0;
  for (std::size_t i = 0; i < kChains; ++i) {
    const double t = 1.0 + 0.001 * static_cast<double>(i);
    const FlowId flow(static_cast<FlowId::value_type>(i / 4));
    const NodeId host(static_cast<NodeId::value_type>(i % 128));
    if (i % 4 == 0) {
      arrive.flow = elephant.flow = flow;
      emit(arrive, t);
      emit(elephant, t);
    }
    round.src_host = refresh.src_host = query.src_host = decision.src_host =
        move_span.src_host = host;
    round.cause_id = ++next_id;
    emit(round, t);
    refresh.cause_id = ++next_id;
    emit(refresh, t);
    query.parent_id = decision.parent_id = refresh.cause_id;
    for (std::size_t q = 0; q < kQueries; ++q) {
      query.cause_id = ++next_id;
      emit(query, t);
    }
    decision.cause_id = ++next_id;
    emit(decision, t);
    move.flow = move_span.flow = flow;
    move.cause_id = move_span.parent_id = round.cause_id;
    emit(move, t);
    move_span.cause_id = ++next_id;
    emit(move_span, t);
    if (i % 4 == 3) {
      complete.flow = flow;
      emit(complete, t);
    }
  }

  const std::vector<std::string> rows = data_lines("link_samples.csv");
  std::ofstream samples(dir / harness::kLinkSamplesFile);
  samples << rows.front() << '\n';
  *sample_rows = 0;
  for (std::size_t period = 0; period < kPeriods; ++period)
    for (std::size_t r = 1; r < rows.size(); ++r) {
      // The corpus rows with this period's time in front.
      samples << 0.5 * static_cast<double>(period)
              << rows[r].substr(rows[r].find(',')) << '\n';
      ++*sample_rows;
    }
  return dir;
}

// The heap the load and both reports may hold at their peak. Holding the
// events as std::vector<obs::TraceEvent> and the rows as LinkSamples, as
// the load once did, takes several times this for this run dir.
constexpr std::size_t kScopeHeapBudget = 8 << 20;

TEST(ScopeHeapBudget, LoadingAndReportingALargeRunDirHoldsNoEvents) {
  std::size_t trace_lines = 0;
  std::size_t sample_rows = 0;
  const std::filesystem::path dir =
      write_scope_run_dir(&trace_lines, &sample_rows);
  ASSERT_GE(kChains * (kQueries + 3), 200'000u);
  ASSERT_GE(sample_rows, 100'000u);

  const std::size_t live = g_live_bytes;
  g_peak_bytes = live;
  {
    RunData run;
    std::string error;
    ASSERT_TRUE(load_run(dir.string(), &run, &error)) << error;
    const Report report = build_report(run);
    const SpansReport spans = build_spans_report(run);
    EXPECT_EQ(report.trace_events, trace_lines);
    EXPECT_EQ(report.causes.moves, kChains);
    EXPECT_TRUE(report.causes.clean());
    EXPECT_EQ(spans.audit.spans, kChains * (kQueries + 3));
    EXPECT_TRUE(spans.audit.clean());
    EXPECT_EQ(report.utilization.samples, sample_rows);
  }
  const std::size_t peak = g_peak_bytes - live;
  EXPECT_LT(peak, kScopeHeapBudget) << "peak live heap " << peak << " bytes";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dard::scope
