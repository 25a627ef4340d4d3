// The trace and sample codecs against their stream-based references
// (codec_reference.h): byte-identical writers on seeded random records, the
// tokenizer's number conversion against strtod, and the nesting limit on
// every JSON reader.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codec_reference.h"
#include "common/json.h"
#include "common/numtext.h"
#include "faults/fault_plan.h"
#include "harness/manifest.h"
#include "obs/samplers.h"
#include "obs/trace.h"
#include "scope/run_loader.h"
#include "scope/trace_load.h"

namespace dard {
namespace {

using obs::FaultAction;
using obs::SpanKind;
using obs::TraceEvent;
using obs::TraceEventKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Doubles the renderer must print exactly as an ostream does: signed zeros
// and infinities, NaNs, denormals, the ends of the range, and values whose
// 6-digit rounding carries into a new exponent.
const std::vector<double> kEdgeDoubles = {
    0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
    -std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::denorm_min(), -4.9e-324, 2.2250738585072e-308,
    std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(), 1e300, -1e300, 1e-300, -1e-300, 0.1,
    999999.5, 9999995, 999999.4, 9999994, 999999, 1e6, 1e-5, 1e-4, 0.0001234565,
    123456.5, 1.5, 2.5, 1e15, 1e16, 1e17, 4294967295.0, 18446744073709551615.0};

class RandomEvents {
 public:
  explicit RandomEvents(std::uint64_t seed) : rng_(seed) {}

  double real() {
    switch (pick(6)) {
      case 0:
        return kEdgeDoubles[pick(kEdgeDoubles.size())];
      case 1: {  // any bit pattern: NaN payloads, infinities, denormals
        const std::uint64_t bits = rng_();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return d;
      }
      case 2:
        return std::uniform_real_distribution<double>(0, 1)(rng_);
      case 3:
        return std::uniform_real_distribution<double>(-1e10, 1e10)(rng_);
      case 4:  // round numbers of the kind a simulation produces
        return static_cast<double>(pick(100000)) / 8.0;
      default:
        return std::pow(10.0, std::uniform_real_distribution<double>(
                                  -320, 308)(rng_));
    }
  }

  template <class Int>
  Int integer() {
    switch (pick(4)) {
      case 0:
        return std::numeric_limits<Int>::max();
      case 1:
        return 0;
      case 2:
        return static_cast<Int>(pick(1000));
      default:
        return static_cast<Int>(rng_());
    }
  }

  template <class IdT>
  IdT id() {
    return pick(5) == 0 ? IdT() : IdT(integer<typename IdT::value_type>());
  }

  std::string name() {
    static const char kChars[] = "abz._-09\"\\/\n\t\x01\x1f \x7f\xc3\xa9";
    std::string s;
    const std::size_t n = pick(12);
    for (std::size_t i = 0; i < n; ++i) s += kChars[pick(sizeof kChars - 1)];
    return s;
  }

  TraceEvent event(TraceEventKind kind) {
    TraceEvent e;
    e.kind = kind;
    e.time = real();
    e.flow = id<FlowId>();
    e.src_host = id<NodeId>();
    e.dst_host = id<NodeId>();
    e.size = integer<Bytes>();
    e.path_from = integer<PathIndex>();
    e.path_to = integer<PathIndex>();
    e.bonf_from = real();
    e.bonf_to = real();
    e.gain = real();
    e.delta_threshold = real();
    e.accepted = pick(2) == 0;
    e.cause_id = integer<std::uint64_t>();
    e.fault_action = static_cast<FaultAction>(1 + pick(8));
    e.span_kind = static_cast<SpanKind>(1 + pick(4));
    e.parent_id = integer<std::uint64_t>();
    e.span_attempts = integer<std::uint32_t>();
    e.span_timeouts = integer<std::uint32_t>();
    e.span_lost = integer<std::uint32_t>();
    e.span_clean = integer<std::uint32_t>();
    e.span_bytes = integer<std::uint64_t>();
    e.span_duration = real();
    if (kind == TraceEventKind::Snapshot && pick(10) != 0) {
      auto s = std::make_shared<obs::SnapshotStats>();
      s->seq = integer<std::uint64_t>();
      s->active_flows = integer<std::size_t>();
      s->active_elephants = integer<std::size_t>();
      s->event_queue_depth = integer<std::size_t>();
      s->throughput_bps = real();
      s->max_utilization = real();
      s->rss_bytes = real();
      s->path_store_bytes = real();
      for (std::size_t i = pick(5); i > 0; --i)
        s->counters.emplace_back(name(), real());
      for (std::size_t i = pick(4); i > 0; --i) {
        obs::ProfileSummary p;
        p.section = name();
        p.count = integer<std::uint64_t>();
        p.total_s = real();
        p.mean_s = real();
        p.p50_s = real();
        p.p95_s = real();
        p.p99_s = real();
        p.p999_s = real();
        p.max_s = real();
        s->profile.push_back(std::move(p));
      }
      e.snapshot = std::move(s);
    }
    return e;
  }

  std::size_t pick(std::size_t n) { return rng_() % n; }

 private:
  std::mt19937_64 rng_;
};

// ------------------------------------------------------------ trace writer

TEST(TraceWriter, MatchesTheStreamRendererOnRandomEvents) {
  RandomEvents gen(20261018);
  std::ostringstream sink_out;
  obs::JsonlTraceSink sink(sink_out);
  std::string expected_file;
  std::size_t per_kind[8] = {};
  for (int i = 0; i < 12000; ++i) {
    const auto kind = static_cast<TraceEventKind>(i % 8);
    ++per_kind[i % 8];
    const TraceEvent e = gen.event(kind);
    const std::string expected = codec_ref::to_json(e);
    ASSERT_EQ(obs::to_json(e), expected) << "event " << i;
    sink.write(e);
    expected_file += expected + '\n';
  }
  for (const std::size_t n : per_kind) EXPECT_EQ(n, 1500u);
  EXPECT_EQ(sink_out.str(), expected_file);
}

TEST(TraceWriter, CoversEverySpanKindAndFaultAction) {
  RandomEvents gen(7);
  for (int k = 1; k <= 4; ++k) {
    TraceEvent e = gen.event(TraceEventKind::Span);
    e.span_kind = static_cast<SpanKind>(k);
    EXPECT_EQ(obs::to_json(e), codec_ref::to_json(e));
  }
  for (int a = 1; a <= 8; ++a) {
    TraceEvent e = gen.event(TraceEventKind::Fault);
    e.fault_action = static_cast<FaultAction>(a);
    EXPECT_EQ(obs::to_json(e), codec_ref::to_json(e));
  }
}

TEST(TraceWriter, NumbersPrintAsADefaultStreamDoes) {
  for (const double d : kEdgeDoubles) {
    std::ostringstream os;
    os << d;
    std::string s;
    numtext::append_double(s, d);
    EXPECT_EQ(s, os.str()) << d;
  }
  RandomEvents gen(99);
  for (int i = 0; i < 200000; ++i) {
    const double d = gen.real();
    std::ostringstream os;
    os << d;
    std::string s;
    numtext::append_double(s, d);
    ASSERT_EQ(s, os.str());
  }
}

TEST(TraceWriter, JsonlLinesAreInTheStreamWithoutAFlush) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  RandomEvents gen(3);
  const TraceEvent a = gen.event(TraceEventKind::Span);
  const TraceEvent b = gen.event(TraceEventKind::FlowMove);
  sink.write(a);
  EXPECT_EQ(os.str(), obs::to_json(a) + '\n');
  sink.write(b);
  EXPECT_EQ(os.str(), obs::to_json(a) + '\n' + obs::to_json(b) + '\n');
  EXPECT_EQ(sink.written(), 2u);
}

// ------------------------------------------------------------ sample CSVs

obs::TimeSeries random_series(RandomEvents& gen) {
  obs::TimeSeries ts;
  const std::size_t links = 1 + gen.pick(12);
  for (std::size_t l = 0; l < links; ++l)
    ts.links.push_back(obs::LinkMeta{"n" + std::to_string(l), "core_1",
                                     gen.real(), gen.pick(2) == 0});
  for (std::size_t i = gen.pick(20); i > 0; --i) {
    obs::LinkSample s;
    s.time = gen.real();
    for (std::size_t l = 0; l < links; ++l)
      s.utilization.push_back(gen.pick(3) == 0 ? 0.0 : gen.real());
    ts.link_samples.push_back(std::move(s));
    ts.aggregate_samples.push_back(obs::AggregateSample{
        gen.real(), gen.integer<std::size_t>(), gen.integer<std::size_t>(),
        gen.real(), gen.real()});
  }
  return ts;
}

TEST(SampleCsv, WritersMatchTheStreamWritersOnRandomSamples) {
  RandomEvents gen(424242);
  for (int i = 0; i < 300; ++i) {
    const obs::TimeSeries ts = random_series(gen);
    for (const bool idle : {false, true}) {
      std::ostringstream got, want;
      ts.write_link_csv(got, idle);
      codec_ref::write_link_csv(ts, want, idle);
      ASSERT_EQ(got.str(), want.str());
    }
    std::ostringstream got, want;
    ts.write_aggregate_csv(got);
    codec_ref::write_aggregate_csv(ts, want);
    ASSERT_EQ(got.str(), want.str());
  }
}

TEST(SampleCsv, LinkRowsReadBackTheWrittenNumbers) {
  scope::LinkSample s;
  ASSERT_TRUE(scope::parse_link_sample_row(
      "0.5,12,agg0_1,core3,1e+09,2.5e+08,0.25", &s));
  EXPECT_DOUBLE_EQ(s.time, 0.5);
  EXPECT_EQ(s.link, 12u);
  EXPECT_EQ(s.src, "agg0_1");
  EXPECT_EQ(s.dst, "core3");
  EXPECT_DOUBLE_EQ(s.capacity_bps, 1e9);
  EXPECT_DOUBLE_EQ(s.used_bps, 2.5e8);
  EXPECT_DOUBLE_EQ(s.utilization, 0.25);
  // The header row and short rows stay malformed; an empty cell reads as 0.
  EXPECT_FALSE(scope::parse_link_sample_row(
      "time,link,src,dst,capacity_bps,used_bps,utilization", &s));
  EXPECT_FALSE(scope::parse_link_sample_row("1,2,a,b,1e9,0", &s));
  ASSERT_TRUE(scope::parse_link_sample_row("1,2,a,b,,0,0,extra", &s));
  EXPECT_EQ(s.capacity_bps, 0);
}

// ------------------------------------------------------------ tokenizer

TEST(JsonTokenizer, PullsOneTokenAtATime) {
  const std::string text =
      R"( {"a": [1, -2.5e3, true], "b\/c": "x\ty", "d": {}} )";
  json::Tokenizer tk(text);
  using json::Token;
  EXPECT_EQ(tk.next(), Token::BeginObject);
  ASSERT_EQ(tk.next(), Token::Key);
  EXPECT_EQ(tk.raw(), "a");
  EXPECT_EQ(tk.next(), Token::BeginArray);
  ASSERT_EQ(tk.next(), Token::Number);
  EXPECT_EQ(tk.number(), 1);
  ASSERT_EQ(tk.next(), Token::Number);
  EXPECT_EQ(tk.number(), -2500);
  ASSERT_EQ(tk.next(), Token::Bool);
  EXPECT_TRUE(tk.boolean());
  EXPECT_EQ(tk.next(), Token::EndArray);
  ASSERT_EQ(tk.next(), Token::Key);
  EXPECT_TRUE(tk.escaped());
  EXPECT_EQ(tk.raw(), "b\\/c");
  EXPECT_EQ(tk.text(), "b/c");
  ASSERT_EQ(tk.next(), Token::String);
  EXPECT_EQ(tk.text(), "x\ty");
  ASSERT_EQ(tk.next(), Token::Key);
  const json::Token inner = tk.next();
  EXPECT_EQ(inner, Token::BeginObject);
  EXPECT_TRUE(tk.skip(inner));
  EXPECT_EQ(tk.next(), Token::EndObject);
  EXPECT_EQ(tk.next(), Token::End);
  EXPECT_EQ(tk.next(), Token::End);
}

TEST(JsonTokenizer, ErrorsMatchTheRecursiveParser) {
  const std::vector<std::string> inputs = {
      "", "   ", "{", "}", "[1,]", "[1 2]", "{\"a\" 1}", "{\"a\":1,}",
      "{\"a\":1 \"b\":2}", "{1:2}", "\"abc", "\"a\\", "\"a\\u0041\"", "tru",
      "fals", "nul", "-", "--1", "1e", "1e+", "1.2.3", "01", "1.", "-.5",
      ".5", "+1", "[1]x", "{} {}", "[[[]]", "{\"a\":[}", "1e400", "-1e400",
      "1e-400", "[\"\\q\"]", "{\"k\":\"v\"}\n", "\t[true , false]\r\n"};
  for (const std::string& in : inputs) {
    std::string want_error, got_error;
    const auto want = codec_ref::parse(in, &want_error);
    const auto got = json::parse(in, &got_error);
    EXPECT_EQ(got != nullptr, want != nullptr) << in;
    EXPECT_EQ(got_error, want_error) << in;
  }
}

TEST(JsonTokenizer, NumbersConvertExactlyAsStrtod) {
  const std::vector<std::string> tokens = {
      "0", "-0", "1", "0.1", "1e5", "1E+05", "1.e5", "-.5e-3", "01",
      "9007199254740993", "2.2250738585072011e-308",
      "2.2250738585072012e-308", "4.9e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308", "1e400", "-1e400",
      "1e-400", "123456789012345678901234567890e-10",
      "0.30000000000000000000000000000000000000000000000000000000000000000001",
      "1" + std::string(400, '0'), "0." + std::string(400, '0') + "1"};
  for (const std::string& t : tokens) {
    double got = 0;
    ASSERT_TRUE(numtext::parse_double(t, &got)) << t;
    char* end = nullptr;
    const double want = std::strtod(t.c_str(), &end);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << t << ": " << got << " vs " << want;
  }
  double d = 0;
  for (const char* bad : {"", "-", "1e", "1.2.3", "--1", "1e+-2", "12abc"})
    EXPECT_FALSE(numtext::parse_double(bad, &d)) << bad;
}

// ------------------------------------------------------------ nesting limit

std::string nested(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(NestingLimit, JsonParseRefusesDeepDocumentsWithoutRecursing) {
  std::string error;
  EXPECT_NE(json::parse(nested(json::kMaxDepth), &error), nullptr) << error;
  EXPECT_EQ(json::parse(nested(json::kMaxDepth + 1), &error), nullptr);
  EXPECT_EQ(error, "nesting deeper than 64 at offset 64");
  EXPECT_EQ(json::parse(std::string(1000000, '['), &error), nullptr);
  EXPECT_EQ(error, "nesting deeper than 64 at offset 64");
  EXPECT_EQ(json::parse("{\"a\":" + std::string(1000000, '['), &error),
            nullptr);
  EXPECT_EQ(error, "nesting deeper than 64 at offset 68");
  std::string objects;
  for (int i = 0; i < 100; ++i) objects += "{\"a\":";
  EXPECT_EQ(json::parse(objects, &error), nullptr);
  EXPECT_EQ(error, "nesting deeper than 64 at offset 320");
}

TEST(NestingLimit, TraceLineRefusesDeepMembers) {
  obs::TraceEvent e;
  std::string error;
  const std::string line =
      R"({"v":5,"kind":"flow_arrive","t":0,"x":)" + std::string(1000000, '[');
  EXPECT_FALSE(scope::parse_trace_line(line, &e, &error));
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
  EXPECT_FALSE(scope::parse_trace_line(std::string(1000000, '['), &e, &error));
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
  // At the limit an unknown member is skipped like any other.
  const std::string deep_ok = R"({"v":5,"kind":"flow_elephant","t":1,"x":)" +
                              nested(json::kMaxDepth - 1) + "}";
  EXPECT_TRUE(scope::parse_trace_line(deep_ok, &e, &error)) << error;
}

TEST(NestingLimit, FaultPlanRefusesDeepDocuments) {
  std::string error;
  EXPECT_FALSE(faults::FaultPlan::parse_json(std::string(1000000, '['), &error)
                   .has_value());
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
  EXPECT_FALSE(faults::FaultPlan::parse_json(
                   "{\"links\": " + std::string(1000000, '['), &error)
                   .has_value());
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
}

TEST(NestingLimit, LoadRunRefusesADeepManifest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "codec_deep_manifest";
  fs::create_directories(dir);
  {
    std::ofstream manifest(dir / harness::kManifestFile);
    manifest << "{\"manifest_version\": 1, \"files\": "
             << std::string(1000000, '[');
    std::ofstream trace(dir / harness::kTraceFile);
  }
  scope::RunData run;
  std::string error;
  EXPECT_FALSE(scope::load_run(dir.string(), &run, &error));
  EXPECT_NE(error.find(harness::kManifestFile), std::string::npos) << error;
  EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos) << error;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dard
