// Seeded mutation fuzz of the readers that take outside input: trace lines,
// JSON documents (manifests, fault plans) and link-sample CSV rows.
//
// The corpus in tests/data/ comes from CI-shaped run dirs: one trace line per
// event kind, span kind and fault action, a snapshot with counters and a
// profile, v6 lines (a refresh carrying "clean" and a retried query),
// lines with integer fields at their types' bounds, a manifest, a fault
// plan, and link-sample rows. Each iteration
// mutates it with byte flips, truncations, splices between lines, duplicated
// keys, inserted whitespace and runs of '[' / '{', then requires that
//   - no reader crashes (the sanitizer build turns memory errors into
//     failures), and
//   - json::parse and scope::parse_trace_line accept exactly what the
//     reference parser (codec_reference.h) accepts, with equal values and
//     the same error text. The one intended difference is json::kMaxDepth:
//     input the reference accepts may fail with "nesting deeper than 64".
// The seed and iteration budget are fixed, so a failure replays exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codec_reference.h"
#include "common/json.h"
#include "faults/fault_plan.h"
#include "scope/run_loader.h"
#include "scope/trace_load.h"

namespace dard {
namespace {

constexpr std::uint64_t kSeed = 0x5eed17;
constexpr int kIterations = 6000;

std::string read_file(const std::string& name) {
  std::ifstream in(std::string(DARD_TEST_DATA_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> read_lines(const std::string& name) {
  std::istringstream in(read_file(name));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every TraceEvent field, doubles compared bit for bit.
void expect_same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_TRUE(same_bits(a.time, b.time));
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.src_host, b.src_host);
  EXPECT_EQ(a.dst_host, b.dst_host);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.path_from, b.path_from);
  EXPECT_EQ(a.path_to, b.path_to);
  EXPECT_TRUE(same_bits(a.bonf_from, b.bonf_from));
  EXPECT_TRUE(same_bits(a.bonf_to, b.bonf_to));
  EXPECT_TRUE(same_bits(a.gain, b.gain));
  EXPECT_TRUE(same_bits(a.delta_threshold, b.delta_threshold));
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.cause_id, b.cause_id);
  EXPECT_EQ(a.fault_action, b.fault_action);
  EXPECT_EQ(a.span_kind, b.span_kind);
  EXPECT_EQ(a.parent_id, b.parent_id);
  EXPECT_EQ(a.span_attempts, b.span_attempts);
  EXPECT_EQ(a.span_timeouts, b.span_timeouts);
  EXPECT_EQ(a.span_lost, b.span_lost);
  EXPECT_EQ(a.span_clean, b.span_clean);
  EXPECT_EQ(a.span_bytes, b.span_bytes);
  EXPECT_TRUE(same_bits(a.span_duration, b.span_duration));
  ASSERT_EQ(a.snapshot == nullptr, b.snapshot == nullptr);
  if (a.snapshot == nullptr) return;
  const obs::SnapshotStats& s = *a.snapshot;
  const obs::SnapshotStats& t = *b.snapshot;
  EXPECT_EQ(s.seq, t.seq);
  EXPECT_EQ(s.active_flows, t.active_flows);
  EXPECT_EQ(s.active_elephants, t.active_elephants);
  EXPECT_EQ(s.event_queue_depth, t.event_queue_depth);
  EXPECT_TRUE(same_bits(s.throughput_bps, t.throughput_bps));
  EXPECT_TRUE(same_bits(s.max_utilization, t.max_utilization));
  EXPECT_TRUE(same_bits(s.rss_bytes, t.rss_bytes));
  EXPECT_TRUE(same_bits(s.path_store_bytes, t.path_store_bytes));
  ASSERT_EQ(s.counters.size(), t.counters.size());
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    EXPECT_EQ(s.counters[i].first, t.counters[i].first);
    EXPECT_TRUE(same_bits(s.counters[i].second, t.counters[i].second));
  }
  ASSERT_EQ(s.profile.size(), t.profile.size());
  for (std::size_t i = 0; i < s.profile.size(); ++i) {
    const obs::ProfileSummary& p = s.profile[i];
    const obs::ProfileSummary& q = t.profile[i];
    EXPECT_EQ(p.section, q.section);
    EXPECT_EQ(p.count, q.count);
    for (const auto field :
         {&obs::ProfileSummary::total_s, &obs::ProfileSummary::mean_s,
          &obs::ProfileSummary::p50_s, &obs::ProfileSummary::p95_s,
          &obs::ProfileSummary::p99_s, &obs::ProfileSummary::p999_s,
          &obs::ProfileSummary::max_s})
      EXPECT_TRUE(same_bits(p.*field, q.*field));
  }
}

bool same_value(const json::Value& a, const json::Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case json::Value::Kind::String:
      return a.string == b.string;
    case json::Value::Kind::Number:
      return same_bits(a.number, b.number);
    case json::Value::Kind::Bool:
      return a.boolean == b.boolean;
    case json::Value::Kind::Array:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!same_value(*a.array[i], *b.array[i])) return false;
      return true;
    case json::Value::Kind::Object:
      if (a.object.size() != b.object.size()) return false;
      for (auto i = a.object.begin(), j = b.object.begin();
           i != a.object.end(); ++i, ++j)
        if (i->first != j->first || !same_value(*i->second, *j->second))
          return false;
      return true;
  }
  return false;
}

bool is_depth_error(const std::string& error) {
  return error.find("nesting deeper than 64") != std::string::npos;
}

// Whether the text has at most kMaxDepth brackets in all, so the depth
// limit cannot be what rejects it.
bool shallow(const std::string& text) {
  std::size_t opens = 0;
  for (const char c : text) opens += c == '[' || c == '{';
  return opens <= json::kMaxDepth;
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string s = corpus_[pick(corpus_.size())];
    for (std::size_t n = 1 + pick(3); n > 0; --n) mutate(&s);
    return s;
  }

  std::size_t pick(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

 private:
  void mutate(std::string* s) {
    static const char kBytes[] = "\"\\{}[]:, \t\nef-+.019tfnu/x\x01\x80\xff";
    const std::size_t at = pick(s->size() + 1);
    switch (pick(7)) {
      case 0:  // byte flip
        if (!s->empty())
          (*s)[pick(s->size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // byte replaced by a structurally interesting one
        if (!s->empty())
          (*s)[pick(s->size())] = kBytes[pick(sizeof kBytes - 1)];
        break;
      case 2:  // truncation
        s->resize(at);
        break;
      case 3: {  // splice with another corpus line
        const std::string& other = corpus_[pick(corpus_.size())];
        *s = s->substr(0, at) + other.substr(pick(other.size() + 1));
        break;
      }
      case 4: {  // a member of this or another line, duplicated elsewhere
        const std::string& donor =
            pick(2) == 0 ? *s : corpus_[pick(corpus_.size())];
        const std::size_t begin = donor.find(",\"", pick(donor.size() + 1));
        if (begin == std::string::npos) break;
        const std::size_t end = donor.find_first_of(",}", begin + 1);
        const std::string member =
            donor.substr(begin, end == std::string::npos ? end : end - begin);
        const std::size_t into = s->find(",\"", at);
        s->insert(into == std::string::npos ? at : into, member);
        break;
      }
      case 5:  // whitespace, including the kinds only isspace knows
        s->insert(at, 1, " \t\n\r\v\f"[pick(6)]);
        break;
      default: {  // a run of openers, often where a value starts
        const std::size_t colon = s->find(':', at);
        const std::size_t where =
            pick(2) == 0 && colon != std::string::npos ? colon + 1 : at;
        const std::size_t n = 1 + pick(100);
        std::string run;
        switch (pick(3)) {
          case 0:
            run.assign(n, '[');
            break;
          case 1:
            for (std::size_t i = 0; i < n; ++i) run += "{\"k\":";
            break;
          default:
            run.assign(n, '{');
            break;
        }
        s->insert(where, run);
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::string> corpus_;
};

TEST(ReaderFuzz, TraceLinesDecodeAsTheReferenceDecoderDoes) {
  const std::vector<std::string> corpus = read_lines("trace_corpus.jsonl");
  ASSERT_GE(corpus.size(), 24u);
  // The unmutated corpus decodes, and identically.
  for (const std::string& line : corpus) {
    obs::TraceEvent got, want;
    std::string got_error, want_error;
    ASSERT_TRUE(scope::parse_trace_line(line, &got, &got_error)) << got_error;
    ASSERT_TRUE(codec_ref::parse_trace_line(line, &want, &want_error));
    expect_same_event(got, want);
  }
  Mutator m(kSeed, corpus);
  std::size_t accepted = 0;
  std::size_t depth_refusals = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string line = m.next();
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + line.substr(0, 300));
    obs::TraceEvent got, want;
    std::string got_error, want_error;
    const bool ok = scope::parse_trace_line(line, &got, &got_error);
    const bool want_ok = codec_ref::parse_trace_line(line, &want, &want_error);
    if (!ok && is_depth_error(got_error)) {
      ASSERT_FALSE(shallow(line));
      ++depth_refusals;
      continue;
    }
    ASSERT_EQ(ok, want_ok) << got_error << " | " << want_error;
    if (ok) {
      ++accepted;
      expect_same_event(got, want);
    } else {
      EXPECT_EQ(got_error, want_error);
    }
  }
  // The mutations must exercise both outcomes, and the limit.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(depth_refusals, 20u);
}

// The v6 "clean" count of a refresh span. Negative, fractional, at or past
// 2^32, above the refresh's attempts, or on another span kind, it fails the
// load with its line number; on a v5 line it is an unknown field and is
// ignored.
TEST(ReaderFuzz, HostileCleanCountsAreLineNumberedErrors) {
  const std::string refresh =
      R"({"v":6,"kind":"span","t":1,"span":"refresh","id":1,"parent":0,)"
      R"("host":10,"peer":15,"attempts":9,"timeouts":0,"lost":0,"bytes":720,)"
      R"("dur_s":0,"ok":true)";
  const std::string query =
      R"({"v":6,"kind":"span","t":1,"span":"query","id":2,"parent":1,)"
      R"("host":10,"peer":0,"attempts":1,"timeouts":0,"lost":0,"bytes":80,)"
      R"("dur_s":0,"ok":true)";
  const std::string decision =
      R"({"v":6,"kind":"span","t":1,"span":"decision","id":3,"parent":1,)"
      R"("host":10,"attempts":1,"timeouts":0,"lost":0,"bytes":0,"dur_s":0,)"
      R"("ok":true)";
  const std::string range = "field \"clean\" must be an integer in [0, 2^32)";
  const std::string kind = "field \"clean\" is only valid on a refresh span";
  const std::pair<std::string, std::string> cases[] = {
      {refresh + R"(,"clean":-1})", range},
      {refresh + R"(,"clean":1.5})", range},
      {refresh + R"(,"clean":4294967296})", range},
      {refresh + R"(,"clean":1e300})", range},
      {refresh + R"(,"clean":10})", "field \"clean\" exceeds the refresh's attempts"},
      {refresh + R"(,"clean":"3"})", "field \"clean\" must be a number"},
      {query + R"(,"clean":0})", kind},
      {decision + R"(,"clean":1})", kind},
  };
  const std::string path = testing::TempDir() + "/hostile_clean.jsonl";
  const std::string first = read_lines("trace_corpus.jsonl").front();
  for (const auto& [line, error] : cases) {
    SCOPED_TRACE(line);
    {
      std::ofstream out(path);
      out << first << '\n' << line << '\n';
    }
    scope::RunData run;
    std::string got;
    EXPECT_FALSE(scope::load_run(path, &run, &got));
    EXPECT_EQ(got, path + ":2: " + error);
    // The reference decoder refuses it with the same words.
    obs::TraceEvent e;
    std::string want;
    EXPECT_FALSE(codec_ref::parse_trace_line(line, &e, &want));
    EXPECT_EQ(want, error);
  }

  // v5 predates the field: any "clean" is ignored, even a hostile one.
  std::string v5 = refresh + R"(,"clean":-1})";
  v5.replace(v5.find("\"v\":6"), 5, "\"v\":5");
  obs::TraceEvent e;
  std::string error;
  ASSERT_TRUE(scope::parse_trace_line(v5, &e, &error)) << error;
  EXPECT_EQ(e.span_clean, 0u);
  // At the bounds, v6 reads it.
  for (const std::uint32_t n : {0u, 9u}) {
    const std::string line = refresh + ",\"clean\":" + std::to_string(n) + "}";
    ASSERT_TRUE(scope::parse_trace_line(line, &e, &error)) << error;
    EXPECT_EQ(e.span_clean, n);
  }
}

// Integer fields (ids, path indices, counts, bytes, sizes). A present value
// that is negative, fractional or past its type's range fails the load with
// its line number, as "clean" does; casting it would be undefined. Whole
// numbers in range read, whatever their spelling.
TEST(ReaderFuzz, HostileIntegerFieldsAreLineNumberedErrors) {
  const std::string query =
      R"({"v":6,"kind":"span","t":1,"span":"query","id":2,"parent":1,)"
      R"("host":10,"peer":0,"timeouts":0,"lost":0,"bytes":80,"dur_s":0,)"
      R"("ok":true)";
  const std::string arrive =
      R"({"v":6,"kind":"flow_arrive","t":1,"flow":3,"src":10,"dst":18,)"
      R"("path":0)";
  const std::string snapshot =
      R"({"v":6,"kind":"snapshot","t":1,"seq":4,"elephants":0)";
  const auto u32 = [](const char* name) {
    return "field \"" + std::string(name) + "\" must be an integer in [0, 2^32)";
  };
  const auto u64 = [](const char* name) {
    return "field \"" + std::string(name) + "\" must be an integer in [0, 2^64)";
  };
  const std::pair<std::string, std::string> cases[] = {
      {query + R"(,"attempts":1e10})", u32("attempts")},
      {query + R"(,"attempts":-1})", u32("attempts")},
      {query + R"(,"attempts":1.5})", u32("attempts")},
      {query + R"(,"attempts":4294967296})", u32("attempts")},
      {query + R"(,"attempts":1,"peer":-4})", u32("peer")},
      {query + R"(,"attempts":1,"host":1e300})", u32("host")},
      {query + R"(,"attempts":1,"id":-1})", u64("id")},
      {query + R"(,"attempts":1,"parent":0.25})", u64("parent")},
      {query + R"(,"attempts":1,"bytes":18446744073709551616})", u64("bytes")},
      {arrive + R"(,"size":-1})", u64("size")},
      {arrive + R"(,"size":1e30})", u64("size")},
      {arrive + R"(,"size":1,"flow":-0.5})", u32("flow")},
      {snapshot + R"(,"flows":2.5})", u64("flows")},
      {snapshot + R"(,"queue_depth":-3})", u64("queue_depth")},
      {R"({"v":1e10,"kind":"flow_elephant","t":1,"flow":0,"path":0})",
       "unsupported trace schema version 1e+10 (this dardscope reads versions "
       "2..6; re-run dardsim to regenerate the trace)"},
  };
  const std::string path = testing::TempDir() + "/hostile_integers.jsonl";
  const std::string first = read_lines("trace_corpus.jsonl").front();
  for (const auto& [line, error] : cases) {
    SCOPED_TRACE(line);
    {
      std::ofstream out(path);
      out << first << '\n' << line << '\n';
    }
    scope::RunData run;
    std::string got;
    EXPECT_FALSE(scope::load_run(path, &run, &got));
    EXPECT_EQ(got, path + ":2: " + error);
    obs::TraceEvent e;
    std::string want;
    EXPECT_FALSE(codec_ref::parse_trace_line(line, &e, &want));
    EXPECT_EQ(want, error);
  }

  // At the bounds, and spelled with an exponent, they read.
  obs::TraceEvent e;
  std::string error;
  ASSERT_TRUE(scope::parse_trace_line(query + R"(,"attempts":4294967295})",
                                      &e, &error))
      << error;
  EXPECT_EQ(e.span_attempts, 4294967295u);
  ASSERT_TRUE(scope::parse_trace_line(
      query + R"(,"attempts":1e3,"id":18446744073709549568})", &e, &error))
      << error;
  EXPECT_EQ(e.span_attempts, 1000u);
  EXPECT_EQ(e.cause_id, 18446744073709549568u);
}

TEST(ReaderFuzz, JsonDocumentsParseAsTheReferenceParserDoes) {
  std::vector<std::string> corpus = read_lines("trace_corpus.jsonl");
  corpus.push_back(read_file("manifest.json"));
  corpus.push_back(read_file("fault_plan.json"));
  Mutator m(kSeed + 1, corpus);
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = m.next();
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " + text.substr(0, 300));
    std::string got_error, want_error;
    const auto got = json::parse(text, &got_error);
    const auto want = codec_ref::parse(text, &want_error);
    if (got == nullptr && is_depth_error(got_error)) {
      ASSERT_FALSE(shallow(text));
      continue;
    }
    ASSERT_EQ(got != nullptr, want != nullptr) << got_error << " | "
                                               << want_error;
    if (got != nullptr) {
      ++accepted;
      EXPECT_TRUE(same_value(*got, *want));
    } else {
      EXPECT_EQ(got_error, want_error);
    }
  }
  EXPECT_GT(accepted, 200u);
}

TEST(ReaderFuzz, FaultPlansFailCleanly) {
  const std::string plan = read_file("fault_plan.json");
  std::string error;
  ASSERT_TRUE(faults::FaultPlan::parse_json(plan, &error).has_value()) << error;
  Mutator m(kSeed + 2, {plan});
  std::size_t rejected = 0;
  for (int i = 0; i < kIterations / 2; ++i) {
    error.clear();
    if (!faults::FaultPlan::parse_json(m.next(), &error)) {
      ++rejected;
      EXPECT_FALSE(error.empty());
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ReaderFuzz, LinkSampleRowsKeepTheirMalformedRowRule) {
  const std::vector<std::string> corpus = read_lines("link_samples.csv");
  Mutator m(kSeed + 3, corpus);
  for (int i = 0; i < kIterations; ++i) {
    const std::string row = m.next();
    SCOPED_TRACE(row);
    scope::LinkSample s;
    const bool ok = scope::parse_link_sample_row(row, &s);
    // The rule the stream-based reader applied: at least 7 cells, and a
    // first cell that starts like a number.
    std::vector<std::string> cells;
    std::istringstream in(row);
    for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
    if (!row.empty() && row.back() == ',') cells.emplace_back();
    const bool want_ok =
        cells.size() >= 7 && !cells[0].empty() &&
        (std::isdigit(static_cast<unsigned char>(cells[0][0])) != 0 ||
         cells[0][0] == '-' || cells[0][0] == '.');
    ASSERT_EQ(ok, want_ok);
    if (ok) {
      EXPECT_EQ(s.src, cells[2]);
      EXPECT_EQ(s.dst, cells[3]);
    }
  }
}

}  // namespace
}  // namespace dard
