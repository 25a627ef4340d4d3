#include "scope/live.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/manifest.h"
#include "scope/run_loader.h"
#include "scope/trace_load.h"

namespace dard::scope {

namespace fs = std::filesystem;

std::size_t LineTailer::poll(const std::function<void(const std::string&)>& fn,
                             bool flush) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;
  // Detect truncation/rotation before seeking: a file shorter than the
  // saved offset cannot contain the bytes the offset points past, so the
  // buffered partial line is from a dead file and must not leak into the
  // replacement's first line.
  std::error_code size_ec;
  const auto size = std::filesystem::file_size(path_, size_ec);
  if (!size_ec && size < offset_) {
    offset_ = 0;
    partial_.clear();
  }
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) return 0;

  std::size_t lines = 0;
  char buf[65536];
  for (;;) {
    in.read(buf, sizeof(buf));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    offset_ += static_cast<std::uint64_t>(got);
    std::size_t start = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
      if (buf[i] != '\n') continue;
      partial_.append(buf + start, i - start);
      fn(partial_);
      partial_.clear();
      ++lines;
      start = i + 1;
    }
    partial_.append(buf + start, static_cast<std::size_t>(got) - start);
  }
  if (flush && !partial_.empty()) {
    fn(partial_);
    partial_.clear();
    ++lines;
  }
  return lines;
}

namespace {

std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_count(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

void write_live_status(std::ostream& os, const StreamingAnalyzer& a,
                       const ControlOverhead& control, bool finished,
                       const std::string& source, std::size_t parse_errors) {
  const auto& t = a.totals();
  os << "dardscope live: " << source << (finished ? " [finished]" : "")
     << '\n';
  os << "trace: " << t.trace_events << " events, " << t.flows_seen
     << " flows (" << t.live_flows << " live, " << t.completed_flows
     << " done), t=" << fmt(t.last_event_time) << " s";
  if (t.fault_events > 0) os << ", " << t.fault_events << " fault transitions";
  if (parse_errors > 0) os << ", " << parse_errors << " unparsable lines";
  os << '\n';

  if (const auto& snap = a.last_snapshot(); snap != nullptr) {
    os << "snapshot #" << snap->seq << ": " << snap->active_flows << " flows, "
       << snap->active_elephants << " elephants, queue depth "
       << snap->event_queue_depth << ", throughput "
       << fmt(snap->throughput_bps / 1e9, 2) << " Gbps, max util "
       << fmt(snap->max_utilization);
    if (snap->rss_bytes > 0)
      os << ", rss " << fmt(snap->rss_bytes / 1048576.0, 1) << " MiB";
    os << '\n';
    for (const obs::ProfileSummary& p : snap->profile) {
      os << "  " << p.section << ": x" << p.count << ", p50 "
         << fmt(p.p50_s * 1e6, 1) << " us, p99 " << fmt(p.p99_s * 1e6, 1)
         << " us, max " << fmt(p.max_s * 1e6, 1) << " us\n";
    }
  }

  const CauseAudit& causes = a.causes();
  const Convergence conv = a.convergence();
  const ChurnSummary churn = a.churn();
  os << "convergence: " << conv.evaluations << " evaluations across "
     << conv.scheduling_instants << " instants, " << conv.moves << " moves";
  if (conv.last_move_time >= 0)
    os << ", last at t=" << fmt(conv.last_move_time) << " s";
  os << '\n';
  os << "oscillations (window " << conv.oscillation_window
     << "): " << conv.oscillations;
  if (!conv.oscillating_flows.empty()) {
    os << " [flows";
    for (const auto f : conv.oscillating_flows) os << ' ' << f;
    os << ']';
  }
  os << '\n';
  os << "churn: " << churn.elephants << " elephants, " << churn.flows_moved
     << " flows moved, " << churn.total_moves << " total moves ("
     << fmt(churn.moves_per_elephant(), 2) << " per elephant)\n";
  os << "causes: " << causes.moves << " moves, " << causes.resolved
     << " resolved, " << causes.dangling << " dangling"
     << (causes.clean() ? "" : " (BROKEN TRACE)") << '\n';

  const UtilizationSummary util = a.utilization();
  if (util.recorded) {
    os << "utilization: " << util.links << " links, " << util.samples
       << " samples, mean " << fmt(util.mean_utilization) << ", peak "
       << fmt(util.peak_utilization) << " on " << util.peak_link << " at t="
       << fmt(util.peak_time) << " s\n";
  }
  if (control.recorded) {
    os << "control: " << fmt_count(control.control_msgs) << " messages, "
       << fmt_count(control.monitor_queries) << " queries, "
       << fmt_count(control.moves_accepted) << " accepted / "
       << fmt_count(control.moves_rejected) << " rejected moves\n";
  }
  if (const SpanAudit& spans = a.spans(); spans.spans > 0) {
    os << "spans: " << spans.spans << " (" << spans.refresh_spans
       << " refresh, " << spans.query_spans << " query, "
       << spans.decision_spans << " decision, " << spans.move_spans
       << " move), " << spans.bytes << " wire bytes, " << spans.dangling
       << " dangling" << (spans.clean() ? "" : " (BROKEN TRACE)") << '\n';
  }
  os.flush();
}

std::string live_summary_json(const StreamingAnalyzer& a, bool finished) {
  const auto& t = a.totals();
  const Convergence conv = a.convergence();
  const ChurnSummary churn = a.churn();
  const UtilizationSummary util = a.utilization();
  std::ostringstream os;
  os << "{\"events\":" << t.trace_events << ",\"flows\":" << t.flows_seen
     << ",\"live_flows\":" << t.live_flows
     << ",\"completed_flows\":" << t.completed_flows
     << ",\"last_event_t\":" << t.last_event_time
     << ",\"snapshots\":" << t.snapshot_events
     << ",\"evaluations\":" << conv.evaluations
     << ",\"instants\":" << conv.scheduling_instants
     << ",\"moves\":" << conv.moves
     << ",\"oscillations\":" << conv.oscillations
     << ",\"elephants\":" << churn.elephants
     << ",\"total_moves\":" << churn.total_moves
     << ",\"moves_per_elephant\":" << churn.moves_per_elephant()
     << ",\"dangling_causes\":" << a.causes().dangling
     << ",\"spans\":" << a.spans().spans
     << ",\"span_bytes\":" << a.spans().bytes
     << ",\"dangling_spans\":" << a.spans().dangling
     << ",\"mean_utilization\":" << util.mean_utilization
     << ",\"peak_utilization\":" << util.peak_utilization
     << ",\"finished\":" << (finished ? "true" : "false") << '}';
  return os.str();
}

int run_live(const LiveOptions& opt, std::ostream& out) {
  std::error_code ec;
  const bool is_dir = fs::is_directory(opt.path, ec);

  std::string trace_path = opt.path;
  std::string samples_path;
  std::string metrics_path;
  std::string manifest_path;
  if (is_dir) {
    const fs::path dir(opt.path);
    // Canonical names: the manifest (which could redirect them) does not
    // exist until the run is over, so live mode follows the names dardsim
    // writes by default.
    trace_path = (dir / harness::kTraceFile).string();
    samples_path = (dir / harness::kLinkSamplesFile).string();
    metrics_path = (dir / harness::kMetricsFile).string();
    manifest_path = (dir / harness::kManifestFile).string();
  }

  if (opt.once && !fs::exists(trace_path, ec)) {
    std::fprintf(stderr, "dardscope live: no trace at %s\n",
                 trace_path.c_str());
    return 2;
  }

  LineTailer trace_tail(trace_path);
  LineTailer samples_tail(samples_path);
  StreamingAnalyzer analyzer(opt.window);
  std::size_t parse_errors = 0;

  std::ofstream summary;
  if (!opt.summary_out.empty()) {
    summary.open(opt.summary_out, std::ios::app);
    if (!summary) {
      std::fprintf(stderr, "dardscope live: cannot open summary file %s\n",
                   opt.summary_out.c_str());
      return 2;
    }
  }

  const auto drain = [&](bool flush) {
    std::size_t new_lines = trace_tail.poll(
        [&](const std::string& line) {
          if (line.empty()) return;
          obs::TraceEvent e;
          std::string error;
          if (parse_trace_line(line, &e, &error)) {
            analyzer.on_event(e);
          } else {
            if (parse_errors == 0)
              std::fprintf(stderr, "dardscope live: %s\n", error.c_str());
            ++parse_errors;
          }
        },
        flush);
    if (!samples_path.empty()) {
      new_lines += samples_tail.poll(
          [&](const std::string& line) {
            LinkSample s;
            // parse_link_sample_row rejects the header row, so tailing from
            // byte 0 needs no special casing.
            if (parse_link_sample_row(line, &s)) analyzer.on_link_sample(s);
          },
          flush);
    }
    return new_lines;
  };

  const auto refresh = [&](const ControlOverhead& control, bool finished) {
    if (opt.ansi) out << "\x1b[2J\x1b[H";
    write_live_status(out, analyzer, control, finished, opt.path,
                      parse_errors);
    if (summary.is_open()) {
      summary << live_summary_json(analyzer, finished) << '\n';
      summary.flush();
    }
  };

  const auto finish = [&]() {
    drain(/*flush=*/true);
    ControlOverhead control;
    if (!metrics_path.empty() && fs::exists(metrics_path, ec)) {
      RunData run;
      std::string error;
      if (load_metrics_file(metrics_path, &run.metrics, &error))
        control = summarize_control(run);
      else
        std::fprintf(stderr, "dardscope live: %s\n", error.c_str());
    }
    refresh(control, /*finished=*/true);
    return 0;
  };

  if (opt.once) return finish();

  std::size_t idle_polls = 0;
  for (;;) {
    const std::size_t new_lines = drain(/*flush=*/false);
    const bool manifest_done =
        !manifest_path.empty() && fs::exists(manifest_path, ec);
    if (new_lines == 0) {
      // A run dir is over when the manifest lands (dardsim writes it last);
      // a bare trace has no such signal, so fall back to an idle limit.
      if (manifest_done) return finish();
      if (manifest_path.empty() && ++idle_polls >= opt.idle_polls_limit)
        return finish();
    } else {
      idle_polls = 0;
      refresh(ControlOverhead{}, /*finished=*/false);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.interval_s));
  }
}

}  // namespace dard::scope
