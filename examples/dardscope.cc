// dardscope — offline trace-analysis toolkit for dardsim runs (DESIGN.md
// §12). Loads a --run-dir (manifest + trace + metrics + samples) or a bare
// JSONL trace and answers the questions the raw artifacts only imply: what
// happened to each flow and why (causal decision tracing), how fast DARD
// converged and whether it oscillated, how much the paths churned, how hot
// the links ran, what the control plane cost — and, for two runs, what
// changed between them.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "scope/live.h"
#include "scope/report.h"

using namespace dard;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dardscope <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  report RUN            analyze one run: flow timelines, causal-link\n"
      "                        audit, convergence diagnostics, path churn,\n"
      "                        link utilization, control overhead\n"
      "  flow RUN FLOW_ID      one flow's timeline in detail, each move\n"
      "                        annotated with the round that caused it\n"
      "  diff RUN_A RUN_B      A/B comparison: metric deltas and per-flow\n"
      "                        completion-time regressions\n"
      "  spans RUN             control-plane span report (dardsim --spans):\n"
      "                        per-daemon span activity, slowest\n"
      "                        refresh->move chains, control-byte hotlinks;\n"
      "                        exits 1 on any dangling span id\n"
      "  live RUN              tail a run that is still being written and\n"
      "                        refresh the report metrics incrementally;\n"
      "                        exits when the run's manifest.json lands\n"
      "\n"
      "RUN is a directory written by dardsim --run-dir (preferred; all\n"
      "analyses available) or a bare trace.jsonl (trace-only analyses).\n"
      "\n"
      "options:\n"
      "  --md=FILE             additionally write the report as markdown\n"
      "  --window=K            oscillation window in moves (default 4)\n"
      "  --top=N               regressions to list in diff (default 10)\n"
      "\n"
      "live options:\n"
      "  --once                one pass over what exists now, then exit 0\n"
      "  --interval=S          poll/refresh period in wall seconds "
      "(default 1)\n"
      "  --summary-out=FILE    append one summary JSON line per refresh\n"
      "  --help                show this message\n");
}

bool parse_size(const char* v, std::size_t* out) {
  if (v == nullptr || *v == '\0' || *v == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<std::size_t>(parsed);
  return true;
}

struct Options {
  std::string subcommand;
  std::vector<std::string> positional;
  std::string md_path;
  std::size_t window = 4;
  std::size_t top = 10;
  bool once = false;
  double interval = 1.0;
  std::string summary_out;
  bool help = false;
};

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.size() > std::strlen(prefix) &&
                     arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* v = value("--md=")) {
      opt->md_path = v;
    } else if (const char* v = value("--window=")) {
      if (!parse_size(v, &opt->window) || opt->window == 0) {
        std::fprintf(stderr,
                     "invalid --window: %s (valid: an integer >= 1)\n", v);
        return false;
      }
    } else if (const char* v = value("--top=")) {
      if (!parse_size(v, &opt->top)) {
        std::fprintf(stderr,
                     "invalid --top: %s (valid: a non-negative integer)\n",
                     v);
        return false;
      }
    } else if (const char* v = value("--interval=")) {
      char* end = nullptr;
      errno = 0;
      opt->interval = std::strtod(v, &end);
      if (errno != 0 || end == nullptr || *end != '\0' ||
          opt->interval <= 0) {
        std::fprintf(stderr,
                     "invalid --interval: %s (valid: a number > 0)\n", v);
        return false;
      }
    } else if (const char* v = value("--summary-out=")) {
      opt->summary_out = v;
    } else if (arg == "--once") {
      opt->once = true;
    } else if (arg == "--help" || arg == "-h") {
      opt->help = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg.c_str());
      print_usage(stderr);
      return false;
    } else if (opt->subcommand.empty()) {
      opt->subcommand = arg;
    } else {
      opt->positional.push_back(arg);
    }
  }
  return true;
}

bool load_or_die(const std::string& path, scope::RunData* run) {
  std::string error;
  if (!scope::load_run(path, run, &error)) {
    std::fprintf(stderr, "dardscope: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Opens --md output; returns false (with a message) when unwritable.
bool write_md(const std::string& path,
              const std::function<void(std::ostream&)>& render) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open markdown file: %s\n", path.c_str());
    return false;
  }
  render(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  if (opt.help || opt.subcommand.empty()) {
    print_usage(opt.help ? stdout : stderr);
    return opt.help ? 0 : 2;
  }

  if (opt.subcommand == "report") {
    if (opt.positional.size() != 1) {
      std::fprintf(stderr, "usage: dardscope report RUN [--md=FILE]\n");
      return 2;
    }
    scope::RunData run(opt.window);
    if (!load_or_die(opt.positional[0], &run)) return 1;
    const auto report = scope::build_report(run);
    scope::write_text(std::cout, report);
    if (!opt.md_path.empty() &&
        !write_md(opt.md_path,
                  [&](std::ostream& os) { scope::write_markdown(os, report); }))
      return 1;
    // A broken causal chain means the trace contradicts itself; make the
    // run fail loudly so CI catches it.
    return report.causes.clean() ? 0 : 1;
  }

  if (opt.subcommand == "flow") {
    // Flow ids are 32-bit, so a larger id is refused rather than cut to
    // another flow's id.
    std::size_t flow = 0;
    if (opt.positional.size() != 2 ||
        !parse_size(opt.positional[1].c_str(), &flow) ||
        flow > UINT32_MAX) {
      std::fprintf(stderr, "usage: dardscope flow RUN FLOW_ID\n");
      return 2;
    }
    scope::RunData run;
    if (!load_or_die(opt.positional[0], &run)) return 1;
    const auto it = run.timelines.find(static_cast<std::uint32_t>(flow));
    if (it == run.timelines.end()) {
      std::fprintf(stderr, "flow %zu does not appear in %s\n", flow,
                   opt.positional[0].c_str());
      return 1;
    }
    scope::write_flow_text(std::cout, it->second);
    return 0;
  }

  if (opt.subcommand == "diff") {
    if (opt.positional.size() != 2) {
      std::fprintf(stderr, "usage: dardscope diff RUN_A RUN_B [--md=FILE]\n");
      return 2;
    }
    scope::RunData a;
    scope::RunData b;
    if (!load_or_die(opt.positional[0], &a) ||
        !load_or_die(opt.positional[1], &b))
      return 1;
    const auto diff = scope::diff_runs(a, b, opt.top);
    scope::write_diff_text(std::cout, a, b, diff);
    if (!opt.md_path.empty() &&
        !write_md(opt.md_path, [&](std::ostream& os) {
          scope::write_diff_markdown(os, a, b, diff);
        }))
      return 1;
    return 0;
  }

  if (opt.subcommand == "spans") {
    if (opt.positional.size() != 1) {
      std::fprintf(stderr,
                   "usage: dardscope spans RUN [--md=FILE] [--top=N]\n");
      return 2;
    }
    scope::RunData run;
    if (!load_or_die(opt.positional[0], &run)) return 1;
    const auto spans = scope::build_spans_report(run, opt.top);
    scope::write_spans_text(std::cout, spans);
    if (!opt.md_path.empty() &&
        !write_md(opt.md_path, [&](std::ostream& os) {
          scope::write_spans_markdown(os, spans);
        }))
      return 1;
    // A dangling span id means the causal chain contradicts itself; fail
    // loudly so CI catches a broken emitter.
    return spans.audit.clean() ? 0 : 1;
  }

  if (opt.subcommand == "live") {
    if (opt.positional.size() != 1) {
      std::fprintf(stderr,
                   "usage: dardscope live RUN [--once] [--interval=S] "
                   "[--summary-out=FILE] [--window=K]\n");
      return 2;
    }
    scope::LiveOptions live;
    live.path = opt.positional[0];
    live.once = opt.once;
    live.interval_s = opt.interval;
    live.window = opt.window;
    live.summary_out = opt.summary_out;
    // Clear-and-redraw only when a human is watching and the view refreshes.
    live.ansi = !opt.once && isatty(fileno(stdout)) != 0;
    return scope::run_live(live, std::cout);
  }

  std::fprintf(stderr,
               "unknown subcommand: %s (valid: report, flow, diff, spans, "
               "live)\n",
               opt.subcommand.c_str());
  return 2;
}
