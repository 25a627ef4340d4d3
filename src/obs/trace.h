// Trace sinks: where structured TraceEvents go.
//
// Two sinks cover the two consumers: JsonlTraceSink streams one JSON object
// per line to any std::ostream (files for offline analysis, stringstreams
// in tests), and RingBufferTraceSink keeps the last N events in memory for
// assertions without touching the filesystem. TraceObserver adapts the
// SimObserver hook interface onto a sink, so wiring tracing into an
// experiment is: sink -> TraceObserver -> FlowSimulator::set_observer.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace dard::obs {

// JSON rendering of one event; only the fields meaningful for the event's
// kind are emitted (see DESIGN.md "Observability" for the schema). Integers
// print exactly and doubles as "%.6g" (common/numtext.h), the text a
// default-formatted std::ostream prints. append_json appends the rendering
// to `out`; to_json returns it.
void append_json(std::string& out, const TraceEvent& e);
[[nodiscard]] std::string to_json(const TraceEvent& e);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& e) = 0;
  virtual void flush() {}
};

// One JSON object per line ("JSON Lines"). The stream must outlive the sink.
// Each event is rendered into one reused buffer and handed to the stream as
// a single write before write() returns; buffering is the stream's.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  void write(const TraceEvent& e) override;
  void flush() override;

  [[nodiscard]] std::size_t written() const { return written_; }

 private:
  std::ostream* out_;
  std::string line_;
  std::size_t written_ = 0;
};

// Keeps the most recent `capacity` events; older ones are overwritten and
// counted as dropped. events() returns them oldest-first.
class RingBufferTraceSink : public TraceSink {
 public:
  explicit RingBufferTraceSink(std::size_t capacity);

  void write(const TraceEvent& e) override;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::vector<TraceEvent> events() const;  // oldest-first
  void clear();

 private:
  std::vector<TraceEvent> buffer_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::size_t dropped_ = 0;
};

// SimObserver that forwards every hook's event to a sink.
class TraceObserver : public SimObserver {
 public:
  explicit TraceObserver(TraceSink& sink) : sink_(&sink) {}

  void on_flow_arrive(const TraceEvent& e) override { sink_->write(e); }
  void on_flow_elephant(const TraceEvent& e) override { sink_->write(e); }
  void on_flow_move(const TraceEvent& e) override { sink_->write(e); }
  void on_flow_complete(const TraceEvent& e) override { sink_->write(e); }
  void on_dard_round(const TraceEvent& e) override { sink_->write(e); }
  void on_fault(const TraceEvent& e) override { sink_->write(e); }
  void on_snapshot(const TraceEvent& e) override { sink_->write(e); }
  void on_span(const TraceEvent& e) override { sink_->write(e); }

 private:
  TraceSink* sink_;
};

}  // namespace dard::obs
