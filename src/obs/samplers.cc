#include "obs/samplers.h"

#include <algorithm>

#include "common/check.h"
#include "common/numtext.h"

namespace dard::obs {

void TimeSeries::write_link_csv(std::ostream& os, bool include_idle) const {
  os << "time,link,src,dst,capacity_bps,used_bps,utilization\n";
  // A link is "interesting" if any sample saw traffic on it.
  std::vector<bool> interesting(links.size(), include_idle);
  if (!include_idle) {
    for (const LinkSample& s : link_samples)
      for (std::size_t l = 0; l < s.utilization.size(); ++l)
        if (s.utilization[l] > 0) interesting[l] = true;
  }
  // Each row is rendered with numtext (the text `os << v` prints) into one
  // reused buffer and handed to the stream in one write.
  std::string row;
  for (const LinkSample& s : link_samples) {
    for (std::size_t l = 0; l < s.utilization.size(); ++l) {
      if (!interesting[l]) continue;
      const LinkMeta& meta = links[l];
      row.clear();
      numtext::append_double(row, s.time);
      row += ',';
      numtext::append_int(row, l);
      row += ',';
      row += meta.src;
      row += ',';
      row += meta.dst;
      row += ',';
      numtext::append_double(row, meta.capacity);
      row += ',';
      numtext::append_double(row, s.utilization[l] * meta.capacity);
      row += ',';
      numtext::append_double(row, s.utilization[l]);
      row += '\n';
      os.write(row.data(), static_cast<std::streamsize>(row.size()));
    }
  }
}

void TimeSeries::write_aggregate_csv(std::ostream& os) const {
  os << "time,active_flows,active_elephants,throughput_bps,max_utilization\n";
  std::string row;
  for (const AggregateSample& s : aggregate_samples) {
    row.clear();
    numtext::append_double(row, s.time);
    row += ',';
    numtext::append_int(row, s.active_flows);
    row += ',';
    numtext::append_int(row, s.active_elephants);
    row += ',';
    numtext::append_double(row, s.throughput_bps);
    row += ',';
    numtext::append_double(row, s.max_utilization);
    row += '\n';
    os.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

TimeSeriesSampler::TimeSeriesSampler(flowsim::FlowSimulator& sim,
                                     Seconds period)
    : sim_(&sim), period_(period) {
  DCN_CHECK_MSG(period > 0, "sample period must be positive");
  const topo::Topology& t = sim.topology();
  data_.links.reserve(t.link_count());
  for (const topo::Link& l : t.links()) {
    data_.links.push_back(LinkMeta{t.node(l.src).name, t.node(l.dst).name,
                                   l.capacity, t.is_switch_switch(l.id)});
  }
}

void TimeSeriesSampler::start() {
  sim_->events().schedule(sim_->now(), [this] { tick(); });
}

void TimeSeriesSampler::sample_now() {
  const Seconds now = sim_->now();

  sim_->link_loads(&load_scratch_);
  LinkSample link_sample;
  link_sample.time = now;
  link_sample.utilization.resize(load_scratch_.size());
  double max_util = 0;
  double throughput = 0;
  for (std::size_t l = 0; l < load_scratch_.size(); ++l) {
    // Effective capacity (failed links collapse to ~0) keeps utilization a
    // meaningful fraction even mid-failure.
    const Bps cap = sim_->link_state().capacity(LinkId(
        static_cast<LinkId::value_type>(l)));
    const double util =
        cap > 0 ? std::min(load_scratch_[l] / cap, 1.0) : 0.0;
    link_sample.utilization[l] = util;
    max_util = std::max(max_util, util);
  }
  for (const FlowId id : sim_->active_flows())
    throughput += sim_->rate_of(id);

  AggregateSample agg;
  agg.time = now;
  agg.active_flows = sim_->active_flows().size();
  agg.active_elephants = sim_->active_elephants();
  agg.throughput_bps = throughput;
  agg.max_utilization = max_util;

  data_.link_samples.push_back(std::move(link_sample));
  data_.aggregate_samples.push_back(agg);
}

void TimeSeriesSampler::tick() {
  sample_now();
  sim_->events().schedule(sim_->now() + period_, [this] { tick(); });
}

}  // namespace dard::obs
