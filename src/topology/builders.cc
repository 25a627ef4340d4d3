#include "topology/builders.h"

#include <sstream>
#include <vector>

namespace dard::topo {

int fat_tree_inter_pod_paths(int p) { return (p / 2) * (p / 2); }
int clos_inter_pod_paths(int d_a) { return 2 * d_a; }

namespace {

// Effective per-uplink capacity of aggregation uplink ordinal `u`.
Bps core_capacity_at(const FatTreeParams& params, int u) {
  if (params.core_capacities.empty()) return params.link_capacity;
  return params.core_capacities[static_cast<std::size_t>(u) %
                                params.core_capacities.size()];
}

Bps spine_capacity_at(const LeafSpineParams& params, int s) {
  if (params.spine_capacities.empty()) return 4 * kGbps;
  return params.spine_capacities[static_cast<std::size_t>(s) %
                                 params.spine_capacities.size()];
}

}  // namespace

std::string validate_fat_tree(const FatTreeParams& params) {
  std::ostringstream err;
  const int half = params.p / 2;
  if (params.p < 4 || params.p % 2 != 0) {
    err << "fat-tree p must be an even integer >= 4 (got " << params.p << ")";
    return err.str();
  }
  if (params.hosts_per_tor == 0 || params.hosts_per_tor < -1) {
    err << "fat-tree hosts_per_tor must be >= 1 or -1 for the default (got "
        << params.hosts_per_tor << ")";
    return err.str();
  }
  if (params.link_capacity <= 0 || params.host_capacity < 0 ||
      params.tor_agg_capacity < 0) {
    err << "fat-tree link capacities must be positive (0 = default only for "
           "the per-tier overrides)";
    return err.str();
  }
  for (const Bps c : params.core_capacities)
    if (c <= 0) {
      err << "fat-tree core_capacities entries must all be positive";
      return err.str();
    }
  const int uplinks =
      params.uplinks_per_agg < 0 ? half : params.uplinks_per_agg;
  if (uplinks < 1 || uplinks > half) {
    err << "fat-tree uplinks_per_agg must be in [1, p/2] = [1, " << half
        << "] (got " << params.uplinks_per_agg << ")";
    return err.str();
  }
  // Uplink ordinal u takes entry u, so entries past the last uplink would
  // be dropped without a word (a speed skew on a fabric too thin for it).
  if (params.core_capacities.size() > static_cast<std::size_t>(uplinks)) {
    err << "fat-tree core_capacities has " << params.core_capacities.size()
        << " entries but uplinks_per_agg is " << uplinks
        << ", so the extra entries would never be used";
    return err.str();
  }
  if (params.stripped_pods < 0 || params.stripped_pods >= params.p) {
    err << "fat-tree stripped_pods must be in [0, p) = [0, " << params.p
        << ") so every core keeps an unstripped pod (got "
        << params.stripped_pods << ")";
    return err.str();
  }
  const int stripped = params.stripped_pod_uplinks < 0
                           ? uplinks
                           : params.stripped_pod_uplinks;
  if (params.stripped_pods > 0 && (stripped < 1 || stripped > uplinks)) {
    err << "fat-tree stripped_pod_uplinks must be in [1, uplinks_per_agg] = "
           "[1, "
        << uplinks << "] (got " << params.stripped_pod_uplinks << ")";
    return err.str();
  }
  return {};
}

double fat_tree_agg_oversubscription(const FatTreeParams& params) {
  const int half = params.p / 2;
  const int uplinks =
      params.uplinks_per_agg < 0 ? half : params.uplinks_per_agg;
  const Bps down_each = params.tor_agg_capacity > 0 ? params.tor_agg_capacity
                                                    : params.link_capacity;
  Bps up = 0;
  for (int u = 0; u < uplinks; ++u) up += core_capacity_at(params, u);
  return (half * down_each) / up;
}

Topology build_fat_tree(const FatTreeParams& params) {
  DCN_CHECK_MSG(validate_fat_tree(params).empty(),
                "invalid fat-tree params (see validate_fat_tree)");
  const int p = params.p;
  const int hosts_per_tor = params.hosts_per_tor < 0 ? p / 2
                                                     : params.hosts_per_tor;
  const int half = p / 2;
  const int uplinks =
      params.uplinks_per_agg < 0 ? half : params.uplinks_per_agg;
  const int stripped_uplinks = params.stripped_pod_uplinks < 0
                                   ? uplinks
                                   : params.stripped_pod_uplinks;
  const Bps host_cap =
      params.host_capacity > 0 ? params.host_capacity : params.link_capacity;
  const Bps tor_agg_cap = params.tor_agg_capacity > 0 ? params.tor_agg_capacity
                                                      : params.link_capacity;

  Topology t;

  // Cores first: core index c in [0, (p/2) * uplinks); core c is reachable
  // from aggregation switch (c / uplinks) of every unstripped pod, on that
  // switch's uplink (c % uplinks). With the default uplinks = p/2 this is
  // the classic (p/2)^2 core plane under identical numbering.
  std::vector<NodeId> cores;
  cores.reserve(static_cast<std::size_t>(half) * uplinks);
  for (int c = 0; c < half * uplinks; ++c)
    cores.push_back(t.add_node(NodeKind::Core, -1, c));

  for (int pod = 0; pod < p; ++pod) {
    const int pod_uplinks =
        pod < params.stripped_pods ? stripped_uplinks : uplinks;
    std::vector<NodeId> aggs, tors;
    for (int a = 0; a < half; ++a) aggs.push_back(t.add_node(NodeKind::Agg, pod, a));
    for (int r = 0; r < half; ++r) tors.push_back(t.add_node(NodeKind::Tor, pod, r));

    for (int a = 0; a < half; ++a) {
      // Full bipartite ToR <-> Agg inside the pod.
      for (int r = 0; r < half; ++r)
        t.add_cable(tors[r], aggs[a], tor_agg_cap, params.link_delay);
      // Agg a uplinks to cores [a*uplinks, a*uplinks + pod_uplinks); a
      // stripped pod keeps the prefix of its core group, so stripped pairs
      // still share cores with everyone.
      for (int u = 0; u < pod_uplinks; ++u)
        t.add_cable(aggs[a], cores[static_cast<std::size_t>(a) * uplinks + u],
                    core_capacity_at(params, u), params.link_delay);
    }
    for (int r = 0; r < half; ++r) {
      for (int h = 0; h < hosts_per_tor; ++h) {
        const NodeId host = t.add_node(NodeKind::Host, pod, r * hosts_per_tor + h);
        t.add_cable(host, tors[r], host_cap, params.link_delay);
      }
    }
  }
  return t;
}

Topology build_clos(const ClosParams& params) {
  const int d_i = params.d_i;
  const int d_a = params.d_a;
  DCN_CHECK_MSG(d_i >= 2 && d_a >= 2 && d_a % 2 == 0,
                "Clos requires d_i >= 2 and even d_a >= 2");
  const int intermediates = d_a / 2;
  const int tor_count = d_i * d_a / 4;
  const int pods = d_i / 2;  // ToRs sharing an aggregation pair form a pod

  Topology t;

  std::vector<NodeId> inters;
  for (int i = 0; i < intermediates; ++i)
    inters.push_back(t.add_node(NodeKind::Core, -1, i));

  // Aggregation switch a belongs to pod a/2 (pods are pairs of adjacent
  // aggregation switches).
  std::vector<NodeId> aggs;
  for (int a = 0; a < d_i; ++a)
    aggs.push_back(t.add_node(NodeKind::Agg, a / 2, a % 2));

  for (int a = 0; a < d_i; ++a)
    for (int i = 0; i < intermediates; ++i)
      t.add_cable(aggs[a], inters[i], params.link_capacity, params.link_delay);

  // ToR r dual-homes to the aggregation pair of pod (r % pods); its index
  // within the pod is r / pods.
  for (int r = 0; r < tor_count; ++r) {
    const int pod = r % pods;
    const NodeId tor = t.add_node(NodeKind::Tor, pod, r / pods);
    t.add_cable(tor, aggs[static_cast<std::size_t>(2) * pod],
                params.link_capacity, params.link_delay);
    t.add_cable(tor, aggs[static_cast<std::size_t>(2) * pod + 1],
                params.link_capacity, params.link_delay);
    for (int h = 0; h < params.hosts_per_tor; ++h) {
      const NodeId host =
          t.add_node(NodeKind::Host, pod, (r / pods) * params.hosts_per_tor + h);
      t.add_cable(host, tor, params.link_capacity, params.link_delay);
    }
  }
  return t;
}

Topology build_three_tier(const ThreeTierParams& params) {
  Topology t;

  std::vector<NodeId> cores;
  for (int c = 0; c < params.cores; ++c)
    cores.push_back(t.add_node(NodeKind::Core, -1, c));

  for (int pod = 0; pod < params.pods; ++pod) {
    const NodeId agg0 = t.add_node(NodeKind::Agg, pod, 0);
    const NodeId agg1 = t.add_node(NodeKind::Agg, pod, 1);
    for (const NodeId agg : {agg0, agg1})
      for (const NodeId core : cores)
        t.add_cable(agg, core, params.agg_up, params.link_delay);

    for (int acc = 0; acc < params.access_per_pod; ++acc) {
      const NodeId access = t.add_node(NodeKind::Tor, pod, acc);
      t.add_cable(access, agg0, params.access_up, params.link_delay);
      t.add_cable(access, agg1, params.access_up, params.link_delay);
      for (int h = 0; h < params.hosts_per_access; ++h) {
        const NodeId host =
            t.add_node(NodeKind::Host, pod, acc * params.hosts_per_access + h);
        t.add_cable(host, access, params.host_link, params.link_delay);
      }
    }
  }
  return t;
}

std::string validate_leaf_spine(const LeafSpineParams& params) {
  std::ostringstream err;
  if (params.leaves < 2) {
    err << "leaf-spine needs at least 2 leaves (got " << params.leaves << ")";
    return err.str();
  }
  if (params.spines < 1) {
    err << "leaf-spine needs at least 1 spine (got " << params.spines << ")";
    return err.str();
  }
  if (params.hosts_per_leaf < 1) {
    err << "leaf-spine hosts_per_leaf must be >= 1 (got "
        << params.hosts_per_leaf << ")";
    return err.str();
  }
  if (params.host_capacity <= 0) {
    err << "leaf-spine host_capacity must be positive";
    return err.str();
  }
  for (const Bps c : params.spine_capacities)
    if (c <= 0) {
      err << "leaf-spine spine_capacities entries must all be positive";
      return err.str();
    }
  if (params.spine_capacities.size() >
      static_cast<std::size_t>(params.spines)) {
    err << "leaf-spine spine_capacities has " << params.spine_capacities.size()
        << " entries but spines is " << params.spines
        << ", so the extra entries would never be used";
    return err.str();
  }
  if (params.stripped_leaves < 0 || params.stripped_leaves > params.leaves) {
    err << "leaf-spine stripped_leaves must be in [0, leaves] = [0, "
        << params.leaves << "] (got " << params.stripped_leaves << ")";
    return err.str();
  }
  const int stripped_uplinks = params.stripped_leaf_uplinks < 0
                                   ? params.spines
                                   : params.stripped_leaf_uplinks;
  if (params.stripped_leaves > 0 &&
      (stripped_uplinks < 1 || stripped_uplinks > params.spines)) {
    err << "leaf-spine stripped_leaf_uplinks must be in [1, spines] = [1, "
        << params.spines << "] (got " << params.stripped_leaf_uplinks << ")";
    return err.str();
  }
  return {};
}

Topology build_leaf_spine(const LeafSpineParams& params) {
  DCN_CHECK_MSG(validate_leaf_spine(params).empty(),
                "invalid leaf-spine params (see validate_leaf_spine)");
  const int stripped_uplinks = params.stripped_leaf_uplinks < 0
                                   ? params.spines
                                   : params.stripped_leaf_uplinks;

  Topology t;

  // Spines are core-layer switches; leaves are ToR-layer and cable straight
  // to them, so every leaf <-> spine link spans layers 1 -> 3 (no ±1-layer
  // fast path in the path generator). Each leaf is its own pod: traffic
  // patterns that stride "one pod ahead" then always cross the fabric.
  std::vector<NodeId> spines;
  for (int s = 0; s < params.spines; ++s)
    spines.push_back(t.add_node(NodeKind::Core, -1, s));

  for (int l = 0; l < params.leaves; ++l) {
    const NodeId leaf = t.add_node(NodeKind::Tor, l, 0);
    // Stripped leaves keep the prefix of the spine set, so any two leaves
    // always share at least spine 0 (connectivity) while stripped pairs see
    // a narrower path set.
    const int uplinks =
        l < params.stripped_leaves ? stripped_uplinks : params.spines;
    for (int s = 0; s < uplinks; ++s)
      t.add_cable(leaf, spines[static_cast<std::size_t>(s)],
                  spine_capacity_at(params, s), params.link_delay);
    for (int h = 0; h < params.hosts_per_leaf; ++h) {
      const NodeId host = t.add_node(NodeKind::Host, l, h);
      t.add_cable(host, leaf, params.host_capacity, params.link_delay);
    }
  }
  return t;
}

}  // namespace dard::topo
