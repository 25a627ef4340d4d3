// Umbrella header: the DARD system and the substrates it runs on.
//
// Quickstart:
//   auto topo = dard::topo::build_fat_tree({.p = 8});
//   dard::flowsim::FlowSimulator sim(topo);
//   dard::core::DardAgent agent;
//   sim.set_agent(&agent);
//   dard::traffic::WorkloadParams workload;  // pattern, rate, flow size
//   for (auto& spec : dard::traffic::generate_workload(topo, workload))
//     sim.submit(spec);
//   sim.run_until_flows_done();
//   // sim.records() now holds every flow's transfer time and path switches.
#pragma once

#include "addressing/hierarchical.h"
#include "addressing/name_service.h"
#include "dard/config.h"
#include "dard/dard_agent.h"
#include "dard/host_daemon.h"
#include "dard/monitor.h"
#include "fabric/controller.h"
#include "fabric/switch_state.h"
#include "flowsim/simulator.h"
#include "topology/builders.h"
#include "topology/paths.h"
#include "traffic/patterns.h"
