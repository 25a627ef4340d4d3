# Fault plans that name nodes or cables the fabric lacks: dardsim must exit
# 2 with `invalid --faults: ...` naming the node or cable (it used to abort
# in the injector). Covers the fat-tree presets on leaf-spine on both
# substrates, and JSON plans with an unknown node, a missing cable and a
# switch fault on a host.
#
#   cmake -DDARDSIM=... -DWORK_DIR=... -P fault_plan_cli.cmake
function(expect_rejected want)
  execute_process(COMMAND "${DARDSIM}" --duration=1 ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "invalid --faults: .*${want}")
    message(FATAL_ERROR "dardsim ${ARGN}: exit '${rc}', stderr: ${err}")
  endif()
endfunction()

foreach(substrate fluid packet)
  foreach(preset link-flap switch-outage chaos)
    expect_rejected("'agg0_0'" --topo=leafspine --substrate=${substrate}
                    --faults=${preset})
  endforeach()
endforeach()

set(unknown "${WORK_DIR}/fault_plan_unknown_node.json")
set(cable "${WORK_DIR}/fault_plan_missing_cable.json")
set(host "${WORK_DIR}/fault_plan_switch_on_host.json")
file(WRITE "${unknown}"
     [[{"links": [{"time": 1, "a": "agg0_0", "b": "corX", "fail": true}]}]])
file(WRITE "${cable}"
     [[{"links": [{"time": 1, "a": "agg0_0", "b": "core5", "fail": true}]}]])
file(WRITE "${host}"
     [[{"switches": [{"time": 1, "node": "host0_0", "fail": true}]}]])
expect_rejected("'corX'" --size=8 "--faults=${unknown}")
expect_rejected("agg0_0-core5" --size=8 "--faults=${cable}")
expect_rejected("host 'host0_0'" --size=8 "--faults=${host}")
file(REMOVE "${unknown}" "${cable}" "${host}")
