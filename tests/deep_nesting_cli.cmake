# Writes a trace file and a fault plan that each hold 1,000,000 '[' and
# checks that `dardscope report` exits 1 and `dardsim --faults=FILE` exits
# 2, both naming the nesting limit (a stack overflow would exit by signal).
#
#   cmake -DDARDSIM=... -DDARDSCOPE=... -DWORK_DIR=... -P deep_nesting_cli.cmake
string(REPEAT "[" 1000000 deep)
set(trace "${WORK_DIR}/deep_nesting_trace.jsonl")
set(plan "${WORK_DIR}/deep_nesting_plan.json")
file(WRITE "${trace}" "${deep}\n")
file(WRITE "${plan}" "${deep}")

execute_process(COMMAND "${DARDSCOPE}" report "${trace}"
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "nesting deeper than 64")
  message(FATAL_ERROR "dardscope report: exit '${rc}', stderr: ${err}")
endif()

execute_process(COMMAND "${DARDSIM}" --size=4 --duration=1 "--faults=${plan}"
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "nesting deeper than 64")
  message(FATAL_ERROR "dardsim --faults: exit '${rc}', stderr: ${err}")
endif()

file(REMOVE "${trace}" "${plan}")
