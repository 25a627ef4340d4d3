# Runs `dardscope flow` on the bare corpus trace and checks its flow-id
# bounds: an id past UINT32_MAX is a usage error (exit 2), not the id cut to
# its low 32 bits; UINT32_MAX itself is an id that names no flow here (exit
# 1); flow 0 prints its timeline (exit 0).
#
#   cmake -DDARDSCOPE=... -DTRACE=... -P flow_id_cli.cmake
foreach(id 4294967296 4294967297 18446744073709551615)
  execute_process(COMMAND "${DARDSCOPE}" flow "${TRACE}" ${id}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: dardscope flow" OR
     NOT out STREQUAL "")
    message(FATAL_ERROR
            "dardscope flow ${id}: exit '${rc}', stdout: ${out}stderr: ${err}")
  endif()
endforeach()

execute_process(COMMAND "${DARDSCOPE}" flow "${TRACE}" 4294967295
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "does not appear")
  message(FATAL_ERROR "dardscope flow 4294967295: exit '${rc}', stderr: ${err}")
endif()

execute_process(COMMAND "${DARDSCOPE}" flow "${TRACE}" 0
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" OR NOT out MATCHES "^flow 0: 10 -> 18")
  message(FATAL_ERROR "dardscope flow 0: exit '${rc}', stdout: ${out}"
                      "stderr: ${err}")
endif()
