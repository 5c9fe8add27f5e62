# Regenerate one committed experiment CSV and byte-compare it.
#
#   cmake -DBENCH=<bench binary> -DWORK_DIR=<scratch dir> \
#         -DEXPECTED=<committed csv> -P golden_csv.cmake
#
# The bench writes its CSV into its working directory, so it runs in a
# freshly emptied WORK_DIR; its stdout/stderr stay there for inspection.
foreach(var BENCH WORK_DIR EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_csv.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_FILE "${WORK_DIR}/stderr.txt"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc} (output in ${WORK_DIR})")
endif()

get_filename_component(csv_name "${EXPECTED}" NAME)
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${WORK_DIR}/${csv_name}"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/${csv_name} differs from the committed ${EXPECTED}")
endif()
