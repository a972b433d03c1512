# Run BIN with ARGS and compare its stdout byte for byte with GOLDEN,
# keeping the actual output in OUT for a diff when they differ.
#
#   cmake -DBIN=<program> [-DARGS=<a;b>] -DGOLDEN=<file> -DOUT=<file>
#         -P check_golden.cmake
#
# A change that alters what a paper artifact prints updates its golden
# file in the same diff.
cmake_minimum_required(VERSION 3.16)

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BIN}" ${ARGS}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} failed: ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}"
                        " (actual output: ${OUT})")
endif()
