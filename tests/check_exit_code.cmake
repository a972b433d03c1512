# Run BIN with ARGS and require exit status EXPECT and a stderr that
# matches STDERR_REGEX. A signal, or any other status, fails.
#
#   cmake -DBIN=<program> [-DARGS=<a;b>] -DEXPECT=<n>
#         -DSTDERR_REGEX=<regex> -P check_exit_code.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${BIN}" ${ARGS}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}', expected "
                        "${EXPECT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
    message(FATAL_ERROR "stderr of ${BIN} ${ARGS} does not match "
                        "'${STDERR_REGEX}':\n${err}")
endif()
