# Run TOOL with ARGS and require the exact exit code EXPECT and, when
# MATCH is given, output (stdout and stderr) matching that regex. When
# INPUT names a file, TOOL reads it on stdin (a crispdbg session).
#
# ctest's WILL_FAIL only distinguishes zero from nonzero, and a test
# with PASS_REGULAR_EXPRESSION ignores the exit code altogether;
# crisplint's documented contract distinguishes findings (1) from usage
# problems (2) from load/decode failures (3), and a sweep must both
# exit 0 and print its summary, so those tests run through this wrapper:
#
#   cmake -DTOOL=<binary> -DARGS="<args>" -DEXPECT=<N> [-DMATCH=<regex>] \
#         [-DINPUT=<file>] -P check_exit_code.cmake
separate_arguments(arg_list NATIVE_COMMAND "${ARGS}")
if(DEFINED INPUT)
    set(stdin INPUT_FILE "${INPUT}")
endif()
execute_process(COMMAND ${TOOL} ${arg_list} ${stdin}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL "${EXPECT}")
    message(FATAL_ERROR
            "${TOOL} ${ARGS}: expected exit ${EXPECT}, got ${rc}\n${out}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
    message(FATAL_ERROR
            "${TOOL} ${ARGS}: output does not match \"${MATCH}\"\n${out}")
endif()
