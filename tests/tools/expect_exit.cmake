# Run a command and check both its exit code and its output, so a
# diagnostic path is tested for the documented code and the message
# (WILL_FAIL alone would accept any failure, an abort included).
#
# Usage:
#   cmake -DEXPECT_CODE=<n> -DEXPECT_REGEX=<regex>
#         -P expect_exit.cmake <program> [args...]

set(cmd)
set(state options)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
    set(arg "${CMAKE_ARGV${i}}")
    if(state STREQUAL "command")
        list(APPEND cmd "${arg}")
    elseif(state STREQUAL "script")
        set(state command)
    elseif(arg STREQUAL "-P")
        set(state script)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${cmd}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR
        "exit status '${code}', expected ${EXPECT_CODE}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR
        "output does not match '${EXPECT_REGEX}':\n${out}${err}")
endif()
