# Run `paper` with a user error in its environment or arguments, and
# pass only when each run ends the way a user error must: exit status
# 1 and one `fatal: ...` line naming the culprit - not an abort, and
# not a silent run of the defaults - before any cell is simulated, so
# no cell's metrics reach PRORAM_METRICS_FILE:
#
#   cmake -DPAPER=build/bench/paper -DMETRICS=/tmp/m.jsonl \
#       -P bench/unknown_env.cmake
#
# Three errors are tried. A misspelled PRORAM_* name is rejected by the
# first read of the environment, which runs during static
# initialization (src/obs/trace.cc); a bad value of a known knob is
# rejected by paper's first read of it (src/util/env.hh); an unknown
# figure is rejected with the list of valid ones. ctest runs this as
# unknown_env_name.

function(expect_user_error culprit)
    file(REMOVE "${METRICS}")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env PRORAM_METRICS_FILE=${METRICS}
                ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR "'${ARGN}' ended with '${rc}', not 1:\n${out}")
    endif()
    # MATCHALL returns a list, which a ';' in a line would split.
    string(REPLACE ";" "," out "${out}")
    string(REGEX MATCHALL "(^|\n)fatal: [^\n]*" fatals "${out}")
    list(LENGTH fatals count)
    if(NOT count EQUAL 1 OR NOT fatals MATCHES "${culprit}")
        message(FATAL_ERROR
            "'${ARGN}' did not print one fatal line matching "
            "'${culprit}':\n${out}")
    endif()
    if(EXISTS "${METRICS}")
        message(FATAL_ERROR "'${ARGN}' simulated a cell before failing")
    endif()
endfunction()

expect_user_error(PRORAM_SHCEME PRORAM_SHCEME=ring ${PAPER})
expect_user_error(PRORAM_BENCH_THREADS PRORAM_BENCH_THREADS=4x ${PAPER})
expect_user_error("'fig99'.*table1_config.*ext_strided_super_blocks"
                  ${PAPER} fig99)
