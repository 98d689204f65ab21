# Run `proram_cli run` with a malformed number on its command line, and
# pass only when each run ends the way a user error must: exit status 1
# and one `error: ...` line naming the flag and the value - not a crash,
# and not a silent run with a wrapped or truncated value - before
# anything is simulated (no `scheme=` result line):
#
#   cmake -DCLI=build/examples/proram_cli -P examples/cli_bad_values.cmake
#
# Each flag is parsed under the rules of the PRORAM_* knobs
# (src/util/env.hh). ctest runs this as proram_cli_bad_values.

function(expect_bad_value flag value)
    execute_process(
        COMMAND ${CLI} run --bench ocean_c --${flag} ${value}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "--${flag} ${value} ended with '${rc}', not 1:\n${out}")
    endif()
    # MATCHALL returns a list, which a ';' in a line would split.
    string(REPLACE ";" "," out "${out}")
    string(REGEX MATCHALL "(^|\n)error: [^\n]*" errors "${out}")
    list(LENGTH errors count)
    set(culprit "--${flag}: invalid value '${value}'")
    if(NOT count EQUAL 1 OR NOT errors MATCHES "${culprit}")
        message(FATAL_ERROR
            "--${flag} ${value} did not print one error line naming "
            "the flag and the value:\n${out}")
    endif()
    if(out MATCHES "scheme=")
        message(FATAL_ERROR "--${flag} ${value} simulated before failing")
    endif()
endfunction()

expect_bad_value(scale abc)
expect_bad_value(z 3x)
expect_bad_value(z -1)
expect_bad_value(stash -5)
