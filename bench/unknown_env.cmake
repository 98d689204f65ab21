# Run every binary of BINARIES with a user error in its environment,
# and pass only when each run ends the way a user error must: exit
# status 1 and one `fatal: ...` line naming the variable - not an
# abort, and not a silent run of the defaults:
#
#   cmake "-DBINARIES=build/bench/table1_config;build/bench/fig13_z_value" \
#       -P bench/unknown_env.cmake
#
# Two errors are tried (src/util/env.hh). A misspelled PRORAM_* name is
# rejected by the first read of the environment, which runs during
# static initialization (src/obs/trace.cc); a bad value of a known knob
# is rejected by main's first read of it. ctest runs this over every
# figure binary as unknown_env_name.

foreach(binary IN LISTS BINARIES)
    foreach(setting PRORAM_SHCEME=ring PRORAM_BENCH_THREADS=4x)
        string(REGEX REPLACE "=.*" "" name "${setting}")
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env ${setting} ${binary}
            RESULT_VARIABLE rc
            OUTPUT_VARIABLE out
            ERROR_VARIABLE out)
        if(NOT rc STREQUAL "1")
            message(FATAL_ERROR
                "${binary} ended with '${rc}', not 1, under ${setting}:\n"
                "${out}")
        endif()
        string(REGEX MATCHALL "(^|\n)fatal: [^\n]*" fatals "${out}")
        list(LENGTH fatals count)
        if(NOT count EQUAL 1 OR NOT fatals MATCHES "${name}")
            message(FATAL_ERROR
                "${binary} did not print one fatal line naming ${name} "
                "under ${setting}:\n${out}")
        endif()
    endforeach()
endforeach()
