# Run BINARY with a misspelled PRORAM_* name in its environment, and
# pass only when the run fails and its output names the variable:
#
#   cmake -DBINARY=build/bench/table1_config -P bench/unknown_env.cmake
#
# A typo must stop the run instead of silently running the defaults
# (src/util/env.hh). ctest runs this as unknown_env_name.

set(name PRORAM_SHCEME)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${name}=ring ${BINARY}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited 0 with ${name} set:\n${out}")
endif()
string(FIND "${out}" "${name}" at)
if(at EQUAL -1)
    message(FATAL_ERROR
        "${BINARY} failed (${rc}) without naming ${name}:\n${out}")
endif()
