# Golden-output regression: run `gscalar bench` twice on one fresh
# persistent run cache and byte-compare each stdout against
# docs/bench_reference_output.txt. stderr (throughput, engine stats) is
# not pinned, except that the second (warm) run must be served entirely
# from the disk cache written by the first: this exercises the store
# across processes and proves cold and warm output identical.
#
# Usage:
#   cmake -DGSCALAR=<gscalar binary>
#         -DREFERENCE=<docs/bench_reference_output.txt>
#         -DWORK_DIR=<scratch-dir>
#         -P run_golden.cmake

foreach(var GSCALAR REFERENCE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{GS_CACHE_DIR} "${WORK_DIR}/cache")

foreach(pass cold warm)
    set(actual "${WORK_DIR}/golden_${pass}.txt")
    execute_process(
        COMMAND "${GSCALAR}" bench
        OUTPUT_FILE "${actual}"
        ERROR_VARIABLE bench_err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "gscalar bench (${pass}) exited with ${rc}:\n${bench_err}")
    endif()

    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}" "${REFERENCE}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        # Show a readable diff before failing (diff(1) exists everywhere
        # this POSIX-only project builds).
        execute_process(
            COMMAND diff -u "${REFERENCE}" "${actual}"
            OUTPUT_VARIABLE delta
            RESULT_VARIABLE ignored)
        message(FATAL_ERROR
            "${pass} bench output drifted from ${REFERENCE}:\n${delta}\n"
            "If the change is intended, regenerate the reference with "
            "`gscalar bench > docs/bench_reference_output.txt`.")
    endif()
endforeach()

string(FIND "${bench_err}" "engine: 0 simulations" warm_hit)
if(warm_hit EQUAL -1)
    message(FATAL_ERROR
        "warm gscalar bench simulated instead of reading the disk "
        "cache written by the cold run:\n${bench_err}")
endif()
