# Checks bench_matrix's command-line contract without running a scenario:
# malformed command lines exit 2, a --filter that matches nothing exits 1,
# and --list exits 0.
#
#   cmake -DBENCH_MATRIX=path/to/bench_matrix -P bench_matrix_cli_test.cmake

if(NOT BENCH_MATRIX)
  message(FATAL_ERROR "pass -DBENCH_MATRIX=<path to bench_matrix>")
endif()

set(failures 0)

# expect_exit(<code> <args>...): runs bench_matrix with <args> and fails the
# test unless it exits with <code>.
function(expect_exit expected)
  execute_process(COMMAND ${BENCH_MATRIX} ${ARGN}
    RESULT_VARIABLE actual OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual STREQUAL "${expected}")
    message(SEND_ERROR
      "bench_matrix ${ARGN}: exit ${actual}, expected ${expected}")
  endif()
endfunction()

expect_exit(2 --bogus-flag)
expect_exit(2 --bogus-flag --filter nothing_matches)
expect_exit(2 --fast positional)
expect_exit(2 --filter)
expect_exit(2 --filter --fast)
expect_exit(2 --json)
expect_exit(2 --calibrate --tuning-out)
expect_exit(2 --repeats)
expect_exit(2 --repeats abc)
expect_exit(2 --repeats 0)
expect_exit(2 --repeats -3)
expect_exit(2 --repeats 3x)
expect_exit(2 --repeats 99999999999999999999)
expect_exit(1 --filter nothing_matches)
expect_exit(1 --fast --wide --repeats 2 --filter nothing_matches
  --json unused.json)
expect_exit(0 --list)
expect_exit(0 --fast --list)
