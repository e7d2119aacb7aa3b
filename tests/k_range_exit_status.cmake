# Runs `im_run` one-shot with a seed count outside [1, n] and checks that
# it refuses with exit status 1 and a message, before it selects. Any other
# status (an abort inside the technique included) fails. Run by ctest:
#
#   cmake -DIM_RUN=<im_run> -DK=<seed count> -P k_range_exit_status.cmake
execute_process(COMMAND "${IM_RUN}" --algorithm=IMM --dataset=nethept
                        --scale=tiny --model=WC --k=${K} --mc=10
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "im_run --k=${K} exited '${status}', want 1\n${out}${err}")
endif()
if(NOT err MATCHES "--k=${K} is outside")
  message(FATAL_ERROR "no --k refusal message\n${out}${err}")
endif()
