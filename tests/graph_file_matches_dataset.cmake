# Writes a catalog profile as an .imgrf with dataset_gen and runs a
# technique on it with `im_run --graph-file`. The file must hold the graph
# that `--dataset` builds in memory (an undirected profile symmetrized),
# so the run prints the seeds and spread of the same cell on the heap.
# Run by ctest:
#
#   cmake -DDATASET_GEN=<dataset_gen> -DIM_RUN=<im_run> -DFILE=<out.imgrf>
#         -P graph_file_matches_dataset.cmake
execute_process(COMMAND "${DATASET_GEN}" --dataset=nethept --scale=tiny
                        --model=WC --seed=7 --out=${FILE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "dataset_gen exited '${status}'\n${out}${err}")
endif()
execute_process(COMMAND "${IM_RUN}" --algorithm=EaSyIM --graph-file=${FILE}
                        --model=WC --k=5 --seed=7 --mc=1000
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE "${FILE}")
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "im_run exited '${status}'\n${out}${err}")
endif()
# The lines `im_run --algorithm=EaSyIM --dataset=nethept --scale=tiny
# --model=WC --k=5 --seed=7 --mc=1000` prints.
if(NOT out MATCHES "mmap'd graph file" OR
   NOT out MATCHES "\nseeds: 0 2 64 32 16\nspread: 75\\.1 ")
  message(FATAL_ERROR "the graph file run differs from --dataset\n${out}${err}")
endif()
