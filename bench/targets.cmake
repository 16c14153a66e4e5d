# Everything under build/bench/ is a benchmark: suite_all, the one entry
# point for the 15 deterministic experiments (`suite_all [experiment...]`,
# the k-iteration study kiter_blowup included; stdout pinned by
# tests/golden/suite_all.txt), plus the wall-clock benches
# interp_throughput (the engine: dispatch rows, trace record/decode,
# counter operations) and adaptive_steadystate, whose output is timing
# dependent and feeds no table.

add_library(ppp_bench_harness STATIC
  ${CMAKE_SOURCE_DIR}/bench/Harness.cpp
  ${CMAKE_SOURCE_DIR}/bench/Measure.cpp
  ${CMAKE_SOURCE_DIR}/bench/PrepCache.cpp)
target_include_directories(ppp_bench_harness PUBLIC ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(ppp_bench_harness PUBLIC
  ppp_adapt ppp_edgeprof ppp_metrics ppp_pass ppp_pathprof ppp_trace
  ppp_flow ppp_opt ppp_workload ppp_profile ppp_interp ppp_analysis
  ppp_ir ppp_obs ppp_support Threads::Threads)
set_target_properties(ppp_bench_harness PROPERTIES
  ARCHIVE_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/lib)

function(ppp_add_bench NAME)
  add_executable(${NAME} ${CMAKE_SOURCE_DIR}/bench/${NAME}.cpp)
  target_link_libraries(${NAME} PRIVATE ppp_bench_harness)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

ppp_add_bench(interp_throughput)
ppp_add_bench(adaptive_steadystate)

# The deterministic experiments (bench/Experiments.h) compile once, into
# one library that suite_all runs.
set(PPP_EXPERIMENT_SOURCES ${CMAKE_SOURCE_DIR}/bench/Experiments.cpp)
foreach(exp
    table1_inlining table2_hotpaths fig9_accuracy fig10_coverage
    fig11_instrumented fig12_overhead fig13_ablation fig13b_poisoning
    fig13c_oneatatime trace_payoff edge_instrumentation kernels_overhead
    net_vs_ppp metric_comparison kiter_blowup)
  list(APPEND PPP_EXPERIMENT_SOURCES ${CMAKE_SOURCE_DIR}/bench/${exp}.cpp)
endforeach()
add_library(ppp_experiments STATIC ${PPP_EXPERIMENT_SOURCES})
target_link_libraries(ppp_experiments PUBLIC ppp_bench_harness)
set_target_properties(ppp_experiments PROPERTIES
  ARCHIVE_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/lib)

add_executable(suite_all ${CMAKE_SOURCE_DIR}/bench/suite_all.cpp)
target_link_libraries(suite_all PRIVATE ppp_experiments)
set_target_properties(suite_all PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

