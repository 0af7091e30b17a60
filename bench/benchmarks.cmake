# Benchmark harness: one binary per paper table/figure plus extension and
# ablation benches. Declared from the top-level CMakeLists via include() so
# that ${CMAKE_BINARY_DIR}/bench contains ONLY runnable binaries.
set(ADX_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(adx_bench name)
  add_executable(${name} ${ADX_BENCH_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE adx_perf adx_telemetry adx_apps adx_native)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# Tables 1-3: TSP blocking vs adaptive, three implementations.
adx_bench(bench_table1_tsp_central)
adx_bench(bench_table2_tsp_dist)
adx_bench(bench_table3_tsp_distlb)

# Tables 4-8: lock operation micro-costs.
adx_bench(bench_table4_lock_cost)
adx_bench(bench_table5_unlock_cost)
adx_bench(bench_table6_cycle_static)
adx_bench(bench_table7_cycle_adaptive)
adx_bench(bench_table8_config_ops)

# Figure 1: critical-section-length sweep, combined vs pure locks.
adx_bench(bench_fig1_cs_sweep)

# Figures 4-9: TSP locking patterns.
adx_bench(bench_fig4_pattern_central_qlock)
adx_bench(bench_fig5_pattern_central_globact)
adx_bench(bench_fig6_pattern_dist_qlock)
adx_bench(bench_fig7_pattern_dist_globact)
adx_bench(bench_fig8_pattern_distlb_qlock)
adx_bench(bench_fig9_pattern_distlb_globact)

# §2 extension benches and ablations.
adx_bench(bench_ext_spin_vs_block)
adx_bench(bench_ext_schedulers)
adx_bench(bench_ext_placement)
adx_bench(bench_ext_massive)
adx_bench(bench_ext_rwlock)
adx_bench(bench_abl_interconnect)
adx_bench(bench_abl_sampling)
adx_bench(bench_abl_threshold)
adx_bench(bench_abl_coupling)
adx_bench(bench_abl_async_policy)

# Federated ct workloads on the execution domain (real threads, one runtime
# per NUMA group, cross-shard traffic through federation::post).
adx_bench(bench_sharded_cs)
adx_bench(bench_serve_ct)

# Native real-thread backend (google-benchmark).
adx_bench(bench_native_mutex)
target_link_libraries(bench_native_mutex PRIVATE benchmark::benchmark)
