#!/bin/bash
# Regenerate every table/figure of the paper. Run after `cargo build --release`.
# Each harness accepts --scale/--seeds/--epochs/...; these are the defaults
# used for the recorded EXPERIMENTS.md numbers.
set -x
cd "$(dirname "$0")"
source ./ci.sh
BIN="cargo run -q --release -p benchtemp-bench --bin"
$BIN bench_kernels             > results/bench_kernels.txt        2>/dev/null
$BIN anatomy                   > results/anatomy.txt              2>/dev/null
$BIN table2_stats              > results/table2_stats.txt         2>/dev/null
$BIN table6_splits             > results/table6_splits.txt        2>/dev/null
$BIN fig5_temporal_dist        > results/fig5_temporal_dist.txt   2>/dev/null
$BIN table3_lp -- --seeds 3 > results/table3_lp.txt 2>results/table3_lp.log
$BIN table5_nc -- --seeds 3 > results/table5_nc.txt 2>results/table5_nc.log
$BIN fig2_feature_dims -- --seeds 2 > results/fig2_feature_dims.txt 2>results/fig2.log
$BIN temp_results -- --seeds 2 > results/temp_results.txt 2>results/temp.log
$BIN table17_new_datasets -- --scale 0.001 --seeds 2 > results/table17_new_datasets.txt 2>results/table17.log
$BIN table19_ebay_nc -- --seeds 2 > results/table19_ebay_nc.txt 2>results/table19.log
$BIN table22_multilabel -- --scale 0.001 --seeds 2 > results/table22_multilabel.txt 2>results/table22.log
$BIN table23_nodes_ablation -- --seeds 3 > results/table23_nodes_ablation.txt 2>results/table23.log
$BIN table25_density -- --seeds 3 > results/table25_density.txt   2>results/table25.log
$BIN table26_negative_sampling -- --seeds 3 > results/table26_negative_sampling.txt 2>results/table26.log
echo ALL_EXPERIMENTS_DONE
