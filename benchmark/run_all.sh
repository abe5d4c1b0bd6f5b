#!/usr/bin/env bash
# Builds the benchmark and runs every workload, untraced then traced, once per
# seed. Prints every metric by name with its unit and stops at the first run
# whose oracle fails.
#
#   benchmark/run_all.sh [out dir [seed ...]]     (defaults: benchmark/out, seed 1)
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-benchmark/out}
shift || true
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/scout-benchmark
for seed in "${@:-1}"; do
  for workload in fleet_mem fleet_durable paper_cluster fabric_1k; do
    for trace in 0 1; do
      echo "== $workload seed $seed trace $trace"
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
    done
  done
done
