#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced (end-to-end metrics) and
# then traced (per-layer metrics), from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-20}
manifest=perfbench/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
for workload in order-sync order-bulk mux-tcp; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
