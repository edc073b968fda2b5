#!/bin/sh
# Checks that the benchmark measures the shipped program: at the default
# seed (workbench::BASE_SEED) the fig13_quick workload's fig13.json must be
# byte-identical to the one `fig13 --profile quick --workload mnist` writes.
#
# Run from anywhere: sh perfbench/check_shipped.sh
set -eu
cd "$(dirname "$0")/.."
out=.perfbench/shipped
rm -rf "$out"
mkdir -p "$out"
cargo build --release --offline --quiet -p softsnn-exp --bin fig13
"${CARGO_TARGET_DIR:-target}/release/fig13" --profile quick --workload mnist \
    --out "$out/fig13" >/dev/null 2>&1
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fig13_quick --seconds 0 --emit-artifact "$out/perfbench-fig13.json" \
    2>/dev/null | tail -n 1 | grep -q '"correct":true'
cmp "$out/fig13/fig13.json" "$out/perfbench-fig13.json"
echo "fig13.json from perfbench and from the fig13 binary are byte-identical"
