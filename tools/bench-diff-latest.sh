#!/bin/sh
# The ledger's trajectory check: `demi-ledger diff` between the two
# highest-numbered committed entries under ledger/ (BENCH_<pr>.json, one
# per PR since PR 16), against the bounds in BENCHMARK.json. It compares
# two committed files, so the verdict is the same on every host; exits
# non-zero if any end-to-end row regressed.
set -eu
cd "$(dirname "$0")/.."
set -- $(ls ledger/BENCH_*.json | sort -t_ -k2 -n | tail -n 2)
if [ $# -ne 2 ]; then
    echo "ledger/ needs two BENCH_<n>.json entries to compare" >&2
    exit 1
fi
echo "ledger: $1 -> $2"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- diff "$1" "$2"
