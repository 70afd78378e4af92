#!/bin/sh
# The consecutive-runs gate: N (default 20) iterations of the tier-1 suite
# in each of the three modes CI uses — `--test-threads=1`, `=2` and the
# default — 3N suite runs in all. Stops at the first failure and names its
# iteration and mode; a flaky test is a failing test. Then the long budgets
# of the two hostile-input fuzzes: frames at a shard's RX entry, and
# device blocks under catfs recovery and pops.
set -u
cd "$(dirname "$0")/.."
n=${1:-20}
cargo test -q --no-run || exit 1
i=1
while [ "$i" -le "$n" ]; do
    for mode in threads=1 threads=2 default; do
        case $mode in
            threads=1) cargo test -q -- --test-threads=1 ;;
            threads=2) cargo test -q -- --test-threads=2 ;;
            default) cargo test -q ;;
        esac >target/soak.log 2>&1 || {
            cat target/soak.log
            echo "soak: FAILED at iteration $i of $n, mode $mode (output above, kept in target/soak.log)"
            exit 1
        }
    done
    echo "soak: iteration $i of $n passed (3 modes)"
    i=$((i + 1))
done
cargo test --release -q -p net-stack hostile_flat_and_chained_frames_soak -- --ignored >target/soak.log 2>&1 || {
    cat target/soak.log
    echo "soak: the long hostile-frames budget FAILED (output above)"
    exit 1
}
cargo test --release -q -p demikernel hostile_blocks_under_recover_and_pop_soak -- --ignored \
    >target/soak.log 2>&1 || {
    cat target/soak.log
    echo "soak: the long hostile-blocks budget FAILED (output above)"
    exit 1
}
rm -f target/soak.log
echo "soak: all $((n * 3)) suite runs passed"
