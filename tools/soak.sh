#!/bin/sh
# The consecutive-runs gate: N (default 20) iterations of the tier-1 suite
# in each of the three modes CI uses — `--test-threads=1`, `=2` and the
# default — 3N suite runs in all. Stops at the first failure and names its
# iteration and mode; a flaky test is a failing test.
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
rm -f target/soak.log
echo "soak: all $((n * 3)) suite runs passed"
