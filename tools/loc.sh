#!/bin/sh
# The size budget: per crate, non-test product lines, non-test `pub`
# declarations, non-test panic sites and non-test `unsafe` blocks against
# LOC_BUDGET. A file counts
# up to its first `#[cfg(test)]`; `tests.rs` files are skipped. A `pub`
# declaration is an item declared `pub` (fn, struct, enum, trait, const,
# type, mod, static, use, ...) or a `#[macro_export]` macro; `pub(crate)`
# items and fields are not counted. A panic site is one `.unwrap()`,
# `.expect(`, `panic!(` or `unreachable!(`; an `unsafe` block is one
# `unsafe {` (an `unsafe fn` or `unsafe impl` is not a block). Exits
# non-zero if a crate is over any budget, has none, sits 50 or more lines
# under its line budget, or has fewer `pub` declarations, panic sites or
# `unsafe` blocks than those budgets: budgets only ratchet down, so a
# shrink cannot be silently re-spent.
set -eu
cd "$(dirname "$0")/.."
status=0
total=0
total_pub=0
total_panics=0
total_unsafe=0
printf '%-16s %7s %7s %5s %5s %6s %6s %6s %6s\n' crate lines budget pub budget panics budget unsafe budget
for dir in crates/*/; do
    crate=$(basename "$dir")
    counts=$(find "${dir}src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { n++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|static|use|unsafe|async|extern|union)[[:space:]]/ { p++ }
        /#\[macro_export\]/ { p++ }
        { x += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
        { u += gsub(/unsafe[[:space:]]*\{/, "&") }
        END { print n + 0, p + 0, x + 0, u + 0 }' {} +)
    set -- $counts
    lines=$1 pubs=$2 panics=$3 unsafes=$4
    total=$((total + lines))
    total_pub=$((total_pub + pubs))
    total_panics=$((total_panics + panics))
    total_unsafe=$((total_unsafe + unsafes))
    set -- $(awk -v crate="$crate" '$1 == crate { print $2, $3, $4, $5 }' LOC_BUDGET)
    budget=${1:-} pub_budget=${2:-} panic_budget=${3:-} unsafe_budget=${4:-}
    printf '%-16s %7d %7s %5d %5s %6d %6s %6d %6s' "$crate" "$lines" "${budget:-none}" \
        "$pubs" "${pub_budget:-none}" "$panics" "${panic_budget:-none}" \
        "$unsafes" "${unsafe_budget:-none}"
    if [ -z "$budget" ] || [ "$lines" -gt "$budget" ]; then
        printf '  OVER BUDGET'
        status=1
    elif [ $((budget - lines)) -ge 50 ]; then
        printf '  slack: lower the budget'
        status=1
    fi
    if [ -z "$pub_budget" ] || [ "$pubs" -gt "$pub_budget" ]; then
        printf '  PUB OVER BUDGET'
        status=1
    elif [ "$pubs" -lt "$pub_budget" ]; then
        printf '  pub slack: lower the pub budget'
        status=1
    fi
    if [ -z "$panic_budget" ] || [ "$panics" -gt "$panic_budget" ]; then
        printf '  PANICS OVER BUDGET'
        status=1
    elif [ "$panics" -lt "$panic_budget" ]; then
        printf '  panic slack: lower the panic budget'
        status=1
    fi
    if [ -z "$unsafe_budget" ] || [ "$unsafes" -gt "$unsafe_budget" ]; then
        printf '  UNSAFE OVER BUDGET'
        status=1
    elif [ "$unsafes" -lt "$unsafe_budget" ]; then
        printf '  unsafe slack: lower the unsafe budget'
        status=1
    fi
    printf '\n'
done
printf '%-16s %7d %7s %5d %5s %6d %6s %6d\n' total "$total" '' "$total_pub" '' "$total_panics" \
    '' "$total_unsafe"
exit $status
