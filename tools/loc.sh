#!/bin/sh
# The line budget: non-test product lines per crate against LOC_BUDGET.
# A file counts up to its first `#[cfg(test)]`; `tests.rs` files are
# skipped. Exits non-zero if a crate is over its budget, has none, or sits
# 50 or more lines under it: budgets only ratchet down, so a shrink cannot
# be silently re-spent.
set -eu
cd "$(dirname "$0")/.."
status=0
total=0
printf '%-16s %7s %7s\n' crate lines budget
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "${dir}src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }' {} +)
    total=$((total + lines))
    budget=$(awk -v crate="$crate" '$1 == crate { print $2 }' LOC_BUDGET)
    printf '%-16s %7d %7s' "$crate" "$lines" "${budget:-none}"
    if [ -z "$budget" ] || [ "$lines" -gt "$budget" ]; then
        printf '  OVER BUDGET'
        status=1
    elif [ $((budget - lines)) -ge 50 ]; then
        printf '  slack: lower the budget'
        status=1
    fi
    printf '\n'
done
printf '%-16s %7d\n' total "$total"
exit $status
