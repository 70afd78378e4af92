#!/bin/sh
# The size budget: per crate, non-test product lines and non-test `pub`
# declarations against LOC_BUDGET. A file counts up to its first
# `#[cfg(test)]`; `tests.rs` files are skipped. A `pub` declaration is an
# item declared `pub` (fn, struct, enum, trait, const, type, mod, static,
# use, ...) or a `#[macro_export]` macro; `pub(crate)` items and fields
# are not counted. Exits non-zero if a crate is over either budget, has
# none, sits 50 or more lines under its line budget, or has fewer `pub`
# declarations than its pub budget: budgets only ratchet down, so a shrink
# cannot be silently re-spent.
set -eu
cd "$(dirname "$0")/.."
status=0
total=0
total_pub=0
printf '%-16s %7s %7s %5s %5s\n' crate lines budget pub budget
for dir in crates/*/; do
    crate=$(basename "$dir")
    counts=$(find "${dir}src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { n++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|static|use|unsafe|async|extern|union)[[:space:]]/ { p++ }
        /#\[macro_export\]/ { p++ }
        END { print n + 0, p + 0 }' {} +)
    lines=${counts% *}
    pubs=${counts#* }
    total=$((total + lines))
    total_pub=$((total_pub + pubs))
    budget=$(awk -v crate="$crate" '$1 == crate { print $2 }' LOC_BUDGET)
    pub_budget=$(awk -v crate="$crate" '$1 == crate { print $3 }' LOC_BUDGET)
    printf '%-16s %7d %7s %5d %5s' "$crate" "$lines" "${budget:-none}" "$pubs" "${pub_budget:-none}"
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
    printf '\n'
done
printf '%-16s %7d %7s %5d\n' total "$total" '' "$total_pub"
exit $status
