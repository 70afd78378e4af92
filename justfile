# Developer entry points. `just verify` is the pre-merge gate.

# Build, test, and lint — exactly the steps of CI's verify job
# (.github/workflows/ci.yml), in its order, so a green local run predicts
# a green CI run. Tier-1 runs serialised and at two threads (it must not
# depend on how many sibling tests share the process), then with every
# crate's unit tests in debug and in release: debug builds run every
# poll-pass stage a guard skipped and assert it was a no-op, release
# builds take the skip (DESIGN.md §4), and release is the optimization
# level the ledger runs, where the counter asserts (1 alloc / 0 copies
# per packet, one doorbell per burst, 0 poll stages per idle pump, two
# frames per depth-1 GET, ...) mean what they say and the seeded
# differentials take their large case budgets. Then the ledger's
# self-test, its trajectory over the two newest entries, format, and
# clippy over every target of the workspace.
verify:
    cargo build --release
    sh tools/loc.sh
    cargo test -q -- --test-threads=1
    cargo test -q -- --test-threads=2
    cargo test --workspace -q
    cargo test --workspace --release -q
    cargo test --manifest-path benchmark/Cargo.toml
    sh tools/bench-diff-latest.sh
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

# Tier-1 at every test-thread count CI uses: the suite must not depend on
# how many sibling tests share the process (the allocation meter counts
# per thread for exactly this reason).
test-threads:
    cargo test -q -- --test-threads=1
    cargo test -q -- --test-threads=2
    cargo test -q

# The consecutive-runs gate: the tier-1 suite {{n}} times in each of the
# three modes CI uses (`--test-threads` 1, 2 and default); stops at the
# first failure and prints its iteration and mode. ~3n suite runs —
# nightly in CI, not per push.
soak n="20":
    sh tools/soak.sh {{n}}

# This PR's point on the perf ledger (benchmark/README.md): all four
# workloads untraced and traced plus the layer rigs, ~3 min, written to a
# scratch directory — never into the frozen benchmark/results/ — and moved
# to ledger/BENCH_<pr>.json, unedited. Run the parent's binary on the same
# box in the same sitting before trusting a diff against its entry.
ledger-entry pr:
    #!/bin/sh
    set -eu
    out=$(mktemp -d)
    cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 7 --out "$out"
    mv "$out/BENCH_7.json" ledger/BENCH_{{pr}}.json

# Compare two ledger entries against the bounds in BENCHMARK.json; exits
# non-zero on any regression.
bench-diff old new:
    cargo run --release --manifest-path benchmark/Cargo.toml -- diff {{old}} {{new}}

# The trajectory check CI runs: `bench-diff` between the two
# highest-numbered entries committed under ledger/ (every PR commits one
# with `just ledger-entry <pr>`).
bench-diff-latest:
    sh tools/bench-diff-latest.sh

# The pair campaign a wall-clock claim rests on: the ledger of
# {{parent}} against the working tree's, {{pairs}} alternating pairs of
# {{seconds}} s on every workload (or only the {{workloads}} named);
# medians, quartile spreads, pairs won and the nine-in-ten /
# beyond-the-parent's-spread verdict per metric.
bench-pairs parent pairs="10" seconds="30" seed="7" *workloads:
    sh tools/bench-pairs.sh {{parent}} {{pairs}} {{seconds}} {{seed}} {{workloads}}

# The ledger's own self-test: every workload and metric emitted once,
# counts and virtual time exactly repeatable for a seed.
bench-smoke:
    cargo test --manifest-path benchmark/Cargo.toml

# The size budget: non-test product lines, `pub` declarations and panic
# sites per crate against the checked-in LOC_BUDGET table; fails if any
# crate is over any of them, 50 or more lines under its line budget, or
# under its pub or panic budget at all (budgets only ratchet down).
loc:
    sh tools/loc.sh
