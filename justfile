# Developer entry points. `just verify` is the pre-merge gate.

# Build, test, and lint — everything CI would reject. Tier-1 runs twice:
# debug builds run every poll-pass stage a guard skipped and assert it was
# a no-op, release builds take the skip (DESIGN.md §4), so the whole suite
# has to be green in both — and release is the optimization level the
# ledger runs, where the counter asserts (1 alloc / 0 copies per packet,
# one doorbell per burst, 0 poll stages per idle pump, two frames per
# depth-1 GET, ...) mean what they say. Which suite pins which experiment:
# `.claude/skills/verify/SKILL.md` and EXPERIMENTS.md.
verify:
    cargo build --release
    sh tools/loc.sh
    cargo test -q
    cargo test --release -q
    cargo fmt --check
    cargo clippy -- -D warnings

# Everything `verify` checks, across the whole workspace.
verify-all:
    cargo build --workspace --release
    sh tools/loc.sh
    cargo test --workspace -q
    DEMI_EXEC_MODE=threads cargo test -q
    cargo test --release -q
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 at every test-thread count CI uses: the suite must not depend on
# how many sibling tests share the process (the allocation meter counts
# per thread for exactly this reason).
test-threads:
    cargo test -q -- --test-threads=1
    cargo test -q -- --test-threads=2
    cargo test -q

# The consecutive-runs gate: the tier-1 suite {{n}} times in each of the
# four modes CI uses (`--test-threads` 1, 2, default, and
# `DEMI_EXEC_MODE=threads`); stops at the first failure and prints its
# iteration and mode. ~4n suite runs — nightly in CI, not per push.
soak n="20":
    sh tools/soak.sh {{n}}

# The perf ledger (benchmark/README.md): all four workloads untraced and
# traced plus the layer rigs, ~3 min; writes
# benchmark/results/BENCH_<seed>.json and the four Chrome traces.
bench-ledger seed="11":
    cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed {{seed}}

# Compare two ledger entries against the bounds in BENCHMARK.json; exits
# non-zero on any regression.
bench-diff old new:
    cargo run --release --manifest-path benchmark/Cargo.toml -- diff {{old}} {{new}}

# The trajectory check CI runs: `bench-diff` between the two
# highest-numbered entries committed under ledger/ (every PR commits
# ledger/BENCH_<pr>.json from `demi-ledger run --seed 7 --out <tmp>`, with
# its parent's entry measured on the same box in the same sitting).
bench-diff-latest:
    sh tools/bench-diff-latest.sh

# The ledger's own self-test: every workload and metric emitted once,
# counts and virtual time exactly repeatable for a seed.
bench-smoke:
    cargo test --manifest-path benchmark/Cargo.toml

# The line budget: non-test product lines per crate (everything under
# crates/ except bench) against the checked-in LOC_BUDGET table; fails if
# any crate is over, or 50 or more lines under (budgets only ratchet down).
loc:
    sh tools/loc.sh

# Regenerate every experiment table that has a bench (E1–E10, E15–E20).
experiments:
    cargo bench -p demi-bench

# The tail-latency experiment alone: open-loop Poisson throughput–latency
# curves with asserted low-load, saturation, and zero-alloc bounds; the
# measured curve lands in target/e15_tail_latency.json.
bench-telemetry:
    cargo bench -p demi-bench --bench e15_tail_latency

# The multi-core experiment alone: fixed-ops echo and KV workloads over
# 4 shard worlds, sequential vs thread-per-shard wall clock, with the
# asserted mode-independence and tail bounds (the >= 3x speedup assert
# arms only on hosts with >= 4 CPUs).
bench-multicore:
    cargo bench -p demi-bench --bench e16_multicore

# The device-offload experiment alone: NIC-served echo and KV GET vs
# their host-served twins (asserted >= 80% host-work reduction, full
# device-side service, charged device cycles), the 1-submission 8-hop
# storage chase, and the zero-alloc in-place Map path; the NIC-served
# echo RTT curve lands in target/bench_e17.json.
bench-offload:
    cargo bench -p demi-bench --bench e17_offload

# The connection-scale experiment alone: 100k established connections on
# one peer with asserted idle bytes/conn, p99 flatness 100 -> 100k, a
# zero-alloc steady-state echo window, 10x SYN-flood isolation, and
# TIME_WAIT churn recycling; results land in target/e18_conn_scale.json.
bench-connscale:
    cargo bench -p demi-bench --bench e18_conn_scale

# The KV-server experiment alone: the Redis-class RESP server over
# catnip with asserted >= 4x pipelining speedup at depth 16, zero
# payload-byte copies per warmed GET, p99 flatness 1k -> 100k
# connections, an open-loop Poisson GET/SET curve, and crash-replay of
# exactly the acknowledged SETs; results land in target/e19_kv_server.json.
bench-kv:
    cargo bench -p demi-bench --bench e19_kv_server

# The multi-tenant isolation experiment alone: a hostile tenant flooding
# TX at 10x+ its fair share, leaking its pool dry, and spraying SYNs,
# with asserted victim bounds (p99 <= 2x the hostile-absent baseline,
# >= 90% of the weighted fair share, untouched SYN/TIME_WAIT partitions,
# zero cross-tenant buffer views) plus the shared-FIFO contrast case;
# results land in target/e20_tenant_isolation.json.
bench-tenant:
    cargo bench -p demi-bench --bench e20_tenant_isolation
