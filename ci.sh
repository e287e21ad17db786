#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, and the full test
# suite. Run from the repository root. All cargo invocations are --offline:
# every dependency is vendored in third_party/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
# Also the gate for hash-ordered collections, wall-clock and environment
# reads: the disallowed types and methods in clippy.toml fail here, tests
# included. Wall-clock measurement lives in benchmark/, outside this gate.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release

echo "==> xlint (workspace determinism + unit-safety lint)"
# Every rule plus the suppression-budget ratchet: any finding fails, and so
# does a malformed, unknown or stale pragma (X0) or a crate whose pragma
# count exceeds its committed budget in xlint-baseline.toml (X1).
cargo run --offline -q -p exegpt-xlint -- --workspace --baseline xlint-baseline.toml

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> scenario smoke (every shipped config: run invariants + committed golden digest)"
# Runs every scenarios/*.toml through the declarative scenario layer (the
# serve, fault and fleet studies included: fleet-100k.toml is the
# 100k-request fleet gate) and exits non-zero if any run breaks a run
# invariant, its FNV-1a event-log digest drifts from scenarios/GOLDENS.toml,
# a config has no golden, or a golden has no config. The invariants
# (exegpt_scenario::broken_invariants):
#   serve  - completed + lost == total, nothing lost, SLO accounting
#            consistent, every completion SLO-checked, mean TTFT <= mean e2e;
#   fleet  - every request dispatched and completed, nothing lost or
#            rejected, per-tenant completions sum to the total, every
#            tenant's SLO accounting consistent;
#   replay - exactly num_queries completions.
# Byte-determinism is the digest itself: a nondeterministic run cannot
# match its golden. Intentional behavior changes regenerate the goldens with
# `cargo run --release --bin scenario-smoke -- scenarios --write-goldens`.
cargo run --offline --release -p exegpt-scenario --bin scenario-smoke -- scenarios

echo "==> benchmark tests (every workload at tiny size, with its output checks)"
# benchmark/ is a workspace of its own (it reads the wall clock and owns a
# global allocator), so the workspace test stage above does not reach it.
# Its smoke test runs all four workloads at tiny size, one untraced and one
# traced round each, and fails if an output check breaks (request
# conservation, the output digest repeating across rounds, plan invariants).
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
