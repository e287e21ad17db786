#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, and the full test
# suite. Run from the repository root. All cargo invocations are --offline:
# every dependency is vendored in third_party/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
# Also the determinism and numeric-safety gate (DESIGN.md §6.1): the
# disallowed types and methods in clippy.toml (hash-ordered collections,
# wall-clock and environment reads, locks, atomics, threads) fail here,
# tests included, and so do the lints each lib.rs turns on for library
# code (panics, casts, float equality, discarded results, reasonless
# allows) and any `#[expect]` that no longer fires. Wall-clock measurement
# lives in benchmark/, outside this gate.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release

echo "==> xlint (unit-safety lint)"
# The unit rules U1-U3, which no clippy or rustc lint expresses: any
# finding fails. Each rule is kept because it catches unit slips that rustc
# and clippy both miss (the mutation audit in DESIGN.md §6.1b).
cargo run --offline -q -p exegpt-xlint -- --workspace

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> estimator, search-memo, completion, metrics, schedule, figures and report digests and the decode sum in release"
# The stage above runs the estimator digests (every estimate's bits, every
# error's payload) in a debug build. The binaries and the benchmark run
# release code, where the profile lookups are inlined across crates and
# debug assertions are off, so the digests must hold there too.
cargo test --offline --release -q -p exegpt-sim --test estimate_digest
# The closed-form decode sum against its per-iteration reference: the debug
# assertion that checks it inside every estimate is off in release.
cargo test --offline --release -q -p exegpt-sim --test decode_sum
# The search reads scores, and remembered searches stand in for cold ones;
# the benchmark times release code, so scores must match fresh estimates,
# and remembered searches the ones that ran, bit for bit there too.
cargo test --offline --release -q -p exegpt-sim --test cache_props
# A warm scorer must score without allocating in the release code the
# benchmark times, where the estimator's debug assertion is off.
cargo test --offline --release -q -p exegpt-sim --test scorer_alloc
# The one-pass completion analysis the RRA estimate reads, against the
# completion distribution, and the quantile digest, which pins every length
# the shipped tasks' CDFs return where requests are sampled; then the
# replans and repeated schedules that the search memo answers.
# Branch-and-bound's properties and its digest run there too: the
# benchmark times its point memo in release code.
cargo test --offline --release -q -p exegpt-dist
cargo test --offline --release -q -p exegpt --test replan --test scheduler --test props --test bnb_digest
# Likewise every metrics snapshot of the shipped serve and fleet scenarios:
# the fleet-100k gate and the benchmark run the serve and fleet loops in
# release.
cargo test --offline --release -q -p exegpt-scenario --test metrics_digest
# And every plan the scheduler picks on the Figure 6 grid (80 cases, three
# portfolios each): the debug stage covers only the OPT-13B deployment.
cargo test --offline --release -q -p exegpt-bench --test schedule_digest -- --include-ignored
# And every table `figures all` prints and writes, against the committed
# results_all.txt and results/*.json.
cargo test --offline --release -q -p exegpt-bench --test figures_cli -- --include-ignored
# The baselines' planner, their estimate and phase timings and their replay
# reports: sched-paper's setup times FasterTransformer's latency sweep in
# release code.
cargo test --offline --release -q -p exegpt-baselines --test timing_digest --test planning
# The profile's lookup digest (every lookup's bits at and around every
# knot), the decode stage term's fixed segments and breakpoints, which the
# decode sum relies on, and every runner report over the shared stage-cost
# kernel, in the release code the benchmark times; with the decode pool against
# the per-token scan it replaced, its timing wheel growing included, where
# the pool's debug assertions are off.
cargo test --offline --release -q -p exegpt-profiler
cargo test --offline --release -q -p exegpt-runner --test report_digest --test pool
# The KV tracker is reached only through handles: a warm tracker's admit,
# grow and release cycle, and a warm decode pool's push and iteration
# cycle, must not allocate in the release code the benchmark times.
cargo test --offline --release -q -p exegpt-runner --test kv_alloc
# The benchmark times the serve step in release too: its KV-peak digest,
# the check that the serve step and the offline replay, which share one
# phase body, agree on the same closed-loop stream, and the fault layer
# that serve-adapt's GPU failure runs through, with its replay properties
# (the library's unit tests), and the check that a metrics snapshot
# summarizes every histogram in its own buffer, copying no samples.
cargo test --offline --release -q -p exegpt-serve --lib --test kv_peak --test agreement --test faults --test snapshot_alloc
# And the fleet loop, with its metric handles and tenant table, in the
# release code fleet-tenants times: single-replica equivalence,
# determinism, conservation through a replica loss, and the rejection of a
# trace that repeats a request id.
cargo test --offline --release -q -p exegpt-fleet --test fleet

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
