#!/usr/bin/env sh
# Tier-1 gate: everything here must pass offline with no network access.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -eux

cargo fmt --all -- --check
cargo clippy --release --all-targets -- -D warnings
cargo build --release
cargo test -q --release

# The benchmark crate is a workspace of its own, so the builds above never
# compile it: build and test it here, so a change to a serve/cluster API
# it calls fails CI instead of the next benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Byte-identity golden (EXPERIMENTS.md): the full reproduction at scale
# 0.05 must match the committed output byte for byte three ways — cold in
# an empty directory, warm from the disk cache the cold run left (so the
# cache's disk read path serves most jobs), and with caching disabled. A
# golden changes only with a note in EXPERIMENTS.md.
repo=$(pwd)
golden=$(mktemp -d)
(
    cd "$golden"
    "$repo/target/release/repro_all" --scale 0.05 > cold.txt
    "$repo/target/release/repro_all" --scale 0.05 > warm.txt
    "$repo/target/release/repro_all" --scale 0.05 --no-cache > uncached.txt
)
for run in cold warm uncached; do
    cmp "$golden/$run.txt" results/golden/repro_all_0.05.txt
done
rm -rf "$golden"

# Every client-visible error must be the JSON envelope (docs/api.md):
# the retired plain-text constructors must not creep back in.
! grep -rn "Response::error" crates/ --include='*.rs'
! grep -rn "Response::text(4" crates/serve/src crates/cluster/src --include='*.rs'
! grep -rn "Response::text(5" crates/serve/src crates/cluster/src --include='*.rs'

# The journal protocol (write-ahead intent, record appends, seal, replay,
# resume, recovery count) lives only in serve's shared async-job layer
# (crates/serve/src/front.rs): the coordinator must not drive a journal
# of its own again.
! grep -rnE 'journal\.(begin|append_record|finish|replay|incomplete|mark_recovered)\(' crates/cluster/src

# Request coalescing has one implementation, heteropipe_engine's
# SingleFlight, which frees a panicking leader's slot and resolves its
# waiters: the coordinator must not hand-roll a second one again.
! grep -rn "Condvar" crates/cluster/src

# Server smoke: ephemeral port, /healthz + one POST /v1/runs through the
# std-only client, warm repeat must be a byte-identical cache hit, the
# deprecated /v1/run alias must answer byte-identically with a
# Deprecation header, and a mixed sweep (duplicates + one quarantined
# key) must stream through POST /v1/sweeps with dedup counters visible
# in /metrics. A figure workflow submitted twice through POST
# /v1/workflows must stream stage events cold and be fully memoized warm
# (zero stage executions, engine job counter unchanged), with the
# workflow counters visible in both /metrics formats. Also gates the
# observability surface: the Prometheus /metrics exposition must parse,
# X-Request-Id must appear in the captured logs and the retrievable
# Chrome trace, and non-2xx responses must carry the JSON error envelope.
HETEROPIPE_LOG=info cargo run --release -p heteropipe-bench --bin smoke

# Chaos gate: replays a pinned fixed-seed fault plan end-to-end (client
# retries -> server seams -> engine retries -> cache persistence) and
# asserts zero unrecovered faults, byte-identical responses vs the
# fault-free baseline, and quarantine self-heal after deliberate on-disk
# corruption. The plan seeds are compiled into the binary so every CI
# run replays the identical fault schedule.
HETEROPIPE_LOG=error cargo run --release -p heteropipe-bench --bin chaos

# Crash-resume gate: SIGKILL a durable serve process (and, in the
# cluster suite, a durable coordinator) mid-sweep, restart it over the
# same journal, and require completion with records byte-identical to an
# uninterrupted run — re-executing only the jobs the crash lost. The
# chaos binary above additionally exercises the journal fault seams
# (append refusal, replay EIO, on-disk rot -> quarantine).
cargo test -q --release -p heteropipe-bench --test crash_resume
cargo test -q --release -p heteropipe-cluster --test cluster coordinator_sigkill

# Cluster smoke: one coordinator over two loopback workers. A cold sweep
# must shard across both workers and answer byte-identically to a single
# node, a warm repeat must be served entirely from the workers' caches
# with zero executions, and a worker torn down mid-sweep (dropped response,
# then a real shutdown) must rehash and self-heal without changing a
# single record byte (docs/cluster.md).
HETEROPIPE_LOG=error cargo run --release -p heteropipe-bench --bin cluster_smoke -- --scale 0.05

# Performance checkpoint: regenerates BENCH_<today>.json at a small scale
# and compares against the latest committed BENCH_*.json (read before the
# overwrite, so a same-date baseline still counts). Beyond the binary's
# generous collapse tolerance, the strict gate makes any >10% regression
# in warm engine throughput or median sim wall time a hard failure here —
# CI baselines come from the same class of machine, so that budget is
# noise, not provenance.
HETEROPIPE_LOG=error HETEROPIPE_PERF_STRICT_PCT=10 \
    cargo run --release -p heteropipe-bench --bin perf -- --scale 0.05

# Non-fatal notice when the 2-worker cluster sweep ran slower than the
# single node in the fresh checkpoint (speedup < 1.0) — expected at this
# tiny scale; the diagnosis lives in docs/observability.md §5.
awk 'match($0, /"speedup":[0-9.eE+-]+/) {
    v = substr($0, RSTART + 10, RLENGTH - 10)
    if (v + 0 < 1.0) print "ci: NOTICE cluster sweep speedup " v "x < 1.0 (docs/observability.md)"
}' "BENCH_$(date -u +%Y-%m-%d).json"
