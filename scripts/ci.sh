#!/usr/bin/env bash
# CI gate: release build, one static-analysis run, the workspace test suite
# at two worker-pool sizes, clippy with warnings denied, the benchmark
# package's own tests, the two differential-fuzzing smokes (each also on a
# seed that rotates with HEAD) and (where installed) Miri. No step measures
# performance: `suite` (BENCHMARK.json) does, as parent/change pairs. The
# only files under version control a run rewrites are
# BENCH_{lint,difftest,aggregates}.json. Run
# from anywhere; operates on the repository this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

# Hard gate: the in-tree static analyzer (crates/lint) must report zero
# diagnostics. It enforces the untrusted-input taint rules, the
# concurrency pack (lock-order cycles, blocking under locks/in pool
# workers), and the hygiene pack described in DESIGN.md §"Static
# analysis v2"; suppressions require a live
# `// lint:allow(<rule>) — <reason>` comment (stale hatches are
# themselves diagnostics). The run is budgeted: >10 s wall fails CI.
# BENCH_lint.json records wall time, files analyzed and diagnostics.
cargo run -q --release -p lint -- --max-ms 10000 --bench-out BENCH_lint.json

# The whole workspace suite must pass with the write-side pool forced
# serial and forced wide: archives are required to be byte-identical at
# every thread count (see crates/loggrep/tests/parallel_determinism.rs).
# The root manifest's `default-members` is the whole workspace.
LOGGREP_THREADS=1 cargo test -q
LOGGREP_THREADS=4 cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied, so an intra-doc link to a renamed, deleted
# or private item fails here instead of rotting. `--lib` leaves out the
# `cli` binary, whose `loggrep` docs would collide with the library's.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --lib

# The benchmark package is a workspace of its own (suite/Cargo.toml), so
# nothing above builds it: an engine API change that breaks the frozen
# benchmark would otherwise first show when someone measures. Its tests
# are determinism, the hit-rate filters, a quick end-to-end smoke and the
# BENCHMARK.json schema, on the optimised build the benchmark measures.
cargo test -q --release --manifest-path suite/Cargo.toml

# Differential fuzzing smoke: a bounded seeded run of the whole engine
# matrix (full, SP, every §6.3 ablation, each compressed at 1 and 4
# threads to byte-identical archives, plus the baselines) against the
# naive oracle. Failures are shrunk and written to
# crates/difftest/corpus/ for replay; the committed corpus itself is
# replayed as part of `cargo test` (crates/difftest/tests/replay.rs).
# BENCH_difftest.json records throughput (cases/sec).
./target/release/difftest --seed 5 --cases 200 --budget-secs 120 \
    --bench-out BENCH_difftest.json

# The same smoke on a seed that rotates with every commit (the low 32 bits
# of HEAD; 5 outside a git checkout), so each commit fuzzes new wildcard
# and literal cases. No --bench-out: the committed BENCH_difftest.json
# stays the fixed-seed record. Reproduce a failure with the echoed seed
# (or --replay the corpus file it writes).
head=$(git rev-parse HEAD 2>/dev/null || true)
if [ -n "$head" ]; then rotating_seed=$((16#${head:32:8})); else rotating_seed=5; fi
echo "ci: rotating difftest seed ${rotating_seed}"
./target/release/difftest --seed "$rotating_seed" --cases 200 --budget-secs 120

# Aggregate-oracle smoke: each case runs one aggregate verb (count,
# count-by-template, top-K, histogram; ~half under a filter) through the
# same engine matrix and compares the merged multi-block result against a
# naive raw-line oracle. Also enforces the
# pushdown contract (unfiltered metadata verbs decompress zero Capsules;
# dictionary top-K at most one) and the aggregate cache contract.
# BENCH_aggregates.json records cases and decompression checks.
./target/release/difftest --aggregates --seed 5 --cases 60 \
    --budget-secs 120 --bench-out BENCH_aggregates.json

# The same aggregate smoke on the rotating seed (echoed above), without
# --bench-out. `count-by-template` and `histogram` read each group's row
# count and line numbers, which open rebuilds for a block's implied group.
echo "ci: rotating aggregates seed ${rotating_seed}"
./target/release/difftest --aggregates --seed "$rotating_seed" --cases 60 \
    --budget-secs 120

# Optional: run the tiny roundtrip under Miri when a nightly toolchain
# with Miri is installed; skip gracefully (with a note) everywhere else.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri.*(installed)'; then
    cargo +nightly miri test -p loggrep --test miri_roundtrip
else
    echo "ci: miri not available (nightly toolchain + miri component); skipping"
fi

# The workspace size ledger (ROADMAP aims 2 and 3): `src/` lines of the
# engine, the tooling and the shells around the engine, the engine's option
# count, and the lint suppressions outside the analyzer (whose own source
# and docs spell the marker).
echo "ci: engine src lines:  $(find crates/{loggrep,codec,strsearch,logparse}/src -name '*.rs' | xargs wc -l | tail -n 1)"
echo "ci: tooling src lines: $(find crates/{lint,difftest,telemetry,bench}/src suite/src -name '*.rs' | xargs wc -l | tail -n 1)"
echo "ci: shells src lines:  $(find crates/{cli,baselines,pool,workloads}/src -name '*.rs' | xargs wc -l | tail -n 1)"
echo "ci: LogGrepConfig fields: $(sed -n '/^pub struct LogGrepConfig {/,/^}/p' crates/loggrep/src/config.rs | grep -c '^    pub ')"
echo "ci: lint:allow hatches: $(grep -rF --include='*.rs' '// lint:allow(' crates/*/src | grep -vc '^crates/lint/')"
