#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline —
# no registry, no network, no vendored crates. See README.md ("Hermetic
# build") for the policy this enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

# Smoke-scale runs below write their BENCH_*.json artifacts under
# target/bench-smoke/, never over the committed full-scale artifacts at
# the repo root. Hash those now; the last step fails if any changed.
committed_artifacts=$(sha256sum BENCH_*.json)

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The index crate's oracle tests again, at the release profile: opt-level
# 3 with target-cpu=native is the code the service runs, and a lane
# kernel's vectorization (and so any float-order slip in it) can differ
# from the test profile's opt-level 2.
cargo test -q --release --offline -p duo-retrieval --lib
# The index properties too, at the release profile: there overflowing
# arithmetic wraps instead of panicking, so only this run shows the
# hostile-image property's wrapped counts meeting the code the service
# runs.
cargo test -q --release --offline --test index_properties
# The same for the kernels every backbone forward and backward runs: the
# convolution lowering's and fold's run kernels and the packing straight
# into GEMM strips, forward and transposed (duo-tensor), the lane Linear
# (duo-nn), the one-sided backward passes against the full one for every
# architecture (duo-models), the surrogate steal against its reference
# loop (duo-attack), and the GEMM/convolution bit-identity suite.
cargo test -q --release --offline -p duo-tensor -p duo-nn -p duo-models -p duo-attack --lib
cargo test -q --release --offline --test kernel_bit_identity

# End-to-end benchmark: a package of its own (e2e_bench/, outside the
# workspace) that drives the crates through their public APIs. Building
# it and running its own tests here makes a public-API change in
# duo-retrieval or duo-serve that breaks the benchmark fail tier-1
# instead of the benchmark run after it.
cargo build --release --offline --manifest-path e2e_bench/Cargo.toml
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

# Serving-layer smoke: the demo stands up a live duo-serve service
# (concurrent clients, micro-batching, budget + rate-limit rejections)
# and must exit cleanly.
cargo run --release --offline --example serve_demo

# Chaos smoke: the full steal + attack pipeline through the service under
# a seeded fault schedule. The binary itself asserts determinism and
# exact query-budget accounting (charged == served + failed) and exits
# nonzero on any drift.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin chaos_serve

# Mutation smoke: a live service absorbing inserts, deletes, and a
# mid-flap rebalance while the fault schedule rages. The binary asserts
# same-seed bit-identical replay of the whole mutate+query+fault trace
# and zero budget drift (charged == served + failed, refunds exact).
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin mutate_serve

# Documentation gate: every public item documented, every doc-example
# compiles. Warnings are errors so rustdoc regressions fail tier-1.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Index smoke: the shard-index bench at tiny scale — exercises the seed
# scan vs SoA vs IVF vs PQ ADC paths end to end, asserts the audited
# recall floor on the PQ entry, and writes
# BENCH_index.json (timed rows plus bytes-per-vector and recall-loss
# pseudo-metric rows) for the threshold gate below.
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench index

# Index sweep smoke: asserts the equivalence contracts (IVF full probe
# == exact; PQ full probe + full-depth rerank bit-identical to
# exact), that recall audits fire on live IVF traffic, and that the
# per-mode breakdown attributes PQ audits to the pq bucket with live
# code-byte counters.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin index_sweep

# Kernel + serving + epoch bench smokes: the GEMM bench asserts the
# packed kernel bit-identical to the reference before timing the two
# interleaved, the mutate bench asserts the epoch path
# ranks identically to the frozen-snapshot baseline, and all three write
# their BENCH_*.json artifacts under target/bench-smoke/.
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench gemm
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench serve
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench mutate

# Campaign smoke: the full attacker zoo (DUO, Vanilla, TIMI, HEU-Nes,
# HEU-Sim, sparse-RL, feature-map) as 8 concurrent metered clients
# against a live duo-serve instance. The binary asserts fleet-wide exact
# budget accounting and bit-identical seeded replay of the leaderboard,
# and writes BENCH_campaign.json for the gate below.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin campaign

# Red-vs-blue smoke: the attacker zoo against the *defended* service —
# streaming detection at admission, squeeze purification on the
# inference path, benign control lanes, and a fault-injected accounting
# phase. The binary itself asserts two same-seed defended runs produce a
# byte-identical artifact before writing BENCH_defense.json; running it
# twice here proves the whole experiment (not just the in-process
# replay) is deterministic end to end.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin red_vs_blue
defense_smoke=target/bench-smoke/BENCH_defense.json
cp "$defense_smoke" "$defense_smoke.replay"
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin red_vs_blue
cmp "$defense_smoke" "$defense_smoke.replay" \
  || { echo "red_vs_blue: same-seed reruns diverged" >&2; exit 1; }
rm -f "$defense_smoke.replay"

# Artifact + threshold gate: every emitted file (gemm, serve, campaign,
# mutate, index, defense) must parse and carry every required field (name,
# samples, min/median/p95/mean/trimmed_mean/max), and the smoke-scale
# rules in BENCH_thresholds.txt must hold on the trimmed means — a
# kernel perf regression, a broken attack contract (zero-query family
# charging queries, sparse family going dense), or a compressed-index
# contract break (PQ slower than the wall, code footprint above the
# ratio, audited recall loss over 0.05) fails tier-1 here, not just a
# schema break. (Full-scale rules are skipped at smoke scale; they gate
# the committed BENCH_*.json artifacts instead.)
DUO_SCALE=smoke cargo run --release --offline -p duo-bench --bin bench_check

# The same gate on the committed full-scale artifacts at the repo root:
# the rules naming full-scale entries apply there, and the ones naming
# smoke-only entries are skipped.
cargo run --release --offline -p duo-bench --bin bench_check

# Nothing above may have rewritten a committed artifact.
[ "$(sha256sum BENCH_*.json)" = "$committed_artifacts" ] \
  || { echo "verify: a committed BENCH_*.json changed during the run" >&2; exit 1; }
