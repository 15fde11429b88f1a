#!/usr/bin/env bash
# CI entry point: tier-1 verification plus style gates.
#
#   ./ci.sh
#
# Runs, in order:
#   1. release build of the whole workspace          (tier-1)
#   2. the full test suite                           (tier-1)
#   3. rustfmt in check mode
#   4. clippy across the workspace with -D warnings
#   5. a quick-effort end-to-end run of every experiment (smoke test
#      for the harness + engine on real workloads; ~1 s)
#   6. the differential model-conformance suite, quick profile (the
#      Section 2 validator over property-generated workloads, the
#      oracle-vs-physical cross-check, the oracle-vs-multihop check
#      that the multihop medium on a complete topology reproduces the
#      oracle's slot count in every trial, and the medium sweep running
#      the validator over all three media)
#   7. the same experiment smoke with the in-step validator compiled
#      in (--features validate), so every slot of every experiment is
#      checked against the model contract end to end
#   8. the crn-sim and crn-core tests in release with the in-step
#      validator compiled in, so every slot of every engine and
#      protocol test is checked against the model contract too
#   9. rustdoc across the workspace with warnings denied (broken
#      intra-doc links are errors)
#  10. every experiment at full effort (~4 s), diffed against the
#      recorded tables in results/experiments-full.md; the
#      "[<id> completed in …]" timing lines are ignored
#  11. every example under examples/, built in release and run (~0.1 s)
#  12. the ignored large-scale stress tests (tests/stress.rs) in release
#      (well under a second once built)
#  13. the benchmark package (perfbench/, its own workspace) built and
#      its transparency test run: the benchmark reads the engine only
#      through its public API (Network::with_medium, the Medium trait
#      with Medium::resolve filling channel records, Network::step,
#      WorkerPool, and the hidden no-op set_parallelism and ParConfig
#      kept for it), so an API change that breaks it fails here rather
#      than in a benchmark run
#  14. the vendored proptest stand-in's own tests (vendor/proptest, its
#      own workspace): its case generator is a private copy of
#      crn_sim::rng's, and these tests cover its strategies
#  15. clippy over vendor/proptest's library and tests with -D
#      warnings (step 4 covers only the root workspace)
#
# Everything is offline: external dependencies resolve to the stubs
# under vendor/ (see Cargo.toml [workspace.dependencies]).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> experiments all --quick (smoke)"
cargo run --release -q -p crn-bench --bin experiments -- all --quick > /dev/null

echo "==> conformance --quick (differential suite)"
cargo run --release -q -p crn-bench --bin conformance -- --quick

echo "==> experiments all --quick with the in-step validator (smoke)"
cargo run --release -q -p crn-bench --features validate --bin experiments -- all --quick > /dev/null

echo "==> crn-sim and crn-core tests with the in-step validator"
cargo test --release -q -p crn-sim -p crn-core --features crn-sim/validate

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> experiments all (full effort) against results/experiments-full.md"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
cargo run --release -q -p crn-bench --bin experiments -- all --out "$tmp" > /dev/null
strip_footers() { grep -Ev '^\[.* completed in .* effort\]$' "$1"; }
if ! diff <(strip_footers results/experiments-full.md) <(strip_footers "$tmp"); then
    echo "the tables differ from results/experiments-full.md (diff above)" >&2
    exit 1
fi

echo "==> examples (release)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "  -> $name"
    cargo run --release -q --example "$name" > /dev/null
done

echo "==> stress tests (release, ignored by default)"
cargo test --release -q --test stress -- --ignored

echo "==> perfbench: build and transparency test"
(cd perfbench && cargo test --release -q)

echo "==> vendor/proptest: its own tests"
cargo test -q --manifest-path vendor/proptest/Cargo.toml

echo "==> vendor/proptest: clippy -D warnings"
cargo clippy --manifest-path vendor/proptest/Cargo.toml --all-targets -- -D warnings

echo "ci.sh: all green"
