#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# What stays deleted: the machine model, the hand-written comm table and
# the extrapolated figure rows (PR 24); the virtual-rank coroutine
# executor and its profile aggregator (PR 25).
# Single-reduction MINRES with its batched dots, the interior/surface
# overlap and the `simd` cargo feature, each measured end to end against
# its simpler variant (EXPERIMENTS.md, "Retained fast paths").
# The blocking and request-based point-to-point API, its overlap counter
# and the duplicate collective entry points (the split-phase `Exchange`
# is the one point-to-point path); forest search; the `alps` façade.
# The hashed node tables of `ExtractMesh` and its eight-probe
# classification (now the oracle `check::oracles::hanging_master_probes`).
# The forest's copies of the curve bookkeeping (`octree::curve` serves
# both tree types) and the allocating `mark_elements` wrapper.
# The per-component copies of the Stokes preconditioner (one fused
# V-cycle reads and writes the interleaved velocity).
# The per-tree-type 2:1 balance and ghost bodies: the octree's flat ghost
# gather and its balance scratch, the forest's neighbour-fixpoint balance
# and its own ghost recursion (`octree::curve` and `octree::ghost` serve
# both tree types).
echo "==> deleted code stays deleted"
if grep -rnE 'MachineModel|phase_comm_seconds|paper_core_counts|host_to_(model|flops)' \
    crates src tests examples ||
    grep -rnE 'run_virtual|scomm::vrank|global_asm|ParkSite|ProfileCollector|SCOMM_VRANK_STACK' \
        crates src tests examples ||
    grep -rnE 'DotBatch|minres_classic|CombinedDots|interior_elems|surface_elems|feature = "simd"' \
        crates src tests examples ||
    grep -rnE 'fn (send|recv|recv_any|sendrecv|isend|irecv|wait_into|waitall)<|RecvRequest|SendRequest|OVERLAP_COUNTER|overlap_ns|allgather_u64|search_points|SearchNode|alps::' \
        crates src tests examples ||
    grep -nE 'HashMap' crates/mesh/src/extract.rs ||
    grep -rnE 'fn hanging_master\b' crates/mesh ||
    grep -rnE 'fn (update_markers|coarsen_marked_into|refine_flags_no_marker)\b|target_lo' crates/forest/src ||
    grep -rn 'fn mark_elements\b' crates ||
    grep -nE '\b(rc|zc): Vec<f64>' crates/stokes/src/solver.rs ||
    grep -rnE 'struct (BalanceScratch|OwnerRanges)\b|GHOST_BLOCK' crates/forest crates/octree/src/parallel.rs ||
    grep -rn 'fn insulated' crates/forest ||
    grep -rniE 'modeled|extrapolat' crates/bench/src results/*.txt; then
    echo "ci: deleted code is back (see above)" >&2
    exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every unit, integration and differential test of every crate — the
# fault-injection, AMR-fuzz, oracle and P = 64 MINRES suites in
# crates/check/tests, and the dead-peer tests in scomm, included.
# Nothing below repeats a test this pass already ran.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Same suite with the distributed invariant checkers armed: stage
# guards in octree/forest/mesh/rhea self-validate after every AMR
# phase. Debug builds only — release builds compile the guards out.
echo "==> CHECK_INVARIANTS=1 cargo test -q --workspace"
CHECK_INVARIANTS=1 cargo test -q --workspace

# The AMR fuzz acceptance run (200 seeded cycles over P ∈ {1, 2, 4, 8},
# the merge kernel against the point-location path every cycle) is
# #[ignore]d in the debug passes above (it would dominate them); ~15 s
# optimized.
echo "==> fuzz_amr 200 cycles (release, --ignored)"
cargo test -q --release -p check --test fuzz_amr -- --ignored

# DG in release: the 1e-12 conservation and bitwise P-vs-serial tests are
# claims about the optimized code too (fused, vectorized arithmetic); the
# debug passes above are otherwise the only place DG runs.
echo "==> mangll (release)"
cargo test -q --release -p mangll

# The fused V-cycle and the AVX2 element sweep claim bitwise-identical
# iterates, which is a claim about the optimized code too.
echo "==> la, stokes (release)"
cargo test -q --release -p la -p stokes

# The two figure bins that finish in seconds, so that a figure bin that
# panics fails here; the other eight are run by hand.
echo "==> figure bins smoke (release)"
cargo run -q --release -p rhea-bench --bin fig6_strong_scaling >/dev/null
cargo run -q --release -p rhea-bench --bin fig10_amr_timings >/dev/null

# The benchmark is a package of its own (not a workspace member): its
# smoke run and failing-path tests.
echo "==> benchmark smoke"
timeout 600 cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The paired-benchmark protocol is run by hand (it takes tens of minutes);
# here only that the script parses.
echo "==> bash -n scripts/bench_pair.sh"
bash -n scripts/bench_pair.sh

echo "ci: all green"
