#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# What stays deleted, each replaced by one production path:
# - the machine model, the hand-written comm table and the extrapolated
#   figure rows (every figure number is read from a clock or a counter);
# - the virtual-rank coroutine executor and its profile aggregator
#   (`spmd::run` is the one executor);
# - single-reduction MINRES with its batched dots, the interior/surface
#   overlap and the `simd` cargo feature, each measured end to end against
#   its simpler variant (EXPERIMENTS.md, "Retained fast paths");
# - the blocking and request-based point-to-point API, its overlap counter
#   and the duplicate collective entry points (the split-phase `Exchange`
#   is the one point-to-point path); forest search; the `alps` façade;
# - the `HashMap` node tables of `ExtractMesh` and its eight-probe
#   classification (now the oracle `check::oracles::hanging_master_probes`),
#   and its bucket-sorted corner pairs (now the oracle
#   `check::oracles::sorted_corners`);
# - `Csr::{transpose, diff_norm}`, which only tests called;
# - the forest's copies of the curve bookkeeping (`octree::curve` serves
#   both tree types) and the allocating `mark_elements` wrapper;
# - the per-component copies of the Stokes preconditioner (one fused
#   V-cycle reads and writes the interleaved velocity);
# - the per-tree-type 2:1 balance and ghost bodies: the octree's flat ghost
#   gather and its balance scratch, the forest's neighbour-fixpoint balance
#   and its own ghost recursion (`octree::curve` and `octree::ghost` serve
#   both tree types);
# - the in-tree `proptest` stand-in (seeded tests draw from
#   `scomm::rng::SplitMix64`) and the octree's copy of the invariant
#   checkers (`check::curve_checks` serves both tree types);
# - the mesh's node table with its per-node enum, `DofMap`'s copy of it and
#   `ExchangePattern::reverse_accumulate` (`mesh` alone owns and decodes the
#   one element-to-dof table, so no other crate names its hanging tag);
# - the owned block's global triplet list, the test-only copy of the
#   Dirichlet elimination and the unstable row sort that left the order of
#   summed duplicates undefined (`assemble_owned_block` places terms in one
#   row-grouped arena in element order, `Csr::eliminate` is the one
#   elimination, and `Csr` sums repeats in input order);
# - the per-block element quadratures of `fem::element`, the Stokes
#   solver's private level table and transport's per-velocity operator
#   store (`fem::element::LevelBlocks` forms every block from three
#   integrals; direct quadrature is the oracle `check::oracles::element`);
# - rhea's copy of the marking parameters (`AdaptParams` is
#   `octree::mark::MarkParams`) and mangll's unused kernel selector;
# - the Stokes solver's own element sweep with its AVX2 twin, its
#   two-stream velocity/pressure workspace and its `unsafe`, and the
#   transport rate's own element loop and exchange scratch (`fem::op::sweep`
#   is the one CG element sweep, and with `octree::simd` the one place a
#   `target_feature` build lives);
# - the octree's and the forest's wrapper structs around the curve, with
#   their one-line delegates and `curve()` accessors, the mesh's and the
#   forest's own local+ghost views and the forest's stage guard
#   (`LeafCurve` is the one distributed tree type, `DistOctree` an alias
#   of it, `LocalGhostView` the one merged view, `guard_tree` the one tree
#   guard);
# - the zero Dirichlet lift of every Picard step (`homogeneous_rhs` sets
#   the masked rows directly);
# - the three examples that duplicated a figure program, with their
#   archived outputs (each paper experiment has one program in
#   crates/bench, and the Figs. 5–7 front is `transport_workload_traced`);
# - the AMG and marking knobs no caller varied (`AmgOptions::{smooth_sweeps,
#   max_levels}`, `MarkParams::max_iterations`, now module constants) and
#   the unused `from_raw_keys` slice cast;
# - the hand-written capacity sums of every grow-only workspace and the
#   `minres.alloc_bytes` / `amr.alloc_bytes` counters built on them
#   (tests/allocations.rs counts real allocations with a counting
#   allocator), and mangll's private dense LU (`la::dense::Lu` is the one);
# - the `Vec`-returning generic `allreduce`, `allreduce_into`, the private
#   `gather_into` and the per-message payload copy of `exchange_start`
#   (`allreduce_{sum,max,min}` over `[T; N]` and `exscan_sum` fold every
#   rank's slot on the stack, and exchange payloads are recycled);
# - MINRES's stop against the initial guess's residual and the AMG's
#   symmetric sweep on each side of the coarse correction (MINRES stops at
#   tol·‖b‖_{M⁻¹}, and the V-cycle smooths forward before, backward after);
# - API nothing called: `mesh::extract::node_key`, `obs::Summary::excl_seconds`
#   and the allocating `rhea::adapt::adapt_mesh` wrapper (`adapt_mesh_ws`
#   with a caller-held workspace is the one adapt entry point);
# - API only its own tests called: the forest's edge and corner iterators
#   with their lattice-point transform, the `neighbors_full` wrapper, the
#   VTK writer, DG's refine-only `resample_onto` with its volume kernel,
#   `Lu`'s allocating `solve` and `octree::ops::linearize`
#   (`iterate_faces`, `adjacent_regions` over the seam and
#   `Lu::solve_in_place` are what programs run), and the AMG's LU fallback
#   for a coarsest level, which no test, figure or benchmark run took
#   (DESIGN.md §8);
# - the AMG's union of per-lane fine operators and the fusing constructor
#   that took one eliminated copy per lane (`Amg::masked` builds the
#   fused fine level from the one assembled matrix and the lane masks), and
#   `Octant::ancestor_at` / `is_ancestor_of`, which only tests called
#   (`contains` and `parent` say the same), and `Csr::matmul`, the general
#   sparse product the AMG setup no longer calls;
# - the hand-written halo copies: the mesh's `ExchangePattern` with its
#   `*_interleaved` rounds, the AMG's `Wire` and `fill_ghosts`, and
#   `DofMap::exchange_with` (`scomm::Halo` and `HaloBuffers` are the one
#   halo exchange, `DofMap::exchange_in` its one blocking workspace call);
# - the Stokes setup's own lane-sharing reduction, the mesh's scan for its
#   gid offset and the assembly's gather of the rank offsets (`la::Amg`
#   decides which lanes share a hierarchy, `Mesh::offsets` comes from one
#   gather at extraction and `la::DistCsr` carries it on).
# Production outside scomm calls neither `Comm::allgather` nor `Comm::bcast`:
# only the benchmark harness does (DESIGN.md §4).
echo "==> deleted code stays deleted"
if ls -d examples/{mantle_convection,advecting_front,spherical_advection}.rs \
    results/example_{mantle_convection,advecting_front,spherical_advection}.txt 2>/dev/null |
    grep . ||
    grep -rn 'fn from_raw_keys' crates ||
    grep -rnE 'capacity_bytes|fn alloc_bytes|(minres|amr)\.alloc_bytes' crates src tests examples ||
    grep -rn 'fn dense_lu' crates/mangll ||
    grep -rnE 'pub fn allreduce<|fn (allreduce_into|gather_into)\b|as_bytes\(chunk\)\.to_vec\(\)' \
        crates src tests examples ||
    grep -rnwE 'smooth_sweeps|max_levels' crates/la crates/stokes ||
    grep -rnw max_iterations crates/octree crates/rhea ||
    grep -rnE 'MachineModel|phase_comm_seconds|paper_core_counts|host_to_(model|flops)' \
    crates src tests examples ||
    grep -rnE 'run_virtual|scomm::vrank|global_asm|ParkSite|ProfileCollector|SCOMM_VRANK_STACK' \
        crates src tests examples ||
    grep -rnE 'DotBatch|minres_classic|CombinedDots|interior_elems|surface_elems|feature = "simd"' \
        crates src tests examples ||
    grep -rnE 'fn (send|recv|recv_any|sendrecv|isend|irecv|wait_into|waitall)<|RecvRequest|SendRequest|OVERLAP_COUNTER|overlap_ns|allgather_u64|search_points|SearchNode|alps::' \
        crates src tests examples ||
    grep -nE 'HashMap' crates/mesh/src/extract.rs ||
    grep -rnE 'fn sorted_corners\b' crates/mesh ||
    grep -nE 'fn (transpose|diff_norm)\b' crates/la/src/csr.rs ||
    grep -rnE 'fn hanging_master\b' crates/mesh ||
    grep -rnE 'fn (update_markers|coarsen_marked_into|refine_flags_no_marker)\b|target_lo' crates/forest/src ||
    grep -rn 'fn mark_elements\b' crates ||
    grep -nE '\b(rc|zc): Vec<f64>' crates/stokes/src/solver.rs ||
    grep -rnE 'struct (BalanceScratch|OwnerRanges)\b|GHOST_BLOCK' crates/forest crates/octree/src/parallel.rs ||
    grep -rn 'fn insulated' crates/forest ||
    grep -rn proptest Cargo.toml crates ||
    grep -rn octree_checks crates ||
    grep -rnE 'NodeResolution|node_table|elem_nodes|for_each_elem_corner|CornerRef|CONSTRAINED' \
        crates src tests examples ||
    grep -rnE 'pub fn reverse_accumulate\(' crates/mesh/src ||
    grep -rn HANGING_BIT crates src tests examples | grep -v '^crates/mesh/' ||
    grep -rn 'local_trips' crates/fem ||
    grep -n 'fn eliminate' crates/la/src/amg.rs ||
    grep -n 'sort_unstable' crates/la/src/csr.rs ||
    grep -rn 'struct LevelBlocks' crates/stokes ||
    grep -rnE 'fn (mass_matrix|advection_matrix|supg_matrices|viscous_matrix|divergence_matrix|pressure_stabilization)\b' crates/fem/src ||
    grep -nE 'OnceCell|ElementOps' crates/rhea/src/transport.rs ||
    grep -rn 'pub struct AdaptParams' crates/rhea ||
    grep -rn DerivativeKernel crates ||
    grep -nE 'SolverWorkspace|sweep_avx2|sweep_body|with_stream\(2\)|unsafe' -r crates/stokes/src ||
    grep -n RateScratch crates/rhea/src/transport.rs ||
    grep -rn target_feature crates | grep -vE '^crates/(octree/src/simd|fem/src/op)\.rs:' ||
    grep -rnE 'pub struct DistOctree|struct LeafView|fn (merged_view|view_containing)|fn guard_forest' \
        crates ||
    grep -rn 'fn curve(' crates/octree/src/parallel.rs crates/forest/src ||
    grep -n dirichlet_lift crates/stokes/src/picard.rs ||
    grep -rn SMOOTH_SWEEPS crates/la ||
    grep -n gamma_init crates/la/src/krylov.rs ||
    grep -rnE 'fn node_key\b' crates/mesh ||
    grep -nE 'fn excl_seconds\(&self, phase' crates/obs/src/summary.rs ||
    grep -rnE 'fn adapt_mesh\(|adapt::adapt_mesh\(' crates src tests examples ||
    grep -rnE 'fn (iterate_corners|iterate_edges|write_vtk|resample_onto|apply_volume|neighbors_full|linearize|apply_point_i64)\b' \
        crates src tests examples ||
    grep -nE 'fn solve\(&self, \w+: &\[f64\]\)' crates/la/src/dense.rs ||
    grep -nw Lu crates/la/src/amg.rs ||
    grep -nE 'fn (fuse|union)\b' crates/la/src/amg.rs ||
    grep -rnE 'fn (ancestor_at|is_ancestor_of)\b' crates src tests examples ||
    grep -n 'fn matmul' crates/la/src/csr.rs ||
    grep -rnE 'struct ExchangePattern|_interleaved\(|fn exchange_with\b' crates src tests examples ||
    grep -nE 'struct Wire\b|fn fill_ghosts\b' crates/la/src/amg.rs ||
    grep -rn globally_equal crates/stokes ||
    grep -rn exscan_sum crates/mesh/src ||
    grep -n allgatherv crates/fem/src/assembly.rs ||
    grep -rnE '\.(allgather|bcast)(::<[^>]*>)?\(' crates src tests examples | grep -v '^crates/scomm/' ||
    grep -rniE 'modeled|extrapolat' crates/bench/src results/*.txt; then
    echo "ci: deleted code is back (see above)" >&2
    exit 1
fi

# The documents cite each other by section and heading, and EXPERIMENTS.md
# indexes every archived output: a CHANGES.md entry longer than 600
# characters, a cited `DESIGN.md §N` without a `## N.` heading, a quoted
# `EXPERIMENTS.md, "…"` that no heading contains, or a `results/*.txt` that
# EXPERIMENTS.md does not name in full fails here. So does a `results/…`
# path (brace groups expanded, globs matched) in README.md, DESIGN.md or
# EXPERIMENTS.md that git does not track: each number cut from a document
# must stay in a file the document names. The size caps keep the documents
# readable in one sitting: EXPERIMENTS.md at most 71,400 bytes (half its
# size before its Trajectory was condensed), DESIGN.md at most 72,000, and
# each heading block under EXPERIMENTS.md's `## Trajectory` (its text up to
# the next heading of any level) at most 1,200 bytes, since a line cap does
# not bound a block of long lines. Detail beyond that belongs in results/
# or in git history, where the entry points.
echo "==> docs: sizes, entry lengths, section citations, archived outputs, sources"
python3 - <<'PY'
import fnmatch, glob, os, re, subprocess, sys

bad = []
for i, line in enumerate(open("CHANGES.md", encoding="utf-8").read().split("\n"), 1):
    if len(line) > 600:
        bad.append(f"CHANGES.md:{i}: entry is {len(line)} characters (cap 600)")
sections = set(re.findall(r"(?m)^## (\d+)\.", open("DESIGN.md", encoding="utf-8").read()))
experiments = open("EXPERIMENTS.md", encoding="utf-8").read()
headings = re.findall(r"(?m)^#+ (.*)$", experiments)
every = subprocess.run(["git", "ls-files"], capture_output=True, text=True,
                       check=True).stdout.split()
tracked = [f for f in every if f.endswith((".md", ".rs", ".sh", ".toml"))]
# At the root only the project's own documents are checked; other root notes
# (paper abstract, related work) quote citations as examples.
documents = {"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"}
for path in tracked:
    if path.startswith("benchmark/"):
        continue
    if "/" not in path and path.endswith(".md") and path not in documents:
        continue
    text = open(path, encoding="utf-8").read()
    # Citations may wrap across comment lines.
    text = re.sub(r"\n[ \t]*(?:///?!?|#(?!#))?[ \t]*", " ", text)
    for n in re.findall(r"DESIGN\.md,? §(\d+)", text):
        if n not in sections:
            bad.append(f"{path}: cites DESIGN.md §{n}, which has no '## {n}.' heading")
    for q in re.findall(r'EXPERIMENTS\.md,? "([\w`][^"]*)"', text):
        if not any(q in h for h in headings):
            bad.append(f'{path}: quotes EXPERIMENTS.md, "{q}", which no heading contains')
for f in sorted(glob.glob("results/*.txt")):
    if os.path.basename(f) not in experiments:
        bad.append(f"{f} is not named in EXPERIMENTS.md")

caps = {"EXPERIMENTS.md": 71_400, "DESIGN.md": 72_000}
for path, cap in caps.items():
    size = os.path.getsize(path)
    if size > cap:
        bad.append(f"{path} is {size} bytes (cap {cap})")
trajectory = re.search(r"(?ms)^## Trajectory\n.*?(?=^## |\Z)", experiments).group(0)
for block in re.split(r"\n(?=#+ )", trajectory):
    size = len(block.encode("utf-8"))
    if size > 1200:
        bad.append(f"EXPERIMENTS.md: heading block is {size} bytes (cap 1200): "
                   + block.split("\n", 1)[0])

def expand(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [q for alt in m.group(1).split(",")
            for q in expand(path[:m.start()] + alt + path[m.end():])]

for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
    text = open(doc, encoding="utf-8").read()
    for ref in re.findall(r"(?<![\w./-])((?:[\w.-]+/)*results/[\w./{},*-]*)", text):
        for path in expand(ref.rstrip(".,")):
            pattern = path + "*" if path.endswith("/") else path
            if not any(fnmatch.fnmatchcase(f, pattern) for f in every):
                bad.append(f"{doc}: names {path}, which git does not track")
for b in bad:
    print(b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY

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
# iterates, which is a claim about the optimized code too: `la` compares
# the fused fine level built from one matrix and the lane masks with one
# `Amg::new` per eliminated lane matrix, `stokes` the MINRES iterates with
# three scalar hierarchies, and the sweep's two builds are compared with
# every production kernel (fem, stokes, rhea). The warm-path and setup
# allocation counts are pinned for the optimized code too.
echo "==> la, fem, stokes, rhea, allocations (release)"
cargo test -q --release -p la -p fem -p stokes -p rhea
cargo test -q --release --test allocations

# All ten figure bins, so that a figure bin that panics fails here. The
# cubed-sphere run
# (level 1, 192 elements, 40 steps) is timed: it is the one figure smoke
# of the forest and DG stack. The Section VII kernel sweep runs both
# derivative kernels at every order the const-order kernels are built for
# (1–8, batches sized by flops, ~2 s). Fig. 2 (MINRES iterations over
# size and ranks) and Fig. 9 (AMG setup and V-cycles) are the Stokes
# solver's and the AMG's, each under a second. Figs. 5 and 7 run the adapt pipeline on
# the advected front at P ∈ {1, 2, 4, 8}. Fig. 8 (full Stokes solves per
# rank count, ~8 s) and Section VI (the yielding run, ~7 s) are the
# longest. Figs. 7 and 8 write their run manifests under results/obs of
# their working directory, so they run in a scratch one and the archived
# manifests stay as committed.
echo "==> figure bins smoke (release)"
cargo run -q --release -p rhea-bench --bin fig6_strong_scaling >/dev/null
cargo run -q --release -p rhea-bench --bin fig10_amr_timings >/dev/null
cargo build -q --release -p rhea-bench --bin sec7_sphere_advection \
    --bin sec7_dg_kernels --bin fig2_stokes_weak --bin fig9_amg_vs_laplace \
    --bin fig5_adaptation_stats --bin fig7_weak_breakdown --bin fig8_full_breakdown \
    --bin sec6_yielding
for bin in sec7_sphere_advection sec7_dg_kernels fig2_stokes_weak fig9_amg_vs_laplace \
    fig5_adaptation_stats sec6_yielding; do
    TIMEFORMAT="$bin: %R s"
    time cargo run -q --release -p rhea-bench --bin "$bin" >/dev/null
done
obs_dir=$(mktemp -d)
for bin in fig7_weak_breakdown fig8_full_breakdown; do
    TIMEFORMAT="$bin: %R s"
    time (cd "$obs_dir" && cargo run -q --release --manifest-path "$OLDPWD/Cargo.toml" \
        -p rhea-bench --bin "$bin" >/dev/null)
done
rm -rf "$obs_dir"

# The benchmark is a package of its own (not a workspace member): its
# smoke run and failing-path tests.
echo "==> benchmark smoke"
timeout 600 cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The paired-benchmark protocol is run by hand (it takes tens of minutes);
# here only that the script parses.
echo "==> bash -n scripts/bench_pair.sh"
bash -n scripts/bench_pair.sh

echo "ci: all green"
