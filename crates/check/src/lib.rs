//! # check — runtime verification for the distributed AMR stack
//!
//! The paper's scalability results rest on distributed invariants that
//! are easy to break and hard to observe: global Morton order and leaf
//! non-overlap, 2:1 balance across rank and tree boundaries, partition
//! ownership completeness, hanging-node constraint consistency, and
//! ghost-layer symmetry. A violation of any of these does not crash the
//! run — it silently corrupts the solve many phases later, usually only
//! at specific rank counts. This crate makes them checkable:
//!
//! * **Invariant checkers** ([`octree_checks`], [`forest_checks`],
//!   [`mesh_checks`]) — collective functions that every rank enters
//!   together; each returns the [`Violation`]s visible from the calling
//!   rank. They are pure observers: no checker mutates the structure it
//!   inspects, and the number and order of collective operations inside
//!   a checker never depends on the data, so corrupted structures are
//!   diagnosed instead of deadlocked on.
//! * **Stage guards** ([`guard_tree`], [`guard_forest`], [`guard_mesh`])
//!   — the form used between AMR pipeline stages (rhea calls these in
//!   debug builds when `CHECK_INVARIANTS=1`): run a checker suite under
//!   an `obs` span, report violations through the recorder, and abort
//!   the run on the first global violation.
//! * **Differential harness** ([`differential`]) — runs the same seeded
//!   problem at several rank counts and asserts that the global leaf
//!   set, the node numbering, and (to tolerance) solver residual series
//!   are independent of P.
//! * **Adaptation fuzzer** ([`fuzz_amr`]) — seeded property-based
//!   mark→refine→coarsen→balance→partition→transfer cycles that assert
//!   every checker, bitwise balance equality against the naive oracle,
//!   and field-transfer conservation; failures replay from the
//!   `(seed, cycle, p)` triple in the panic message.
//! * **Oracles** ([`oracles`]) — the one independent reference
//!   implementation per invariant that production paths are compared
//!   against; none of them is public API of the crate it checks.
//!
//! Fault injection lives in `scomm::fault` (it must interpose on the
//! communicator internals); its smoke tests live here, where the full
//! AMR pipeline is available to exercise under an adversarial schedule.
//!
//! Cost classes are documented per checker and tabulated in DESIGN.md §9:
//! `O(local)` checkers touch only rank-local state plus O(P) metadata;
//! `O(collective)` checkers gather remote state proportional to the
//! global problem (the 2:1 checker gathers the full leaf union and is
//! meant for tests and debug runs, not production timesteps).

use obs::json::Value;
use obs::Recorder;
use octree::curve::NoSeam;
use scomm::Comm;

pub mod differential;
pub mod forest_checks;
pub mod fuzz_amr;
pub mod mesh_checks;
pub mod octree_checks;
pub mod oracles;

pub use differential::{run_differential, DiffOptions, Fingerprint};

/// One invariant violation, attributed to the rank that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Checker name (e.g. `"morton_order"`, `"ghost_symmetry"`).
    pub checker: &'static str,
    /// Rank that observed the violation.
    pub rank: usize,
    /// Human-readable description with the offending identities.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] rank {}: {}", self.checker, self.rank, self.detail)
    }
}

pub(crate) fn violation(checker: &'static str, rank: usize, detail: String) -> Violation {
    Violation {
        checker,
        rank,
        detail,
    }
}

/// Report violations through an `obs` recorder: one `check.violation`
/// instant per finding (carrying the checker name and detail, so trace
/// viewers show it with phase context) and a `check.violations` counter.
pub fn report(rec: &Recorder, violations: &[Violation]) {
    for v in violations {
        rec.instant(
            "check.violation",
            Value::object([
                ("checker", Value::Str(v.checker.to_string())),
                ("detail", Value::Str(v.detail.clone())),
            ]),
        );
    }
    if !violations.is_empty() {
        rec.add_count("check.violations", violations.len() as u64);
    }
}

/// Collective: panic on every rank if any rank found a violation.
/// Each rank's panic message carries its own findings plus the global
/// count, so the failure is diagnosable from any rank's backtrace.
pub fn assert_clean(comm: &Comm, violations: &[Violation]) {
    let total = comm.allreduce_sum(&[violations.len() as u64])[0];
    if total > 0 {
        let mut msg = format!(
            "{total} distributed invariant violation(s) detected globally \
             ({} visible from rank {})",
            violations.len(),
            comm.rank()
        );
        for v in violations {
            msg.push_str("\n  ");
            msg.push_str(&v.to_string());
        }
        panic!("{msg}");
    }
}

/// Stage guard over a distributed octree: Morton order, partition
/// completeness, and 2:1 balance, under a `check`-category span.
/// Collective; panics on the first global violation.
pub fn guard_tree(
    tree: &octree::parallel::DistOctree,
    kind: octree::balance::BalanceKind,
    rec: Option<&Recorder>,
) {
    let _s = rec.map(|r| r.span_cat("check:tree", "check"));
    let mut v = octree_checks::morton_order(tree);
    v.extend(octree_checks::partition(tree));
    v.extend(octree_checks::balance21(tree, kind));
    if let Some(r) = rec {
        report(r, &v);
    }
    assert_clean(tree.comm(), &v);
}

/// Stage guard over a forest: curve order, partition completeness,
/// inter-tree 2:1 balance, and kind-aware symmetry of the recursive
/// face/edge/corner ghost layer. Collective; panics on the first global
/// violation.
pub fn guard_forest(
    forest: &forest::Forest,
    kind: octree::balance::BalanceKind,
    rec: Option<&Recorder>,
) {
    let _s = rec.map(|r| r.span_cat("check:forest", "check"));
    let mut v = forest_checks::morton_order(forest);
    v.extend(forest_checks::partition(forest));
    v.extend(forest_checks::balance21(forest, kind));
    let ghosts = forest.ghosts();
    v.extend(forest_checks::ghost_symmetry(
        forest.curve(),
        &forest.local,
        forest.connectivity().as_ref(),
        &ghosts.entries,
    ));
    if let Some(r) = rec {
        report(r, &v);
    }
    assert_clean(forest.comm(), &v);
}

/// Stage guard over an extracted mesh (plus the ghost layer of the tree
/// it came from): constraint consistency, dof numbering, and the
/// kind-aware ghost symmetry. Collective; panics on the first global
/// violation.
pub fn guard_mesh(
    tree: &octree::parallel::DistOctree,
    mesh: &mesh::extract::Mesh,
    rec: Option<&Recorder>,
) {
    let _s = rec.map(|r| r.span_cat("check:mesh", "check"));
    let ghosts = tree.ghost_layer();
    let mut v = forest_checks::ghost_symmetry(tree.curve(), &tree.local, &NoSeam, &ghosts);
    v.extend(mesh_checks::constraints(tree, mesh));
    v.extend(mesh_checks::dof_numbering(tree, mesh));
    if let Some(r) = rec {
        report(r, &v);
    }
    assert_clean(tree.comm(), &v);
}
