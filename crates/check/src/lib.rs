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
//! * **Invariant checkers** ([`curve_checks`], written once for both
//!   tree types, and [`mesh_checks`]) — collective functions that every
//!   rank enters together; each returns the [`Violation`]s visible from
//!   the calling rank. They are pure observers: no checker mutates the structure it
//!   inspects, and the number and order of collective operations inside
//!   a checker never depends on the data, so corrupted structures are
//!   diagnosed instead of deadlocked on.
//! * **Stage guards** ([`guard_tree`], for either tree type, and
//!   [`guard_mesh`]) — the form used between AMR pipeline stages (rhea
//!   calls these in debug builds when `CHECK_INVARIANTS=1`): run a
//!   checker suite under an `obs` span, report violations through the
//!   recorder, and abort the run on the first global violation.
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
//! Cost classes are documented per checker and tabulated in DESIGN.md §10:
//! `O(local)` checkers touch only rank-local state plus O(P) metadata;
//! `O(collective)` checkers gather remote state proportional to the
//! global problem (the 2:1 checker gathers the full leaf union and is
//! meant for tests and debug runs, not production timesteps).

use obs::json::Value;
use obs::Recorder;
use octree::curve::{CurveLeaf, LeafCurve, TreeSeam};
use scomm::Comm;

pub mod curve_checks;
pub mod differential;
pub mod fuzz_amr;
pub mod mesh_checks;
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

/// Stage guard over a distributed tree, the octree or the forest: curve
/// order, partition completeness, and 2:1 balance across rank and tree
/// boundaries, under a `check`-category span. Collective; panics on the
/// first global violation.
pub fn guard_tree<L, S>(
    tree: &LeafCurve<L, S>,
    kind: octree::balance::BalanceKind,
    rec: Option<&Recorder>,
) where
    L: CurveLeaf + std::fmt::Debug,
    S: TreeSeam<L>,
{
    let _s = rec.map(|r| r.span_cat("check:tree", "check"));
    let mut v = curve_checks::morton_order(tree);
    v.extend(curve_checks::partition(tree));
    v.extend(curve_checks::balance21(tree, kind));
    if let Some(r) = rec {
        report(r, &v);
    }
    assert_clean(tree.comm(), &v);
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
    let mut v = curve_checks::ghost_symmetry(tree, &tree.ghosts().entries);
    v.extend(mesh_checks::constraints(tree, mesh));
    v.extend(mesh_checks::dof_numbering(tree, mesh));
    if let Some(r) = rec {
        report(r, &v);
    }
    assert_clean(tree.comm(), &v);
}
