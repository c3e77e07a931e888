//! Aggregated per-rank telemetry and the cross-rank merge.

use std::collections::BTreeMap;

use crate::json::{ToJson, Value};
use crate::metrics::LogHistogram;

/// Types whose per-rank instances combine into a world-wide aggregate.
///
/// Implementations must be **associative and commutative** (up to floating
/// point), so a world's profiles can be reduced tree-wise, pairwise, or in
/// rank order with the same result — the same contract as an MPI reduction
/// operator.
pub trait Reduce {
    fn reduce(&mut self, other: &Self);

    /// Fold a sequence of values into one (empty sequence ⇒ `Default`).
    fn reduce_all<'a, I>(items: I) -> Self
    where
        Self: Default + Sized + 'a,
        I: IntoIterator<Item = &'a Self>,
    {
        let mut acc = Self::default();
        for item in items {
            acc.reduce(item);
        }
        acc
    }
}

/// Accumulated time of one named span (phase) on one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Category ("amr", "solve", "comm", …) of the span.
    pub cat: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Inclusive wall-clock nanoseconds (children included).
    pub incl_ns: u64,
    /// Exclusive wall-clock nanoseconds (children subtracted).
    pub excl_ns: u64,
}

impl PhaseStats {
    pub fn incl_seconds(&self) -> f64 {
        self.incl_ns as f64 / 1e9
    }

    pub fn excl_seconds(&self) -> f64 {
        self.excl_ns as f64 / 1e9
    }
}

impl Reduce for PhaseStats {
    fn reduce(&mut self, other: &Self) {
        if self.cat.is_empty() {
            self.cat = other.cat.clone();
        }
        self.count += other.count;
        self.incl_ns += other.incl_ns;
        self.excl_ns += other.excl_ns;
    }
}

impl ToJson for PhaseStats {
    fn to_json_value(&self) -> Value {
        Value::object([
            ("cat", Value::from(self.cat.as_str())),
            ("count", Value::from(self.count)),
            ("incl_s", Value::from(self.incl_seconds())),
            ("excl_s", Value::from(self.excl_seconds())),
        ])
    }
}

/// One rank's aggregated telemetry: phase times, counters, histograms.
///
/// This is the mergeable "registry" view of a [`crate::Recorder`]; the
/// ordered event list lives in [`crate::RankProfile`] instead, because
/// event-list concatenation is not commutative.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    pub phases: BTreeMap<String, PhaseStats>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, LogHistogram>,
}

impl Summary {
    /// Inclusive seconds of a named phase (0 if absent).
    pub fn incl_seconds(&self, phase: &str) -> f64 {
        self.phases
            .get(phase)
            .map(|p| p.incl_seconds())
            .unwrap_or(0.0)
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total inclusive seconds across phases of one category.
    pub fn cat_incl_seconds(&self, cat: &str) -> f64 {
        self.phases
            .values()
            .filter(|p| p.cat == cat)
            .map(|p| p.incl_seconds())
            .sum()
    }
}

impl Reduce for Summary {
    fn reduce(&mut self, other: &Self) {
        for (name, stats) in &other.phases {
            self.phases.entry(name.clone()).or_default().reduce(stats);
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }
}

impl ToJson for Summary {
    fn to_json_value(&self) -> Value {
        Value::object([
            (
                "phases",
                Value::object(
                    self.phases
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json_value())),
                ),
            ),
            (
                "counters",
                Value::object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::from(v))),
                ),
            ),
            (
                "histograms",
                Value::object(
                    self.hists
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json_value())),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Summary {
        let mut s = Summary::default();
        let mut h = LogHistogram::new();
        h.record(seed);
        h.record(seed * 3 + 1);
        s.hists.insert("msg_bytes".into(), h);
        s.counters.insert("iters".into(), seed + 2);
        s.phases.insert(
            "BalanceTree".into(),
            PhaseStats {
                cat: "amr".into(),
                count: seed,
                incl_ns: 100 * seed,
                excl_ns: 60 * seed,
            },
        );
        if seed.is_multiple_of(2) {
            s.phases.insert(
                "MINRES".into(),
                PhaseStats {
                    cat: "solve".into(),
                    count: 1,
                    incl_ns: 5000,
                    excl_ns: 5000,
                },
            );
        }
        s
    }

    #[test]
    fn reduce_is_commutative_and_associative() {
        let (a, b, c) = (sample(2), sample(5), sample(9));
        let mut ab_c = a.clone();
        ab_c.reduce(&b);
        ab_c.reduce(&c);
        let mut bc = b.clone();
        bc.reduce(&c);
        let mut a_bc = a.clone();
        a_bc.reduce(&bc);
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ba = b.clone();
        ba.reduce(&a);
        let mut ab = a.clone();
        ab.reduce(&b);
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn reduce_all_handles_empty_and_identity() {
        let zero = Summary::reduce_all(std::iter::empty::<&Summary>());
        assert_eq!(zero, Summary::default());
        let a = sample(3);
        let merged = Summary::reduce_all([&a]);
        assert_eq!(merged, a);
        let mut with_default = a.clone();
        with_default.reduce(&Summary::default());
        assert_eq!(with_default, a, "default is the identity");
    }

    #[test]
    fn accessors() {
        let s = sample(4);
        assert_eq!(s.counter("iters"), 6);
        assert_eq!(s.counter("missing"), 0);
        assert!(s.incl_seconds("BalanceTree") > 0.0);
        assert_eq!(s.incl_seconds("nope"), 0.0);
        assert!(s.cat_incl_seconds("solve") > 0.0);
    }
}
