//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` repeats these names with a direction and, for the
//! end-to-end ones, a bound; `tests/bench_smoke.rs` holds the two in step.

use std::collections::BTreeMap;

use obs::Value;

/// What a user of the system sees. Printed by an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("rank_cpu_max_s", "s"),
    ("elem_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Counts that must repeat exactly from run to run of one (workload, seed,
/// seconds); `bench run` fails a workload as nondeterministic otherwise.
pub const EXACT_COUNTS: [&str; 5] = [
    "octree.leaves",
    "la.minres_iters",
    "scomm.p2p_msgs",
    "scomm.p2p_bytes",
    "scomm.collectives",
];

/// Single-layer metrics, measured from outside each layer. Printed by a
/// traced run. A workload that does not enter a layer prints 0 for it.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("scomm.p2p_msgs", "count"),
    ("scomm.p2p_bytes", "count"),
    ("scomm.collectives", "count"),
    ("scomm.collective_bytes", "count"),
    ("scomm.allreduce_us", "us"),
    ("scomm.wait_share", "ratio"),
    ("host.rank_imbalance", "ratio"),
    ("host.alloc_count", "count"),
    ("host.alloc_bytes", "count"),
    ("octree.leaves", "count"),
    ("octree.refined", "count"),
    ("octree.coarsened", "count"),
    ("octree.balance_added", "count"),
    ("octree.ghosts", "count"),
    ("octree.mark_ms", "ms"),
    ("octree.balance_ms", "ms"),
    ("octree.partition_ms", "ms"),
    ("octree.ghost_ms", "ms"),
    ("mesh.extract_ms", "ms"),
    ("mesh.interp_ms", "ms"),
    ("mesh.dofs", "count"),
    ("mesh.ghost_dofs", "count"),
    ("fem.dofmap_ms", "ms"),
    ("fem.apply_us", "us"),
    ("fem.exchange_us", "us"),
    ("la.minres_iters", "count"),
    ("la.amg_setup_ms", "ms"),
    ("la.vcycle_us", "us"),
    ("la.amg_levels", "count"),
    ("la.amg_op_complexity", "ratio"),
    ("stokes.setup_ms", "ms"),
    ("stokes.apply_us", "us"),
    ("stokes.precond_us", "us"),
    ("stokes.iter_us", "us"),
    ("rhea.indicator_s", "s"),
    ("rhea.adapt_s", "s"),
    ("rhea.solve_flow_s", "s"),
    ("rhea.transport_s", "s"),
    ("rhea.amr_share", "ratio"),
    ("forest.leaves", "count"),
    ("forest.ghost_entries", "count"),
    ("forest.build_ms", "ms"),
    ("forest.ghost_ms", "ms"),
    ("forest.iterate_faces_ms", "ms"),
    ("mangll.new_ms", "ms"),
    ("mangll.step_ms", "ms"),
    ("mangll.refresh_ghosts_us", "us"),
    ("mangll.deriv_ns_per_elem", "ns"),
    ("mangll.deriv_flops_per_elem", "count"),
    ("obs.span_ns", "ns"),
    ("bench.other_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.self_time_gap", "ratio"),
];

/// Named values of one run. Names are checked against the tables above when
/// the run is printed, so a typo fails the smoke test instead of silently
/// printing 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bag(BTreeMap<&'static str, f64>);

impl Bag {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Copy every value of `other` in, replacing equal names.
    pub fn extend(&mut self, other: &Bag) {
        self.0.extend(other.0.iter().map(|(&k, &v)| (k, v)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `table`, in table order.
    /// Panics on a name outside the table: that is a bug in this crate.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Value {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table it is printed from"
            );
        }
        Value::object(table.iter().map(|&(name, unit)| {
            (
                name,
                Value::object([
                    ("value", Value::from(self.get(name))),
                    ("unit", Value::from(unit)),
                ]),
            )
        }))
    }
}

/// Median of a non-empty sample; sorts it.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}
