//! `bench run` — every workload, each repeat in a fresh child process, one
//! record with a host fingerprint — and `bench compare`, the regression
//! gate over two such records.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use obs::json::{self, Value};

use crate::host;
use crate::metrics::{median, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::once::{Workload, WORKLOADS};

/// Limit on traced wall ÷ untraced wall − 1 at full size.
const TRACE_OVERHEAD_LIMIT: f64 = 0.03;

/// Command-line options of `bench run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Empty means every workload.
    pub workloads: Vec<String>,
    pub seed: u64,
    pub repeats: usize,
    pub seconds: u64,
    pub out: PathBuf,
    pub smoke: bool,
    pub inject_fault: bool,
    pub trace_dir: PathBuf,
}

/// What one `bench once` child printed.
struct Child {
    result: Value,
    counts: Value,
    errors: Vec<String>,
}

fn spawn_once(args: &RunArgs, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("once")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.inject_fault {
        cmd.arg("--inject-fault");
    }
    // `output` waits for the child: none outlives this call. A non-zero
    // exit with a result line is a failed check, reported through `correct`.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parse = |text: &str| json::parse(text).map_err(|e| format!("{workload}: {e}: {text}"));
    let last = stdout.lines().last().unwrap_or("");
    if !last.starts_with('{') {
        return Err(format!(
            "{workload}: child ended with {} and no result",
            output.status
        ));
    }
    let counts = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counts "))
        .ok_or_else(|| format!("{workload}: child printed no counts"))?;
    Ok(Child {
        result: parse(last)?,
        counts: parse(counts)?,
        errors: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("error: "))
            .map(str::to_string)
            .collect(),
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Run one workload: `repeats` untraced children, then one traced child.
/// Returns its record and whether it is correct and deterministic.
fn run_workload(args: &RunArgs, name: &str, ranks: usize) -> Result<(Value, bool), String> {
    let mut children = Vec::with_capacity(args.repeats + 1);
    for repeat in 0..args.repeats {
        eprintln!("{name}: untraced run {}/{}", repeat + 1, args.repeats);
        children.push(spawn_once(args, name, false)?);
    }
    eprintln!("{name}: traced run");
    let traced = spawn_once(args, name, true)?;

    let mut errors: Vec<String> = Vec::new();
    let mut end_to_end = Vec::new();
    println!("{name}");
    for (metric, unit) in END_TO_END {
        let mut values = Vec::with_capacity(children.len());
        for child in &children {
            values.push(
                metric_value(&child.result, metric)
                    .ok_or_else(|| format!("{name}: child printed no {metric}"))?,
            );
        }
        let mut sorted = values.clone();
        let mid = median(&mut sorted);
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        println!(
            "  {metric} {mid} {unit} (min {min}, max {max}, n {})",
            values.len()
        );
        end_to_end.push((
            metric,
            Value::object([
                ("median", Value::from(mid)),
                ("min", Value::from(min)),
                ("max", Value::from(max)),
                ("n", Value::from(values.len())),
                ("unit", Value::from(unit)),
                ("values", Value::array(values.into_iter().map(Value::from))),
            ]),
        ));
    }
    for (metric, unit) in PER_LAYER {
        let value = metric_value(&traced.result, metric)
            .ok_or_else(|| format!("{name}: traced child printed no {metric}"))?;
        println!("  {metric} {value} {unit}");
    }

    // Equal inputs must give equal counts and an equal end state, run after
    // run and traced or not.
    children.push(traced);
    let deterministic = children.iter().all(|c| c.counts == children[0].counts);
    if !deterministic {
        errors.push("counts or end state differ between runs: nondeterministic".to_string());
    }
    let whole = |child: &Child, key: &str| child.result.get(key).and_then(Value::as_u64);
    let ops: u64 = children.iter().filter_map(|c| whole(c, "attempted")).sum();
    let failed_ops: u64 = children.iter().filter_map(|c| whole(c, "failed")).sum();
    for child in &children {
        errors.extend(child.errors.iter().cloned());
    }
    let traced = children.pop().expect("the traced child was pushed last");
    // Instrument health, not correctness: on a shared host the two sides of
    // this ratio carry the host's noise, which can exceed the limit itself.
    let overhead = metric_value(&traced.result, "bench.trace_overhead").unwrap_or(f64::NAN);
    if !args.smoke && overhead > TRACE_OVERHEAD_LIMIT {
        println!(
            "  warning: the traced loop ran {:.1} % slower than the untraced one (limit {:.0} %)",
            100.0 * overhead,
            100.0 * TRACE_OVERHEAD_LIMIT
        );
    }
    let correct = failed_ops == 0 && errors.is_empty();
    println!("  ops {ops} failed_ops {failed_ops}");
    for e in &errors {
        println!("  error: {e}");
    }

    let record = Value::object([
        ("name", Value::from(name)),
        ("ranks", Value::from(ranks)),
        ("ops", Value::from(ops)),
        ("failed_ops", Value::from(failed_ops)),
        ("correct", Value::from(correct)),
        ("deterministic", Value::from(deterministic)),
        ("errors", Value::array(errors.into_iter().map(Value::from))),
        ("end_to_end", Value::object(end_to_end)),
        (
            "per_layer",
            traced.result.get("metrics").cloned().unwrap_or(Value::Null),
        ),
        ("counts", traced.counts),
    ]);
    Ok((record, correct))
}

/// Run the selected workloads and write the record. `Ok(true)` when every
/// workload is correct; the record is written either way.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    if args.repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    // Every selected workload is looked up (and refused, where the host is
    // too small for it) before anything is measured.
    let all: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let names = if args.workloads.is_empty() {
        &all
    } else {
        &args.workloads
    };
    let selected = (names.iter())
        .map(|name| Workload::find(name))
        .collect::<Result<Vec<_>, _>>()?;

    let mut all_correct = true;
    let mut records = Vec::new();
    for w in selected {
        let (record, correct) = run_workload(args, w.name, w.ranks)?;
        all_correct &= correct;
        records.push(record);
    }
    let doc = Value::object([
        ("schema", Value::from("bench.run.v1")),
        ("host", host::fingerprint(args.seed, args.repeats)),
        ("seconds", Value::from(args.seconds)),
        ("smoke", Value::from(args.smoke)),
        ("workloads", Value::array(records)),
    ]);
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, doc.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(all_correct)
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method). Needs two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
/// Infinite for a single value, which resolves nothing.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(&mut values.to_vec()).abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    /// Not worse by the medians, but a spread is wider than the bound: the
    /// runs cannot tell "unchanged" from "changed".
    Unresolved,
}

fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let loss = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if loss > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_records(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

fn values_of(record: &Value, metric: &str) -> Option<Vec<f64>> {
    let values = record.get("end_to_end")?.get(metric)?.get("values")?;
    values.as_array()?.iter().map(Value::as_f64).collect()
}

/// Compare record `b` against base `a` under the bounds of the benchmark
/// definition. Prints one row per (workload, metric); `Ok(false)` if any
/// row is `worse`.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let (doc_a, doc_b, definition) = (load(a)?, load(b)?, load(benchmark)?);
    let bounds = definition
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", benchmark.display()))?;
    let mut none_worse = true;
    println!("workload metric median_a median_b unit ratio_b/a spread_a spread_b bound verdict");
    for rec_a in workload_records(&doc_a) {
        let name = rec_a.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(rec_b) = workload_records(&doc_b)
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        else {
            println!("{name} missing from {}", b.display());
            continue;
        };
        for entry in bounds {
            let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("?");
            let (metric, unit) = (field("name"), field("unit"));
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (values_of(rec_a, metric), values_of(rec_b, metric)) else {
                return Err(format!("{name}: {metric} missing from a record"));
            };
            let v = verdict(&va, &vb, field("better") == "higher", bound);
            none_worse &= v != Verdict::Worse;
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            println!(
                "{name} {metric} {ma:.6} {mb:.6} {unit} {:.4} (base {ma:.6} {unit}) {:.4} {:.4} {bound} {}",
                mb / ma,
                spread(&va),
                spread(&vb),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Counts compare two versions of one program: a change may move
        // them on purpose, so they are reported and do not gate.
        for count in EXACT_COUNTS.into_iter().chain(["checksum"]) {
            let get = |r: &Value| r.get("counts").and_then(|c| c.get(count)).cloned();
            let (ca, cb) = (get(rec_a), get(rec_b));
            let show = |v: &Option<Value>| v.as_ref().map_or("?".to_string(), Value::to_json);
            println!(
                "{name} {count} {} {} {}",
                show(&ca),
                show(&cb),
                if ca == cb { "same" } else { "changed" }
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn verdict_is_direction_aware() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = base.map(|x| 1.2 * x);
        assert_eq!(verdict(&base, &slower, false, 0.08), Verdict::Worse);
        assert_eq!(verdict(&base, &slower, true, 0.08), Verdict::Ok);
        assert_eq!(verdict(&slower, &base, true, 0.08), Verdict::Worse);
        assert_eq!(
            verdict(&base, &base.map(|x| 1.05 * x), false, 0.08),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&base, &noisy, false, 0.08), Verdict::Unresolved);
        // A loss beyond the bound stays a loss however noisy the runs are.
        assert_eq!(
            verdict(&base, &noisy.map(|x| 2.0 * x), false, 0.08),
            Verdict::Worse
        );
        assert_eq!(verdict(&[10.0], &[10.0], false, 0.08), Verdict::Unresolved);
    }
}
