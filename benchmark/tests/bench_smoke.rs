//! The benchmark checks itself: all four workloads at `--smoke` size through
//! the real `bench` binary, the failing path, and the agreement between the
//! metric tables in the code and `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use obs::json::{self, Value};
use rhea_benchmark::harness::SELF_TIME_TOLERANCE;
use rhea_benchmark::metrics::{END_TO_END, PER_LAYER};
use rhea_benchmark::once::WORKLOADS;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("spawn bench")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn load(path: &Path) -> Value {
    json::parse(&std::fs::read_to_string(path).expect("read record")).expect("record is JSON")
}

fn smoke_run(dir: &Path, out: &str, extra: &[&str]) -> (Output, PathBuf) {
    let out = dir.join(out);
    let trace_dir = dir.join("trace");
    let mut args = vec!["run", "--smoke", "--repeats", "1"];
    args.extend(["--out", out.to_str().unwrap()]);
    args.extend(["--trace-dir", trace_dir.to_str().unwrap()]);
    args.extend(extra);
    (bench(&args), out)
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
}

#[test]
fn smoke_runs_report_every_metric_and_repeat_exactly() {
    let dir = scratch("smoke");
    let (first, path_a) = smoke_run(&dir, "a.json", &[]);
    assert!(
        first.status.success(),
        "bench run --smoke failed:\n{}{}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&first.stderr)
    );
    let (second, path_b) = smoke_run(&dir, "b.json", &[]);
    assert!(second.status.success());
    let (a, b) = (load(&path_a), load(&path_b));

    let host = a.get("host").expect("host fingerprint");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "avx2",
        "seed",
        "repeats",
    ] {
        assert!(host.get(key).is_some(), "fingerprint lacks {key}");
    }

    assert_eq!(workloads(&a).len(), WORKLOADS.len());
    for (rec_a, rec_b) in workloads(&a).iter().zip(workloads(&b)) {
        let name = rec_a.get("name").and_then(Value::as_str).unwrap();
        for (metric, unit) in END_TO_END {
            let m = rec_a.get("end_to_end").and_then(|e| e.get(metric));
            let m = m.unwrap_or_else(|| panic!("{name}: no {metric}"));
            let median = m.get("median").and_then(Value::as_f64).unwrap();
            assert!(
                median.is_finite() && median > 0.0,
                "{name} {metric} = {median}"
            );
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        let layer = rec_a.get("per_layer").expect("per_layer");
        for (metric, unit) in PER_LAYER {
            let m = layer
                .get(metric)
                .unwrap_or_else(|| panic!("{name}: no {metric}"));
            // A non-finite number is written as null and fails here.
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} {metric}"
            );
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        let gap = layer
            .get("bench.self_time_gap")
            .and_then(|m| m.get("value"));
        let gap = gap.and_then(Value::as_f64).unwrap();
        assert!(
            gap <= SELF_TIME_TOLERANCE,
            "{name}: self times miss wall by {gap}"
        );

        assert_eq!(
            rec_a.get("counts"),
            rec_b.get("counts"),
            "{name}: counts differ"
        );
        assert!(rec_a.get("ops").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            rec_a.get("failed_ops").and_then(Value::as_u64),
            Some(0),
            "{name}"
        );
        assert_eq!(rec_a.get("correct"), Some(&Value::Bool(true)), "{name}");
    }

    // The two records of one commit agree under the gate.
    let definition = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let gate = bench(&[
        "compare",
        path_a.to_str().unwrap(),
        path_b.to_str().unwrap(),
        "--benchmark",
        definition,
    ]);
    let rows = String::from_utf8_lossy(&gate.stdout);
    assert!(rows.contains("conv_cube_p1 wall_s"), "{rows}");
    assert!(!rows.contains(" changed"), "{rows}");
}

#[test]
fn a_failed_check_is_counted_reported_and_still_written() {
    let dir = scratch("fault");
    let (output, path) = smoke_run(
        &dir,
        "fault.json",
        &["--workload", "conv_cube_p1", "--inject-fault"],
    );
    assert_eq!(output.status.code(), Some(1), "a failed check exits with 1");
    let doc = load(&path);
    let rec = &workloads(&doc)[0];
    assert!(rec.get("failed_ops").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(rec.get("correct"), Some(&Value::Bool(false)));
}

#[test]
fn bad_requests_are_refused_before_measuring() {
    let unknown = bench(&["once", "--workload", "no_such_workload"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty(), "no result line on a refusal");
    assert_eq!(bench(&["run", "--repeats", "0"]).status.code(), Some(2));
}

#[test]
fn benchmark_json_names_what_the_code_prints() {
    let doc = load(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )));
    let names_units = |key: &str| -> Vec<(String, String)> {
        let list = doc.get(key).and_then(Value::as_array).expect(key);
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        list.iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units("end_to_end"), owned(&END_TO_END));
    assert_eq!(names_units("per_layer"), owned(&PER_LAYER));

    let listed = doc.get("workloads").and_then(Value::as_array).unwrap();
    let listed: Vec<_> = listed
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let coded: Vec<_> = WORKLOADS.iter().map(|w| Some(w.name)).collect();
    assert_eq!(listed, coded);

    // Set-up time carries the widest bound, and none exceeds the cap.
    let bounds = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).unwrap();
    let widest = bounds.iter().map(bound).fold(0.0, f64::max);
    assert!(widest <= 0.25);
    let setup = bounds
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
    assert_eq!(bound(setup.unwrap()), widest);
}
