//! `bench` — the repo's benchmark driver. See `README.md` in this directory.
//!
//! ```text
//! bench once    --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench run     [--workload NAME]… [--seed N] [--repeats K] [--seconds S] [--out PATH]
//! bench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//! `once` and `run` also take `--smoke`, `--inject-fault` and `--trace-dir DIR`.

use std::path::PathBuf;
use std::process::ExitCode;

use rhea_benchmark::host::CountingAlloc;
use rhea_benchmark::once::{self, OnceArgs};
use rhea_benchmark::suite::{self, RunArgs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: bench once|run|compare … (see benchmark/README.md)";

/// Options that take a value; every other `--name` is a switch.
const VALUED: [&str; 8] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--repeats",
    "--out",
    "--trace-dir",
    "--benchmark",
];
const SWITCHES: [&str; 2] = ["--smoke", "--inject-fault"];

#[derive(Default)]
struct Parsed {
    valued: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Parsed {
    fn parse(args: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if VALUED.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.valued.push((arg.clone(), value.clone()));
            } else if SWITCHES.contains(&arg.as_str()) {
                parsed.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn all(&self, name: &str) -> Vec<String> {
        let of_name = self.valued.iter().filter(|(k, _)| k == name);
        of_name.map(|(_, v)| v.clone()).collect()
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.all(name).last() {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} {v}: not a whole number")),
            None => Ok(default),
        }
    }

    fn path(&self, name: &str, default: &str) -> PathBuf {
        PathBuf::from(self.all(name).pop().unwrap_or_else(|| default.to_string()))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let parsed = Parsed::parse(rest)?;
    let seed = parsed.number("--seed", 1)?;
    let seconds = parsed.number("--seconds", once::NOMINAL_SECONDS)?;
    let smoke = parsed.switch("--smoke");
    let inject_fault = parsed.switch("--inject-fault");
    let trace_dir = parsed.path("--trace-dir", "target/bench");
    match command.as_str() {
        "once" => once::run(&OnceArgs {
            workload: parsed
                .all("--workload")
                .pop()
                .ok_or("once needs --workload NAME")?,
            seed,
            seconds,
            trace: parsed.number("--trace", 0)? != 0,
            smoke,
            inject_fault,
            trace_dir,
        }),
        "run" => suite::run(&RunArgs {
            workloads: parsed.all("--workload"),
            seed,
            repeats: parsed.number("--repeats", 5)? as usize,
            seconds,
            out: parsed.path("--out", "target/bench/run.json"),
            smoke,
            inject_fault,
            trace_dir,
        }),
        "compare" => match parsed.positional.as_slice() {
            [a, b] => suite::compare(
                a.as_ref(),
                b.as_ref(),
                &parsed.path("--benchmark", "BENCHMARK.json"),
            ),
            _ => Err("compare needs A.json B.json".to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check or a `worse` row: results were printed and written.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
