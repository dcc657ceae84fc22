//! `muxbench`: runs one workload and prints its metrics.
//!
//! ```text
//! muxbench --workload <fig7_attack|b14_rescore|serve_mix> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The line
//! before it is the full run record (seed, provenance, samples, span
//! totals).
//!
//! `muxbench daemon <socket> <cache-dir>` runs the attack daemon
//! (`muxlink_serve::serve`, what `muxlink serve` runs) with the
//! `serve_mix` memory tier and worker count; the `serve_mix` workload
//! starts it as a child process.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use muxbench::inputs::DEFAULT_SEED;
use muxbench::serve_mix;
use muxbench::workloads::{self, Outcome, RunOptions, END_TO_END, PER_LAYER};
use serde::{Serialize, Value};

/// Scratch space of every run, relative to the working directory (the
/// checkout the benchmark runs in). Each run removes its own
/// subdirectory when it ends.
const WORK_ROOT: &str = ".muxbench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn daemon(args: &[String]) -> Result<(), String> {
    let [socket, cache_dir] = args else {
        return Err("usage: muxbench daemon <socket> <cache-dir>".into());
    };
    muxlink_serve::serve(&muxlink_serve::ServeOptions {
        socket: PathBuf::from(socket),
        tcp: None,
        cache_dir: Some(PathBuf::from(cache_dir)),
        workers: serve_mix::WORKERS,
        cache_entries: serve_mix::MEMORY_ENTRIES,
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// A ready-made `Value` tree, printable with `serde_json`.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn to_line(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("a Value tree always renders")
}

/// The final result line. Every metric of the run's kind must have been
/// measured; a missing one is a harness error, not a zero.
fn result_line(out: &Outcome, trace: bool) -> Result<Value, String> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match out.metric(name) {
            Some(v) => v,
            // A traced run reports 0 for a layer its workload bypasses.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name.to_owned(),
            Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    Ok(Value::Map(vec![
        ("correct".into(), Value::Bool(out.failed == 0)),
        ("attempted".into(), Value::Int(out.attempted as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

fn record(args: &Args, out: &Outcome, result: &Value) -> Value {
    let mut fields = vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Int(args.seed as i64)),
        ("seconds".into(), Value::Int(args.seconds as i64)),
        (
            "provenance".into(),
            muxbench::provenance::collect(args.trace),
        ),
        ("result".into(), result.clone()),
        (
            "errors".into(),
            Value::Seq(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    fields.extend(out.details.iter().cloned());
    Value::Map(vec![("muxbench_record".into(), Value::Map(fields))])
}

fn run(args: &Args) -> Result<(), String> {
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let work = PathBuf::from(WORK_ROOT).join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let opts = RunOptions {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
    };
    let outcome = workloads::run(&args.workload, &opts);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    for e in &outcome.errors {
        eprintln!("muxbench: check failed: {e}");
    }
    let result = result_line(&outcome, args.trace).inspect_err(|_| {
        eprintln!("{}", to_line(record(args, &outcome, &Value::Null)));
    })?;
    let record = to_line(record(args, &outcome, &result));
    println!("{record}");
    println!("{}", to_line(result));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let status = if argv.first().map(String::as_str) == Some("daemon") {
        daemon(&argv[1..])
    } else {
        parse_args(argv.into_iter()).and_then(|a| run(&a))
    };
    match status {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("muxbench: {e}");
            ExitCode::FAILURE
        }
    }
}
