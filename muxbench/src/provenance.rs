//! Where and on what a result was measured, read from the machine at
//! run time.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::Value;

/// Provenance fields of a run record.
#[must_use]
pub fn collect(traced: bool) -> Value {
    let s = |v: String| Value::Str(v);
    Value::Map(vec![
        ("git_commit".into(), s(git_commit())),
        (
            "nproc".into(),
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("cpu_model".into(), s(cpu_model())),
        ("rustc".into(), s(command_line("rustc", &["--version"]))),
        ("traced".into(), Value::Bool(traced)),
    ])
}

/// `HEAD` of the git checkout in the working directory. Only a
/// checkout rooted here counts, so a source tree copied inside some
/// other repository does not report that repository's commit.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    command_line("git", &["rev-parse", "HEAD"])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}
