//! The three workloads. Each returns an [`Outcome`]: operation counts,
//! failed checks, the end-to-end metrics of an untraced run or the
//! per-layer metrics of a traced one, and details for the run record.
//!
//! `fig7_attack` and `b14_rescore` have the same shape. Set-up builds
//! the inputs from the workload seed. The measured phase then repeats
//! rounds of one *cold* operation (one that has to build or load a
//! checkpoint) and [`HOT_PER_ROUND`] *hot* ones (answered from a
//! checkpoint in memory): at least [`MIN_ROUNDS`] rounds, and more while
//! the next one fits in the time budget. `serve_mix` runs its cold and
//! hot requests from two concurrent clients instead.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muxlink_core::metrics::score_key;
use muxlink_core::{key_input_names, AttackSession, DesignFingerprint, NoProgress, Trained};
use muxlink_netlist::bench_format;
use muxlink_serve::{CheckpointCache, Connection, Engine, EngineOptions, Request, Response};
use serde::Value;

use crate::inputs::{self, Seeds, DEFAULT_SEED};
use crate::serve_mix::{self, Plan, PlannedRequest, StatsDelta, A_TURN};
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Rounds every `fig7_attack` and `b14_rescore` run measures, whatever
/// the time budget, so that `cold_s` is a median of at least three cold
/// operations. One cold operation takes 10-20 s, and a run-to-run
/// spread of single timings of 0.17-0.28 was seen on a shared 2-CPU
/// machine.
pub const MIN_ROUNDS: usize = 3;

/// Hot operations after each cold one. Over [`MIN_ROUNDS`] rounds this
/// is 300 samples, enough for a p90 with ten beyond it, taken in three
/// windows across the measured phase rather than in one burst.
pub const HOT_PER_ROUND: usize = 100;

/// Set-up repetitions of `fig7_attack`, whose set-up takes tens of
/// milliseconds; `setup_s` is their median.
pub const FIG7_SETUP_REPS: usize = 11;

/// Set-up repetitions of `b14_rescore` (locking, training and writing
/// the checkpoint, about 3 s each).
pub const B14_SETUP_REPS: usize = 3;

/// Set-up repetitions of `serve_mix` (training three short-recipe
/// checkpoints and seeding the disk tier, under a second each).
pub const SERVE_SETUP_REPS: usize = 5;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fig7_attack", "b14_rescore", "serve_mix"];

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("hot_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("netlist.parse_s", "s"),
    ("core.extract_s", "s"),
    ("core.prepare_s", "s"),
    ("core.train_s", "s"),
    ("gnn.assembly_s", "s"),
    ("gnn.forward_s", "s"),
    ("gnn.backward_s", "s"),
    ("gnn.optimizer_s", "s"),
    ("gnn.train_other_s", "s"),
    ("serde_json.ckpt_load_s", "s"),
    ("core.verify_s", "s"),
    ("core.score_s", "s"),
    ("core.recover_s", "s"),
    ("serve.decode_ms", "ms"),
    ("serve.submit_hot_ms", "ms"),
    ("serve.submit_disk_ms", "ms"),
    ("serve.sweep_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("graphx.nodes", "count"),
    ("graphx.key_muxes", "count"),
    ("graphx.train_samples", "count"),
    ("graphx.val_samples", "count"),
    ("graphx.arena_bytes", "bytes"),
    ("gnn.k", "count"),
    ("gnn.best_epoch", "count"),
    ("core.links_scored", "count"),
    ("ckpt_bytes", "bytes"),
    ("serve.cache_hits", "count"),
    ("serve.cache_disk_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.trainings", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.memory_hit_ratio", "ratio"),
    ("core.key_ac_pct", "%"),
];

/// What one run did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// The first failed checks, verbatim.
    pub errors: Vec<String>,
    /// `(name, value)` of every metric the run measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Details for the run record.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn detail(&mut self, name: &str, value: Value) {
        self.details.push((name.to_owned(), value));
    }

    /// Value of metric `name`, if measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Measured-phase budget.
    pub budget: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory of this run (created by the caller).
    pub work: PathBuf,
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload, or a set-up failure (nothing was measured).
pub fn run(name: &str, opts: &RunOptions) -> Result<Outcome, String> {
    match name {
        "fig7_attack" => fig7_attack(opts),
        "b14_rescore" => b14_rescore(opts),
        "serve_mix" => serve_mix(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Bitwise equality of two score vectors (NaN-safe, sign-of-zero exact).
fn same_bits(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// Whether to run another round after `done` rounds, the last of which
/// took `last`, `elapsed` into a measured phase of `budget`: always
/// below [`MIN_ROUNDS`], otherwise when one more round of the same
/// length still fits.
#[must_use]
pub fn another_round(done: usize, elapsed: Duration, last: Duration, budget: Duration) -> bool {
    done < MIN_ROUNDS || elapsed + last <= budget
}

/// Median set-up time over `reps` repetitions of `f`; returns the last
/// repetition's product.
fn timed_setup<T>(
    reps: usize,
    out: &mut Outcome,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f()?);
        times.push(secs(t.elapsed()));
    }
    out.detail(
        "setup_samples_s",
        Value::Seq(times.iter().map(|&t| Value::Float(t)).collect()),
    );
    let last = last.expect("at least one repetition ran");
    Ok((median(&times).expect("at least one repetition ran"), last))
}

/// End-to-end metrics from the cold and hot latency series.
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    cold: &[f64],
    hot: &[f64],
    ops: usize,
    wall_s: f64,
    peak_rss_mb: Option<f64>,
) {
    out.set("setup_s", setup_s);
    if let Ok(c) = median(cold) {
        out.set("cold_s", c);
    }
    if let Some(h) = Summary::of(hot) {
        out.set("hot_p50_ms", h.p50 * 1e3);
        if let Some(p90) = h.p90 {
            out.detail("hot_p90_ms", Value::Float(p90 * 1e3));
        }
    }
    out.detail("ops_per_s", Value::Float(ops as f64 / wall_s));
    if let Some(rss) = peak_rss_mb {
        out.set("peak_rss_mb", rss);
    }
    out.detail("cold_samples_s", floats(cold));
    out.detail("hot_samples_s", floats(hot));
    out.detail("measured_wall_s", Value::Float(wall_s));
}

/// Per-layer span totals and the unattributed rest of the window.
fn layer_totals(out: &mut Outcome, tracer: &Tracer, window_start_s: f64, wall_s: f64) {
    for (metric, span) in [
        ("netlist.parse_s", "netlist.parse"),
        ("core.extract_s", "core.extract"),
        ("core.prepare_s", "core.prepare"),
        ("core.train_s", "core.train"),
        ("gnn.assembly_s", "gnn.assembly"),
        ("gnn.forward_s", "gnn.forward"),
        ("gnn.backward_s", "gnn.backward"),
        ("gnn.optimizer_s", "gnn.optimizer"),
        ("serde_json.ckpt_load_s", "serde_json.ckpt_load"),
        ("core.verify_s", "core.verify"),
        ("core.score_s", "core.score"),
        ("core.recover_s", "core.recover"),
    ] {
        out.set(metric, tracer.total(span));
    }
    let phases: f64 = [
        "gnn.assembly",
        "gnn.forward",
        "gnn.backward",
        "gnn.optimizer",
    ]
    .iter()
    .map(|s| tracer.total(s))
    .sum();
    out.set(
        "gnn.train_other_s",
        (tracer.total("core.train") - phases).max(0.0),
    );
    out.set("trace.wall_s", wall_s);
    out.set(
        "unattributed_s",
        tracer.unattributed(window_start_s, wall_s),
    );
    let spans = tracer
        .totals()
        .into_iter()
        .map(|(name, (count, total))| {
            (
                name.to_owned(),
                Value::Map(vec![
                    ("count".to_owned(), Value::Int(count as i64)),
                    ("total_s".to_owned(), Value::Float(total)),
                ]),
            )
        })
        .collect();
    out.detail("spans", Value::Map(spans));
}

/// Peak resident set of process `pid` (this process when `None`), in
/// MiB, from `/proc`.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS mark to its current RSS, so the peak
/// read later covers the measured phase only. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

// -- fig7_attack ------------------------------------------------------

/// The first round attacks the pinned anchor (lock seed 7, training
/// seed 0) whatever the workload seed, so that every run checks the
/// recovered key and its AC against the pinned values; a change to the
/// trainer's numerics fails that check on any seed. The other rounds
/// attack the design the workload seed locks, and must recover the same
/// scores, bit for bit, each time.
fn fig7_attack(opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let anchor_seeds = Seeds::fig7(DEFAULT_SEED);
    let seeds = Seeds::fig7(opts.seed);
    let (setup_s, (anchor, locked)) = timed_setup(FIG7_SETUP_REPS, &mut out, || {
        Ok((
            inputs::build_locked(&inputs::FIG7, &anchor_seeds)?,
            inputs::build_locked(&inputs::FIG7, &seeds)?,
        ))
    })?;
    let mut tracer = Tracer::new(opts.trace);
    out.detail("peak_rss_reset", Value::Bool(reset_peak_rss()));

    let (mut cold, mut hot) = (Vec::new(), Vec::new());
    // Key and scores of the first seeded round.
    let mut seeded: Option<(String, Vec<(f64, f64)>)> = None;
    let mut last_trained: Option<Trained> = None;
    let t0 = Instant::now();
    let window_start_s = secs(t0.saturating_duration_since(tracer.origin()));
    loop {
        let is_anchor = cold.is_empty();
        let (design, cfg) = if is_anchor {
            (&anchor, inputs::fig7_config(&anchor_seeds))
        } else {
            (&locked, inputs::fig7_config(&seeds))
        };
        let round = Instant::now();
        out.attempted += 1;
        let names = design.key_input_names();
        let session = AttackSession::new(&design.netlist, &names, cfg.clone());
        let attack = (|| {
            let extracted = tracer.time("core.extract", || session.extract())?;
            if tracer.enabled() {
                out.set("graphx.nodes", extracted.design.graph.node_count() as f64);
                out.set("graphx.key_muxes", extracted.design.muxes.len() as f64);
            }
            let prepared = tracer.time("core.prepare", || extracted.prepare(&NoProgress))?;
            if tracer.enabled() {
                let ds = &prepared.dataset;
                out.set("graphx.train_samples", ds.train.len() as f64);
                out.set("graphx.val_samples", ds.val.len() as f64);
                out.set("graphx.arena_bytes", ds.arena.resident_bytes() as f64);
                out.set("gnn.k", prepared.k as f64);
            }
            let ts = Instant::now();
            let trained = prepared.train(&NoProgress)?;
            tracer.record("core.train", ts, ts.elapsed(), None);
            let p = &trained.timings.train_phases;
            for (name, d) in [
                ("gnn.assembly", p.assembly),
                ("gnn.forward", p.forward),
                ("gnn.backward", p.backward),
                ("gnn.optimizer", p.optimizer),
            ] {
                tracer.record(name, ts, d, Some("core.train"));
            }
            let scored = tracer.time("core.score", || trained.score(&NoProgress))?;
            let guess = tracer.time("core.recover", || scored.recover_key(cfg.th));
            Ok::<_, muxlink_core::AttackError>((trained, scored, guess))
        })();
        let (trained, scored, guess) = match attack {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("attack failed: {e}"));
                break;
            }
        };
        cold.push(secs(round.elapsed()));
        let key = serve_mix::render(&guess);
        let ac = score_key(&guess, &design.key).accuracy_pct();
        if is_anchor {
            out.check(key == inputs::FIG7_PINNED_KEY, || {
                format!("fig7 key {key} != pinned {}", inputs::FIG7_PINNED_KEY)
            });
            out.check(ac == inputs::FIG7_PINNED_AC_PCT, || {
                format!("fig7 AC {ac} != pinned {}", inputs::FIG7_PINNED_AC_PCT)
            });
        } else if let Some((first_key, first_scores)) = &seeded {
            out.check(
                key == *first_key && same_bits(&scored.scores, first_scores),
                || format!("seeded attack gave key {key}, an earlier round {first_key}"),
            );
        } else {
            out.check(key.len() == inputs::FIG7.key_size, || {
                format!("recovered key has {} bits", key.len())
            });
            out.set("core.key_ac_pct", ac);
            out.detail("seeded_key", Value::Str(key.clone()));
            seeded = Some((key, scored.scores.clone()));
        }
        if tracer.enabled() {
            out.set("gnn.best_epoch", trained.report.best_epoch as f64);
            out.set("core.links_scored", 2.0 * scored.scores.len() as f64);
        }
        hot_rounds(
            &mut out,
            &mut tracer,
            &trained,
            &scored.scores,
            &guess,
            &mut hot,
        );
        let took = round.elapsed();
        last_trained = Some(trained);
        if !another_round(cold.len(), t0.elapsed(), took, opts.budget) {
            break;
        }
    }
    let wall_s = secs(t0.elapsed());
    let peak = peak_rss_mb(None);
    if opts.trace {
        layer_totals(&mut out, &tracer, window_start_s, wall_s);
        if let Some(t) = &last_trained {
            // Outside the window: the size a checkpoint of this attack
            // would have.
            let bytes = serde_json::to_string(t).map(|j| j.len()).unwrap_or(0);
            out.set("ckpt_bytes", bytes as f64);
        }
    } else {
        end_to_end(
            &mut out,
            setup_s,
            &cold,
            &hot,
            cold.len() + hot.len(),
            wall_s,
            peak,
        );
    }
    Ok(out)
}

fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|&x| Value::Float(x)).collect())
}

/// [`HOT_PER_ROUND`] re-scorings of an in-memory checkpoint, each
/// checked bit for bit against the round's cold result.
fn hot_rounds(
    out: &mut Outcome,
    tracer: &mut Tracer,
    trained: &Trained,
    want_scores: &[(f64, f64)],
    want_guess: &[muxlink_locking::KeyValue],
    hot: &mut Vec<f64>,
) {
    for _ in 0..HOT_PER_ROUND {
        let t = Instant::now();
        out.attempted += 1;
        let scored = match tracer.time("core.score", || trained.score(&NoProgress)) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("hot score failed: {e}"));
                continue;
            }
        };
        let keys = tracer.time("core.recover", || inputs::sweep_keys(&scored));
        hot.push(secs(t.elapsed()));
        out.check(same_bits(&scored.scores, want_scores), || {
            "hot re-score differs bitwise from the cold scores".to_owned()
        });
        out.check(keys[inputs::DEFAULT_TH_INDEX] == want_guess, || {
            "hot re-score recovered another key".to_owned()
        });
    }
}

// -- b14_rescore ------------------------------------------------------

fn b14_rescore(opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = Seeds::derived(opts.seed, 0xb14);
    let bench_path = opts.work.join("b14_locked.bench");
    let ckpt_path = opts.work.join("b14_model.json");
    let (setup_s, (locked, direct)) = timed_setup(B14_SETUP_REPS, &mut out, || {
        let locked = inputs::build_locked(&inputs::B14, &seeds)?;
        let text = bench_format::write(&locked.netlist).map_err(|e| e.to_string())?;
        fs::write(&bench_path, text).map_err(|e| e.to_string())?;
        let names = locked.key_input_names();
        let trained = AttackSession::new(&locked.netlist, &names, inputs::short_recipe(&seeds, 2))
            .extract()
            .and_then(|e| e.prepare(&NoProgress))
            .and_then(|p| p.train(&NoProgress))
            .map_err(|e| format!("training the b14 checkpoint: {e}"))?;
        let direct = trained.score(&NoProgress).map_err(|e| e.to_string())?;
        let json = serde_json::to_string(&trained).map_err(|e| e.to_string())?;
        fs::write(&ckpt_path, json).map_err(|e| e.to_string())?;
        Ok((locked, direct))
    })?;
    let mut tracer = Tracer::new(opts.trace);
    out.detail("peak_rss_reset", Value::Bool(reset_peak_rss()));

    let (mut cold, mut hot, mut acs) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let window_start_s = secs(t0.saturating_duration_since(tracer.origin()));
    loop {
        let round = Instant::now();
        out.attempted += 1;
        // What `muxlink attack --model` does.
        let rescore = (|| -> Result<_, String> {
            let netlist = tracer.time("netlist.parse", || {
                let text = fs::read_to_string(&bench_path).map_err(|e| e.to_string())?;
                bench_format::parse("b14_locked", &text).map_err(|e| e.to_string())
            })?;
            let names = key_input_names(&netlist);
            let trained: Trained = tracer.time("serde_json.ckpt_load", || {
                let text = fs::read_to_string(&ckpt_path).map_err(|e| e.to_string())?;
                serde_json::from_str(&text).map_err(|e| e.to_string())
            })?;
            tracer
                .time("core.verify", || trained.verify_design(&netlist, &names))
                .map_err(|e| e.to_string())?;
            let scored = tracer
                .time("core.score", || trained.score(&NoProgress))
                .map_err(|e| e.to_string())?;
            let keys = tracer.time("core.recover", || inputs::sweep_keys(&scored));
            Ok((trained, scored, keys))
        })();
        let (trained, scored, keys) = match rescore {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("rescore failed: {e}"));
                break;
            }
        };
        cold.push(secs(round.elapsed()));
        out.check(same_bits(&scored.scores, &direct.scores), || {
            "rescored checkpoint differs bitwise from in-process scoring".to_owned()
        });
        let guess = keys[inputs::DEFAULT_TH_INDEX].clone();
        acs.push(score_key(&guess, &locked.key).accuracy_pct());
        if tracer.enabled() {
            out.set("graphx.nodes", trained.design.graph.node_count() as f64);
            out.set("graphx.key_muxes", trained.design.muxes.len() as f64);
            out.set("gnn.k", trained.k as f64);
            out.set("gnn.best_epoch", trained.report.best_epoch as f64);
            out.set("core.links_scored", 2.0 * scored.scores.len() as f64);
        }
        hot_rounds(
            &mut out,
            &mut tracer,
            &trained,
            &direct.scores,
            &guess,
            &mut hot,
        );
        let took = round.elapsed();
        if !another_round(cold.len(), t0.elapsed(), took, opts.budget) {
            break;
        }
    }
    let wall_s = secs(t0.elapsed());
    let peak = peak_rss_mb(None);
    let ckpt_bytes = fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0) as f64;
    if opts.trace {
        layer_totals(&mut out, &tracer, window_start_s, wall_s);
        out.set("ckpt_bytes", ckpt_bytes);
    } else {
        end_to_end(
            &mut out,
            setup_s,
            &cold,
            &hot,
            cold.len() + hot.len(),
            wall_s,
            peak,
        );
    }
    out.set("core.key_ac_pct", median(&acs).unwrap_or(0.0));
    out.detail("ckpt_bytes", Value::Int(ckpt_bytes as i64));
    out.detail("key_ac_pct_samples", floats(&acs));
    Ok(out)
}

// -- serve_mix --------------------------------------------------------

/// A `muxlink serve` daemon in a child process, killed on drop if it
/// has not exited by then.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon (`muxbench daemon …` runs
    /// [`muxlink_serve::serve`], what `muxlink serve` runs) and waits
    /// until it accepts connections.
    fn start(socket: &Path, cache_dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg(socket)
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Self {
            child,
            socket: socket.to_owned(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if Connection::unix(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not accept connections within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(&self) -> Result<Connection, String> {
        Connection::unix(&self.socket).map_err(|e| e.to_string())
    }

    fn stats(&self) -> Result<muxlink_serve::StatsResponse, String> {
        match self.connect()?.round_trip(&Request::Stats, |_| {}) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(format!("stats request: {other:?}")),
        }
    }

    /// Drains the daemon and waits (up to 60 s) for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.connect()?.round_trip(&Request::Shutdown, |_| {});
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Seeds a fresh disk tier with the three checkpoints.
fn seed_cache(dir: &Path, designs: &[serve_mix::ServedDesign]) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let cache = CheckpointCache::new(Some(dir.to_owned()), serve_mix::MEMORY_ENTRIES)
        .map_err(|e| e.to_string())?;
    for d in designs {
        cache.insert(&d.key_hex, Arc::new(d.trained.clone()))?;
    }
    Ok(())
}

/// One request of a client's closed loop.
struct Sample {
    /// Whether it was a `sweep` (otherwise a `score` submit).
    sweep: bool,
    /// Latency at the client, in seconds.
    latency_s: f64,
    /// When it finished, in seconds since the measured phase began.
    end_s: f64,
}

/// One client's closed loop until `budget` has passed since `t0` or
/// `next` returns `None`: `next` picks each request from the previous
/// one and its latency, and every answer is checked against in-process
/// scoring.
fn client_loop<'p>(
    conn: &mut Connection,
    mut next: impl FnMut(Option<(&'p PlannedRequest, Duration)>) -> Option<&'p PlannedRequest>,
    designs: &[serve_mix::ServedDesign],
    t0: Instant,
    budget: Duration,
    errors: &mut Vec<String>,
) -> Vec<Sample> {
    let mut lat = Vec::new();
    let mut prev = None;
    loop {
        let Some(req) = next(prev) else {
            return lat;
        };
        let t = Instant::now();
        let resp = conn.round_trip(&req.request, |_| {});
        let took = t.elapsed();
        prev = Some((req, took));
        match resp {
            Ok(r) => {
                if let Err(e) = serve_mix::check_response(req, &r, designs) {
                    errors.push(e);
                }
            }
            Err(e) => errors.push(format!("request failed: {e}")),
        }
        lat.push(Sample {
            sweep: matches!(req.request, Request::Sweep { .. }),
            latency_s: secs(took),
            end_s: secs(t0.elapsed()),
        });
        if t0.elapsed() >= budget {
            return lat;
        }
    }
}

fn serve_mix(opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cache_dir = opts.work.join("cache");
    let (seed_s, designs) = timed_setup(SERVE_SETUP_REPS, &mut out, || {
        let designs = serve_mix::build_designs(opts.seed)?;
        seed_cache(&cache_dir, &designs)?;
        Ok(designs)
    })?;
    let plan = Plan::new(&designs);
    out.detail(
        "design_ac_pct",
        floats(&designs.iter().map(|d| d.ac_pct).collect::<Vec<_>>()),
    );
    let ac = designs.iter().map(|d| d.ac_pct).sum::<f64>() / designs.len() as f64;
    out.set("core.key_ac_pct", ac);
    if opts.trace {
        serve_mix_traced(opts, &mut out, &plan, &designs, &cache_dir)?;
        return Ok(out);
    }

    let t_daemon = Instant::now();
    let daemon = Daemon::start(&opts.work.join("serve.sock"), &cache_dir)?;
    let setup_s = seed_s + secs(t_daemon.elapsed());

    let mut conn_a = daemon.connect()?;
    for req in plan.warm_up() {
        let resp = conn_a
            .round_trip(&req.request, |_| {})
            .map_err(|e| format!("warm-up: {e}"))?;
        serve_mix::check_response(req, &resp, &designs).map_err(|e| format!("warm-up: {e}"))?;
    }
    let before = daemon.stats()?;
    let t0 = Instant::now();
    let (mut a_err, mut b_err) = (Vec::new(), Vec::new());
    // The clients take turns (see `serve_mix`): B sends one request,
    // then A one turn of requests, and so on. A waiting client gives up
    // when the budget has passed.
    let a_turn = AtomicBool::new(false);
    let wait_for = |turn_of_a: bool| {
        while a_turn.load(Ordering::SeqCst) != turn_of_a {
            if t0.elapsed() >= opts.budget {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    };
    let (a, b) = std::thread::scope(|s| -> Result<_, String> {
        let mut conn_b = daemon.connect()?;
        let designs = &designs;
        let plan = &plan;
        let b_err = &mut b_err;
        let (a_turn, wait_for) = (&a_turn, &wait_for);
        let client_b = s.spawn(move || {
            let mut i = 0;
            client_loop(
                &mut conn_b,
                |prev| {
                    if prev.is_some() {
                        a_turn.store(true, Ordering::SeqCst);
                    }
                    if !wait_for(false) {
                        return None;
                    }
                    i += 1;
                    Some(plan.b_request(i))
                },
                designs,
                t0,
                opts.budget,
                b_err,
            )
        });
        let mut sent = 0;
        let a = client_loop(
            &mut conn_a,
            |_| {
                if sent == A_TURN {
                    sent = 0;
                    a_turn.store(false, Ordering::SeqCst);
                }
                if sent == 0 && !wait_for(true) {
                    return None;
                }
                sent += 1;
                Some(plan.a_request(sent - 1))
            },
            designs,
            t0,
            opts.budget,
            &mut a_err,
        );
        let b = client_b
            .join()
            .map_err(|_| "client B panicked".to_owned())?;
        Ok((a, b))
    })?;
    let wall_s = a.iter().chain(&b).map(|x| x.end_s).fold(0.0, f64::max);
    let after = daemon.stats()?;
    let peak = peak_rss_mb(Some(daemon.child.id()));
    daemon.shutdown()?;

    out.attempted = (a.len() + b.len()) as u64;
    for e in a_err.into_iter().chain(b_err) {
        out.fail(e);
    }
    let delta = StatsDelta::between(&before, &after)
        .ok_or("daemon counters went backwards over the measured phase")?;
    out.check(delta.trainings == 0, || {
        format!("{} trainings in the measured phase", delta.trainings)
    });
    out.check(delta.jobs_failed == 0, || {
        format!("{} failed jobs in the measured phase", delta.jobs_failed)
    });
    // Hot latency is that of A's sweeps (memory-tier lookup, score and
    // key recovery); A's score submits add the decoding of an inline
    // netlist and are one in 26, so they stay in the run record.
    let hot: Vec<f64> = a.iter().filter(|x| x.sweep).map(|x| x.latency_s).collect();
    let submits: Vec<f64> = a.iter().filter(|x| !x.sweep).map(|x| x.latency_s).collect();
    let cold: Vec<f64> = b.iter().map(|x| x.latency_s).collect();
    let tier_mismatches = delta.cache_disk_hits.abs_diff(b.len() as u64)
        + (delta.cache_hits - delta.cache_disk_hits).abs_diff(a.len() as u64);
    out.check(tier_mismatches == 0, || {
        format!(
            "{} disk-tier hits for {} B requests, {} memory-tier hits for {} A requests",
            delta.cache_disk_hits,
            b.len(),
            delta.cache_hits - delta.cache_disk_hits,
            a.len()
        )
    });
    end_to_end(
        &mut out,
        setup_s,
        &cold,
        &hot,
        a.len() + b.len(),
        wall_s,
        peak,
    );
    out.detail("score_submit_samples_s", floats(&submits));
    out.detail("stats_delta", delta_value(&delta));
    Ok(out)
}

fn delta_value(d: &StatsDelta) -> Value {
    let c = |v: u64| Value::Int(v as i64);
    Value::Map(vec![
        ("cache_hits".into(), c(d.cache_hits)),
        ("cache_disk_hits".into(), c(d.cache_disk_hits)),
        ("cache_misses".into(), c(d.cache_misses)),
        ("cache_evictions".into(), c(d.cache_evictions)),
        ("trainings".into(), c(d.trainings)),
        ("jobs_failed".into(), c(d.jobs_failed)),
    ])
}

/// The traced `serve_mix` run: the same request lines replayed in
/// process through [`muxlink_serve::parse_request`] and the
/// [`Engine`], each call a span.
fn serve_mix_traced(
    opts: &RunOptions,
    out: &mut Outcome,
    plan: &Plan,
    designs: &[serve_mix::ServedDesign],
    cache_dir: &Path,
) -> Result<(), String> {
    let engine = Engine::new(&EngineOptions {
        cache_dir: Some(cache_dir.to_owned()),
        cache_entries: serve_mix::MEMORY_ENTRIES,
        workers: serve_mix::WORKERS,
    })
    .map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(true);
    out.detail("peak_rss_reset", Value::Bool(reset_peak_rss()));
    let r = serve_mix::replay(&engine, plan, designs, opts.budget, &mut tracer);
    out.attempted = r.requests as u64;
    out.failed += r.failed as u64;
    if let Some(e) = r.first_error {
        out.errors.push(e);
    }
    out.check(r.delta.trainings == 0, || "replay trained".to_owned());
    out.check(r.tier_mismatches == 0, || {
        format!(
            "{} replayed requests hit the wrong cache tier",
            r.tier_mismatches
        )
    });
    layer_totals(out, &tracer, r.window_start_s, r.wall_s);
    // Medians per call for the request layers (`_ms`).
    for (metric, span) in [
        ("serve.decode_ms", "serve.decode"),
        ("serve.submit_hot_ms", "serve.submit_hot"),
        ("serve.submit_disk_ms", "serve.submit_disk"),
        ("serve.sweep_ms", "serve.sweep"),
    ] {
        out.set(metric, median(&tracer.durations(span)).unwrap_or(0.0) * 1e3);
    }
    // Fingerprinting each decoded design, timed after the replay window
    // (the engine fingerprints inside `submit`, out of a wrapper's
    // reach).
    let mut fp = Vec::new();
    for d in designs {
        let netlist = bench_format::parse("design", &d.bench_text).map_err(|e| e.to_string())?;
        let names = key_input_names(&netlist);
        for _ in 0..10 {
            let t = Instant::now();
            let f = DesignFingerprint::of_netlist(&netlist, &names).map_err(|e| e.to_string())?;
            fp.push(secs(t.elapsed()));
            out.check(f.to_hex() == d.key_hex, || {
                "fingerprint of the decoded design differs from the checkpoint's".to_owned()
            });
        }
    }
    out.set("core.fingerprint_ms", median(&fp).unwrap_or(0.0) * 1e3);
    let d = &r.delta;
    out.set("serve.cache_hits", d.cache_hits as f64);
    out.set("serve.cache_disk_hits", d.cache_disk_hits as f64);
    out.set("serve.cache_misses", d.cache_misses as f64);
    out.set("serve.cache_evictions", d.cache_evictions as f64);
    out.set("serve.trainings", d.trainings as f64);
    out.set("serve.jobs_failed", d.jobs_failed as f64);
    out.set(
        "serve.memory_hit_ratio",
        d.memory_hit_ratio().unwrap_or(0.0),
    );
    let bytes: u64 = fs::read_dir(cache_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.set("ckpt_bytes", bytes as f64 / designs.len() as f64);
    out.detail("tier_mismatches", Value::Int(r.tier_mismatches as i64));
    out.detail("stats_delta", delta_value(d));
    Ok(())
}
