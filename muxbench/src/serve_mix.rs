//! The `serve_mix` traffic: a memory tier of two checkpoints and a
//! working set of three designs.
//!
//! Design 0 (the fig7 design) belongs to client A, whose turn is an
//! inline `score` submit followed by [`A_SWEEPS`] five-threshold
//! `sweep`s. Client B's turn is one `score` submit, alternately for
//! designs 1 and 2. The clients take turns, so A touches design 0
//! between any two B requests and the LRU always evicts the B design
//! that was not just used: every A request is a memory hit and every B
//! request is a disk-tier reload.
//!
//! The turns also keep A's requests from running while a disk reload
//! parses a checkpoint on the other CPU. Sweeps that overlapped a
//! reload took either about 8 ms or about 15 ms for whole sets of runs,
//! depending on the state of the shared host, which a 0.25 bound on
//! their median cannot absorb.

use std::time::{Duration, Instant};

use muxlink_core::{key_input_names, metrics::score_key, AttackSession, NoProgress, Trained};
use muxlink_locking::{KeyValue, LockedNetlist};
use muxlink_netlist::bench_format;
use muxlink_serve::{
    parse_request, render_request, Engine, JobKind, Request, Response, StatsResponse,
    SubmitOutcome, SubmitRequest, SweepRow,
};

use crate::inputs::{self, Seeds, SWEEP_THRESHOLDS};
use crate::trace::Tracer;

/// Memory-tier capacity of the daemon (one less than the working set).
pub const MEMORY_ENTRIES: usize = 2;

/// Daemon worker threads (only trainings use them; the mix has none).
pub const WORKERS: usize = 1;

/// One trained design of the working set and the answers in-process
/// scoring gives for it.
pub struct ServedDesign {
    /// The locked design.
    pub locked: LockedNetlist,
    /// Its `.bench` text, as submitted inline.
    pub bench_text: String,
    /// The short-recipe checkpoint.
    pub trained: Trained,
    /// Fingerprint hex, the cache key.
    pub key_hex: String,
    /// Key recovered at the default threshold (what `score` answers).
    pub score_key: String,
    /// Sweep rows at [`SWEEP_THRESHOLDS`].
    pub sweep_rows: Vec<SweepRow>,
    /// AC (%) of [`ServedDesign::score_key`] against the true key.
    pub ac_pct: f64,
}

/// Builds and trains the three designs of the working set.
///
/// # Errors
///
/// A locking, round-trip or attack error.
pub fn build_designs(seed: u64) -> Result<Vec<ServedDesign>, String> {
    let mut specs = vec![(inputs::FIG7, Seeds::fig7(seed))];
    for (i, spec) in inputs::SERVE_OTHERS.iter().enumerate() {
        specs.push((*spec, Seeds::derived(seed, 0x5e7e + i as u64)));
    }
    specs
        .iter()
        .map(|(spec, seeds)| {
            let locked = inputs::build_locked(spec, seeds)?;
            let bench_text = bench_format::write(&locked.netlist).map_err(|e| e.to_string())?;
            // Train on exactly what the daemon decodes from the inline
            // text, so the checkpoint's fingerprint is the cache key the
            // daemon computes.
            let submitted =
                bench_format::parse("design", &bench_text).map_err(|e| e.to_string())?;
            let names = key_input_names(&submitted);
            let trained = AttackSession::new(&submitted, &names, inputs::short_recipe(seeds, 1))
                .extract()
                .and_then(|e| e.prepare(&NoProgress))
                .and_then(|p| p.train(&NoProgress))
                .map_err(|e| format!("training {}: {e}", spec.profile))?;
            let scored = trained.score(&NoProgress).map_err(|e| e.to_string())?;
            let keys = inputs::sweep_keys(&scored);
            let guess = keys[inputs::DEFAULT_TH_INDEX].clone();
            let sweep_rows = SWEEP_THRESHOLDS
                .iter()
                .zip(&keys)
                .map(|(&th, g)| SweepRow {
                    th,
                    key_string: render(g),
                    decided: g.iter().filter(|v| **v != KeyValue::X).count(),
                })
                .collect();
            Ok(ServedDesign {
                key_hex: trained.fingerprint().to_hex(),
                score_key: render(&guess),
                ac_pct: score_key(&guess, &locked.key).accuracy_pct(),
                sweep_rows,
                bench_text,
                trained,
                locked,
            })
        })
        .collect()
}

/// Renders a guess as `0`/`1`/`X` per bit.
#[must_use]
pub fn render(guess: &[KeyValue]) -> String {
    guess.iter().map(ToString::to_string).collect()
}

/// Which client sent a request, and so which cache tier should answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// Client A: design 0, memory tier.
    A,
    /// Client B: designs 1 and 2, disk tier.
    B,
}

/// One request of the mix and the design it concerns.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Sending client.
    pub client: Client,
    /// Index into the working set.
    pub design: usize,
    /// The request.
    pub request: Request,
    /// Its exact wire line (no trailing newline).
    pub line: String,
}

/// The request lines of the mix, rendered once.
pub struct Plan {
    /// A's score submit and sweep.
    pub a: [PlannedRequest; 2],
    /// B's score submits for designs 1 and 2, sent alternately.
    pub b: [PlannedRequest; 2],
}

impl Plan {
    /// Renders the requests for `designs` (the three of
    /// [`build_designs`]).
    #[must_use]
    pub fn new(designs: &[ServedDesign]) -> Self {
        let score = |client, design: usize| {
            let request = Request::Submit(SubmitRequest {
                threads: Some(1),
                ..SubmitRequest::inline(JobKind::Score, &designs[design].bench_text)
            });
            PlannedRequest {
                client,
                design,
                line: render_request(&request),
                request,
            }
        };
        let sweep = Request::Sweep {
            key: designs[0].key_hex.clone(),
            thresholds: SWEEP_THRESHOLDS.to_vec(),
        };
        Self {
            a: [
                score(Client::A, 0),
                PlannedRequest {
                    client: Client::A,
                    design: 0,
                    line: render_request(&sweep),
                    request: sweep,
                },
            ],
            b: [score(Client::B, 1), score(Client::B, 2)],
        }
    }

    /// B's `i`-th request: designs 1, 2, 1, 2, …
    #[must_use]
    pub fn b_request(&self, i: usize) -> &PlannedRequest {
        &self.b[i % 2]
    }

    /// Request `i` of one A turn: the score submit, then sweeps.
    #[must_use]
    pub fn a_request(&self, i: usize) -> &PlannedRequest {
        &self.a[usize::from(i > 0)]
    }

    /// Requests that bring the memory tier to its steady state before
    /// measuring: A loads design 0, B loads design 1, A touches design
    /// 0 again. The measured phase then starts at B's request 1.
    #[must_use]
    pub fn warm_up(&self) -> Vec<&PlannedRequest> {
        vec![&self.a[0], &self.b[0], &self.a[1]]
    }
}

/// Sweeps in each A turn, after its score submit: enough for a p90
/// with ten samples beyond it in a ten-second run.
pub const A_SWEEPS: usize = 25;

/// Requests in one A turn.
pub const A_TURN: usize = 1 + A_SWEEPS;

/// Checks one response against in-process scoring of its design.
///
/// # Errors
///
/// A description of the mismatch or the daemon's error.
pub fn check_response(
    req: &PlannedRequest,
    resp: &Response,
    designs: &[ServedDesign],
) -> Result<(), String> {
    let want = &designs[req.design];
    match (&req.request, resp) {
        (Request::Submit(_), Response::Result(r)) => {
            if r.key_string != want.score_key {
                return Err(format!(
                    "design {}: daemon key {} != in-process key {}",
                    req.design, r.key_string, want.score_key
                ));
            }
            if r.key != want.key_hex {
                return Err(format!(
                    "design {}: wrong fingerprint {}",
                    req.design, r.key
                ));
            }
            Ok(())
        }
        (Request::Sweep { .. }, Response::Sweep { rows, .. }) => {
            if *rows != want.sweep_rows {
                return Err(format!("design {}: sweep rows differ", req.design));
            }
            Ok(())
        }
        (_, Response::Error { message }) => Err(message.clone()),
        (_, other) => Err(format!("unexpected response {other:?}")),
    }
}

/// Change of the daemon's counters over a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsDelta {
    /// Lookups answered (memory or disk).
    pub cache_hits: u64,
    /// Of those, answered by a disk-tier reload.
    pub cache_disk_hits: u64,
    /// Lookups that found nothing.
    pub cache_misses: u64,
    /// Memory-tier evictions.
    pub cache_evictions: u64,
    /// Trainings run.
    pub trainings: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
}

impl StatsDelta {
    /// `after − before`; `None` if any counter went backwards (the two
    /// snapshots are not of one daemon lifetime).
    #[must_use]
    pub fn between(before: &StatsResponse, after: &StatsResponse) -> Option<Self> {
        Some(Self {
            cache_hits: after.cache_hits.checked_sub(before.cache_hits)?,
            cache_disk_hits: after.cache_disk_hits.checked_sub(before.cache_disk_hits)?,
            cache_misses: after.cache_misses.checked_sub(before.cache_misses)?,
            cache_evictions: after.cache_evictions.checked_sub(before.cache_evictions)?,
            trainings: after.trainings.checked_sub(before.trainings)?,
            jobs_failed: after.jobs_failed.checked_sub(before.jobs_failed)?,
        })
    }

    /// Share of lookups answered from memory (`None` without lookups).
    #[must_use]
    pub fn memory_hit_ratio(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| (self.cache_hits - self.cache_disk_hits) as f64 / lookups as f64)
    }
}

/// What an in-process replay of the mix did.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed (after warm-up).
    pub requests: usize,
    /// Requests whose answer failed its check.
    pub failed: usize,
    /// First failure, verbatim.
    pub first_error: Option<String>,
    /// A requests answered from disk, plus B requests answered from
    /// memory (0 when the mix behaves as designed).
    pub tier_mismatches: usize,
    /// Counter change over the replay.
    pub delta: StatsDelta,
    /// Replay wall in seconds (from the tracer's window start).
    pub wall_s: f64,
    /// Window start, as an offset from the tracer's origin.
    pub window_start_s: f64,
}

/// Replays the mix in process for `budget` (at least one B request and
/// one A turn), the clients taking turns as in the daemon run. Every
/// call is a span: `serve.decode` (score submits) or
/// `serve.decode_sweep` around [`parse_request`], `serve.submit_hot` /
/// `serve.submit_disk` around
/// [`Engine::submit`] (split by whether the disk-hit counter advanced)
/// and `serve.sweep` around [`Engine::sweep`].
pub fn replay(
    engine: &Engine,
    plan: &Plan,
    designs: &[ServedDesign],
    budget: Duration,
    tracer: &mut Tracer,
) -> Replay {
    let mut out = Replay::default();
    let one = |req: &PlannedRequest, tracer: &mut Tracer, out: &mut Replay| {
        let before = engine.stats();
        // Score submits carry the whole netlist inline; their decode
        // is the one worth a metric, so sweeps get a span of their own.
        let span = match req.request {
            Request::Sweep { .. } => "serve.decode_sweep",
            _ => "serve.decode",
        };
        let decoded = tracer.time(span, || parse_request(&req.line));
        let start = Instant::now();
        let (resp, name) = match decoded {
            Ok(Request::Submit(sreq)) => {
                let resp = match engine.submit(&sreq) {
                    Ok(SubmitOutcome::Ready(r)) => Response::Result(*r),
                    Ok(SubmitOutcome::Queued { job_id, .. }) => Response::Error {
                        message: format!("submit queued job {job_id} instead of a cache hit"),
                    },
                    Err(message) => Response::Error { message },
                };
                (resp, "serve.submit")
            }
            Ok(Request::Sweep { key, thresholds }) => {
                let resp = match engine.sweep(&key, &thresholds) {
                    Ok(rows) => Response::Sweep {
                        key,
                        cache_hit: true,
                        rows,
                    },
                    Err(message) => Response::Error { message },
                };
                (resp, "serve.sweep")
            }
            Ok(other) => (
                Response::Error {
                    message: format!("unplanned request {other:?}"),
                },
                "serve.other",
            ),
            Err(message) => (Response::Error { message }, "serve.other"),
        };
        let took = start.elapsed();
        let disk = engine.stats().cache_disk_hits > before.cache_disk_hits;
        let name = match (name, disk) {
            ("serve.submit", true) => "serve.submit_disk",
            ("serve.submit", false) => "serve.submit_hot",
            (other, _) => other,
        };
        tracer.record(name, start, took, None);
        if disk != (req.client == Client::B) {
            out.tier_mismatches += 1;
        }
        if let Err(e) = check_response(req, &resp, designs) {
            out.failed += 1;
            out.first_error.get_or_insert(e);
        }
    };
    for req in plan.warm_up() {
        let mut scratch = Replay::default();
        one(req, &mut Tracer::new(false), &mut scratch);
        out.failed += scratch.failed;
        if let Some(e) = scratch.first_error {
            out.first_error.get_or_insert(e);
        }
    }
    let before = engine.stats();
    let t0 = Instant::now();
    out.window_start_s = t0.saturating_duration_since(tracer.origin()).as_secs_f64();
    let mut b = 1usize;
    loop {
        one(plan.b_request(b), tracer, &mut out);
        b += 1;
        for i in 0..A_TURN {
            one(plan.a_request(i), tracer, &mut out);
        }
        out.requests += 1 + A_TURN;
        if t0.elapsed() >= budget {
            break;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.delta = StatsDelta::between(&before, &engine.stats()).unwrap_or_default();
    out
}
