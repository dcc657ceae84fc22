//! Tests of the benchmark harness itself: its statistics, its counter
//! arithmetic, the tier behaviour the `serve_mix` traffic relies on,
//! span attribution and the pinned fig7 inputs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use muxbench::inputs::{self, Seeds, DEFAULT_SEED};
use muxbench::serve_mix::{self, Plan, StatsDelta};
use muxbench::stats::{median, percentile, PercentileError, Summary, MIN_BEYOND};
use muxbench::trace::Tracer;
use muxbench::workloads::{another_round, MIN_ROUNDS};
use muxlink_serve::{
    parse_request, CheckpointCache, Engine, EngineOptions, Request, StatsResponse, SubmitOutcome,
    PROTOCOL_VERSION,
};

#[test]
fn percentile_reports_count_and_refuses_thin_tails() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&hundred).unwrap();
    assert_eq!(s.n, 100);
    assert_eq!(s.p50, 50.5);
    // Nearest rank 90 leaves exactly ten samples beyond it.
    assert_eq!(s.p90, Some(90.0));
    assert_eq!(percentile(&hundred, 0.9), Ok(90.0));

    let ninety_nine = &hundred[..99];
    let s = Summary::of(ninety_nine).unwrap();
    assert_eq!(s.n, 99);
    assert_eq!(s.p90, None, "nine samples beyond a p90 are too few");
    assert_eq!(
        percentile(ninety_nine, 0.9),
        Err(PercentileError::TooFewBeyond { n: 99, beyond: 9 })
    );
    // The rule holds for every tail: a p99 needs a thousand samples.
    assert!(percentile(&hundred, 0.99).is_err());
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&thousand, 0.99), Ok(990.0));
    assert_eq!(MIN_BEYOND, 10);

    assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
    assert_eq!(median(&[]), Err(PercentileError::Empty));
    assert_eq!(percentile(&hundred, 1.5), Err(PercentileError::BadFraction));
    assert!(Summary::of(&[]).is_none());
}

fn stats(hits: u64, disk_hits: u64, misses: u64, evictions: u64) -> StatsResponse {
    StatsResponse {
        protocol: PROTOCOL_VERSION,
        workers: 1,
        jobs_submitted: 0,
        jobs_queued: 0,
        jobs_running: 0,
        jobs_done: 0,
        jobs_failed: 0,
        jobs_cancelled: 0,
        trainings: 0,
        coalesced_submits: 0,
        cache_memory_entries: 2,
        cache_hits: hits,
        cache_misses: misses,
        cache_disk_hits: disk_hits,
        cache_insertions: 3,
        cache_evictions: evictions,
        cache_verify_rejections: 0,
        uptime_seconds: 1.0,
    }
}

#[test]
fn stats_deltas_subtract_each_counter() {
    let before = stats(10, 3, 1, 2);
    let mut after = stats(25, 8, 1, 7);
    after.trainings = 2;
    after.jobs_failed = 1;
    let d = StatsDelta::between(&before, &after).unwrap();
    assert_eq!(
        d,
        StatsDelta {
            cache_hits: 15,
            cache_disk_hits: 5,
            cache_misses: 0,
            cache_evictions: 5,
            trainings: 2,
            jobs_failed: 1,
        }
    );
    // 10 of 15 lookups came from memory.
    assert_eq!(d.memory_hit_ratio(), Some(10.0 / 15.0));
    assert_eq!(StatsDelta::default().memory_hit_ratio(), None);
    // Snapshots of two daemon lifetimes are refused, not wrapped.
    assert_eq!(StatsDelta::between(&after, &before), None);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn client_b_reloads_from_disk_on_every_request() {
    let designs = serve_mix::build_designs(DEFAULT_SEED).unwrap();
    let dir = scratch_dir("serve_mix_tiers");
    let cache = CheckpointCache::new(Some(dir.clone()), serve_mix::MEMORY_ENTRIES).unwrap();
    for d in &designs {
        cache
            .insert(&d.key_hex, Arc::new(d.trained.clone()))
            .unwrap();
    }
    drop(cache);
    let engine = Engine::new(&EngineOptions {
        cache_dir: Some(dir),
        cache_entries: serve_mix::MEMORY_ENTRIES,
        workers: serve_mix::WORKERS,
    })
    .unwrap();
    let plan = Plan::new(&designs);
    let send = |req: &serve_mix::PlannedRequest| -> u64 {
        let before = engine.stats().cache_disk_hits;
        match parse_request(&req.line).unwrap() {
            Request::Submit(s) => match engine.submit(&s).unwrap() {
                SubmitOutcome::Ready(r) => {
                    assert_eq!(r.key_string, designs[req.design].score_key);
                }
                SubmitOutcome::Queued { .. } => panic!("a cached design must answer inline"),
            },
            Request::Sweep { key, thresholds } => {
                let rows = engine.sweep(&key, &thresholds).unwrap();
                assert_eq!(rows, designs[0].sweep_rows);
            }
            other => panic!("unplanned request {other:?}"),
        }
        engine.stats().cache_disk_hits - before
    };
    for req in plan.warm_up() {
        send(req);
    }
    let start = engine.stats();
    for i in 1..=6 {
        assert_eq!(send(plan.b_request(i)), 1, "B request {i} must reload");
        // A's turn between B's requests stays in memory.
        assert!(matches!(plan.a_request(0).request, Request::Submit(_)));
        for j in 0..serve_mix::A_TURN {
            assert_eq!(send(plan.a_request(j)), 0);
        }
    }
    let d = StatsDelta::between(&start, &engine.stats()).unwrap();
    assert_eq!(d.cache_disk_hits, 6);
    assert_eq!(d.cache_hits, 6 * (1 + serve_mix::A_TURN as u64));
    assert_eq!(d.cache_evictions, 6);
    assert_eq!((d.cache_misses, d.trainings, d.jobs_failed), (0, 0, 0));

    // The traced replay sees the same tiers.
    let mut tracer = Tracer::new(true);
    let r = serve_mix::replay(&engine, &plan, &designs, Duration::ZERO, &mut tracer);
    assert_eq!((r.failed, r.tier_mismatches), (0, 0));
    assert!(r.delta.cache_disk_hits >= 1);
    assert_eq!(
        r.delta.cache_disk_hits as usize,
        tracer.durations("serve.submit_disk").len()
    );
}

/// Deterministic pseudo-random numbers in `[0, 1)`.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn unattributed_time_is_never_negative() {
    let t = Tracer::new(true);
    assert_eq!(t.unattributed(0.0, 2.0), 2.0);

    let mut rng = 7u64;
    for _ in 0..200 {
        let mut t = Tracer::new(true);
        let window = lcg(&mut rng) * 0.5;
        let wall = lcg(&mut rng) * 2.0;
        for _ in 0..(lcg(&mut rng) * 12.0) as usize {
            // Spans may start before the window, overlap each other, run
            // past its end, or nest as children.
            let start = t.origin() + Duration::from_secs_f64(lcg(&mut rng) * 3.0);
            let dur = Duration::from_secs_f64(lcg(&mut rng) * 1.5);
            let parent = (lcg(&mut rng) < 0.3).then_some("core.train");
            t.record("core.score", start, dur, parent);
        }
        let u = t.unattributed(window, wall);
        assert!(u >= 0.0, "unattributed {u} < 0");
        assert!(u <= wall + 1e-12, "unattributed {u} > wall {wall}");
    }

    // Sequential spans that tile the window leave nothing unattributed.
    let mut t = Tracer::new(true);
    let o = t.origin();
    t.record("a", o, Duration::from_millis(400), None);
    t.record(
        "b",
        o + Duration::from_millis(400),
        Duration::from_millis(600),
        None,
    );
    t.record("c", o, Duration::from_millis(900), Some("b"));
    assert!(t.unattributed(0.0, 1.0).abs() < 1e-9);
    assert!((t.unattributed(0.0, 1.5) - 0.5).abs() < 1e-9);
}

#[test]
fn default_seed_locks_the_pinned_fig7_design() {
    let seeds = Seeds::fig7(DEFAULT_SEED);
    assert_eq!((seeds.generate, seeds.lock, seeds.train), (1, 7, 0));
    let ours = inputs::build_locked(&inputs::FIG7, &seeds).unwrap();
    let pinned = muxlink_bench::resynth::fig7_workload();
    assert_eq!(ours.netlist, pinned.netlist);
    assert_eq!(ours.key, pinned.key);
    assert_eq!(ours.key_inputs, pinned.key_inputs);
    assert_eq!(
        inputs::fig7_config(&seeds),
        muxlink_bench::resynth::fig7_config()
    );
    // Every recipe recovers at the threshold the sweeps index as default.
    assert_eq!(
        inputs::SWEEP_THRESHOLDS[inputs::DEFAULT_TH_INDEX],
        inputs::fig7_config(&seeds).th
    );
    assert_eq!(
        inputs::SWEEP_THRESHOLDS[inputs::DEFAULT_TH_INDEX],
        inputs::short_recipe(&seeds, 1).th
    );
    // Other seeds move the lock and the training stream, not the circuit.
    let other = Seeds::fig7(2);
    assert_eq!(other.generate, seeds.generate);
    assert_ne!((other.lock, other.train), (seeds.lock, seeds.train));
    assert!(Seeds::derived(u64::MAX, 3).train < 1 << 32);
}

#[test]
fn every_run_measures_at_least_three_rounds() {
    let s = Duration::from_secs;
    // Below the minimum, a round runs even far past the budget.
    for done in 0..MIN_ROUNDS {
        assert!(another_round(done, s(100), s(20), s(30)));
    }
    assert_eq!(MIN_ROUNDS, 3);
    // Past it, only a round that still fits.
    assert!(another_round(MIN_ROUNDS, s(15), s(5), s(30)));
    assert!(another_round(MIN_ROUNDS, s(25), s(5), s(30)));
    assert!(!another_round(MIN_ROUNDS, s(26), s(5), s(30)));
}
