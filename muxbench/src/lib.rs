//! The MuxLink benchmark: three workloads that time the attack end to
//! end and, in a separate traced run, layer by layer.
//!
//! * `fig7_attack`: the pinned one-shot attack (c1355 ×2, D-MUX K = 16,
//!   quick profile, one thread), then re-scoring of its model.
//! * `b14_rescore`: the train-once/score-many path at ITC-99 scale, a
//!   checkpoint of b14 ×0.5 (symmetric locking) reloaded and re-scored the
//!   way `muxlink attack --model` does it.
//! * `serve_mix`: a `muxlink serve` daemon whose memory tier holds two
//!   of three checkpoints, under one client that hits memory and one
//!   that forces a disk-tier reload on every request.
//!
//! Every layer is timed from outside, by wrapping the public call into
//! its crate; `BENCHMARK.json` at the repository root names the metrics
//! and `predictions.json` beside this crate which layer should move which
//! end-to-end number.

pub mod inputs;
pub mod provenance;
pub mod serve_mix;
pub mod stats;
pub mod trace;
pub mod workloads;
