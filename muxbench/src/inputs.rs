//! Workload inputs, all derived from one workload seed.
//!
//! The workload seed picks the defender's lock (key-MUX sites and key)
//! and the attacker's training stream; the generated circuits stay fixed
//! ([`CIRCUIT_SEED`]). Over eight seeds, regenerating the c1355 ×2
//! circuit moved the fig7 training work (total subgraph nodes) between
//! 46.7k and 53.9k, while fixing it kept the work within 52.8k-54.0k, so
//! a fixed circuit keeps one workload one amount of work.
//!
//! The default seed ([`DEFAULT_SEED`]) reproduces the pinned fig7
//! anchor: generate seed 1, lock seed 7, training seed 0.
//!
//! Every derived seed stays below 2^32. A training seed of 2^63 or more
//! is written into a checkpoint as a negative integer that the vendored
//! `serde_json` then refuses to read back, so such seeds would turn the
//! checkpoint workloads into load failures.

use muxlink_core::{MuxLinkConfig, ScoredDesign};
use muxlink_locking::{dmux, symmetric, KeyValue, LockError, LockOptions, LockedNetlist};
use muxlink_netlist::{bench_format, Netlist};

/// Workload seed that reproduces the pinned fig7 anchor.
pub const DEFAULT_SEED: u64 = 1;

/// Generator seed of every workload circuit.
pub const CIRCUIT_SEED: u64 = 1;

/// Key the fig7 anchor recovers at [`DEFAULT_SEED`].
pub const FIG7_PINNED_KEY: &str = "0110110110000111";

/// AC (%) of [`FIG7_PINNED_KEY`] against the defender's key
/// `0110111010000111`.
pub const FIG7_PINNED_AC_PCT: f64 = 87.5;

/// Thresholds of every key-recovery sweep (`recover_key` and the
/// daemon's `sweep`).
pub const SWEEP_THRESHOLDS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];

/// Index in [`SWEEP_THRESHOLDS`] of the attack's default threshold
/// (`MuxLinkConfig::quick().th`).
pub const DEFAULT_TH_INDEX: usize = 1;

/// The keys `scored` gives at each of [`SWEEP_THRESHOLDS`].
#[must_use]
pub fn sweep_keys(scored: &ScoredDesign) -> Vec<Vec<KeyValue>> {
    SWEEP_THRESHOLDS
        .iter()
        .map(|&th| scored.recover_key(th))
        .collect()
}

/// Seeds of one locked design and its attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Synthetic-design generator seed.
    pub generate: u64,
    /// Locking seed.
    pub lock: u64,
    /// Attack (training) seed, `MuxLinkConfig::seed`.
    pub train: u64,
}

impl Seeds {
    /// The fig7 seeds: lock seed `s ^ 6` and train seed `s ^ 1` for the
    /// low 32 bits `s` of `seed`, which with [`CIRCUIT_SEED`] is
    /// `(1, 7, 0)` at [`DEFAULT_SEED`].
    #[must_use]
    pub fn fig7(seed: u64) -> Self {
        let seed = seed & LOW32;
        Self {
            generate: CIRCUIT_SEED,
            lock: seed ^ 6,
            train: seed ^ 1,
        }
    }

    /// Seeds for any other design, decorrelated by `tag`.
    #[must_use]
    pub fn derived(seed: u64, tag: u64) -> Self {
        Self {
            generate: CIRCUIT_SEED,
            lock: mix(seed, tag ^ 0x10c_c0de),
            train: mix(seed, tag ^ 0x7a1_4e0d),
        }
    }
}

const LOW32: u64 = 0xffff_ffff;

/// Low 32 bits of the SplitMix64 finaliser of `seed` and `tag`.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & LOW32
}

/// Locking scheme of a workload design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// D-MUX.
    DMux,
    /// Symmetric MUX locking.
    Symmetric,
}

/// One design of a workload: benchmark profile, scale, scheme and key
/// size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSpec {
    /// Suite profile name (`c1355`, `b14`, …).
    pub profile: &'static str,
    /// Scale factor applied to the profile.
    pub scale: f64,
    /// Locking scheme.
    pub scheme: Scheme,
    /// Key bits.
    pub key_size: usize,
}

/// The fig7 anchor design: c1355 ×2, D-MUX, K = 16.
pub const FIG7: DesignSpec = DesignSpec {
    profile: "c1355",
    scale: 2.0,
    scheme: Scheme::DMux,
    key_size: 16,
};

/// The rescore design: b14 ×0.5 (4,884 nodes), symmetric, K = 64.
///
/// The paper attacks ITC-99 designs of 10-30k gates with keys of up to
/// 512 bits. At b14 ×1 one rescore takes about 17 s and locking about
/// 0.27 s per key bit, so the three rescores and repeated set-ups a run
/// needs for steady medians would not fit the benchmark's time budget.
/// At ×0.5 a rescore takes about 9 s, the checkpoint is about 8 MB, and
/// loading it is still nearly all of the rescore.
pub const B14: DesignSpec = DesignSpec {
    profile: "b14",
    scale: 0.5,
    scheme: Scheme::Symmetric,
    key_size: 64,
};

/// The two designs beside fig7 in the daemon's working set.
pub const SERVE_OTHERS: [DesignSpec; 2] = [
    DesignSpec {
        profile: "c1908",
        scale: 1.0,
        scheme: Scheme::Symmetric,
        key_size: 16,
    },
    DesignSpec {
        profile: "c2670",
        scale: 1.0,
        scheme: Scheme::DMux,
        key_size: 32,
    },
];

/// Generates and locks `spec` the way the CLI does: the generated design
/// and the locked design each make a `.bench` write → parse round trip
/// (the round trip renumbers ids, which moves D-MUX site selection and
/// the attack's id order).
///
/// # Errors
///
/// A locking error (the workload specs leave ample sites) or a
/// round-trip failure.
pub fn build_locked(spec: &DesignSpec, seeds: &Seeds) -> Result<LockedNetlist, String> {
    let suite = if spec.profile.starts_with('b') {
        muxlink_benchgen::SyntheticSuite::itc99()
    } else {
        muxlink_benchgen::SyntheticSuite::iscas85()
    };
    let profile = suite
        .find(spec.profile)
        .ok_or_else(|| format!("unknown profile {}", spec.profile))?
        .scaled(spec.scale);
    let design = round_trip(&profile.generate(seeds.generate))?;
    let opts = LockOptions::new(spec.key_size, seeds.lock);
    let mut locked = match spec.scheme {
        Scheme::DMux => dmux::lock(&design, &opts),
        Scheme::Symmetric => symmetric::lock(&design, &opts),
    }
    .map_err(|e: LockError| format!("locking {}: {e}", spec.profile))?;
    let names = locked.key_input_names();
    locked.netlist = round_trip(&locked.netlist)?;
    locked.key_inputs = names
        .iter()
        .map(|n| {
            locked
                .netlist
                .find_net(n)
                .ok_or_else(|| format!("key input {n} lost in the round trip"))
        })
        .collect::<Result<_, _>>()?;
    Ok(locked)
}

fn round_trip(netlist: &Netlist) -> Result<Netlist, String> {
    let text = bench_format::write(netlist).map_err(|e| e.to_string())?;
    bench_format::parse(netlist.name(), &text).map_err(|e| e.to_string())
}

/// The fig7 attack recipe: the quick profile at one thread.
#[must_use]
pub fn fig7_config(seeds: &Seeds) -> MuxLinkConfig {
    muxlink_bench::resynth::fig7_config().with_seed(seeds.train)
}

/// The short training recipe of checkpoint set-up. Scoring cost does
/// not depend on the epoch count, so the checkpoint has the size a full
/// training run gives.
#[must_use]
pub fn short_recipe(seeds: &Seeds, threads: usize) -> MuxLinkConfig {
    let mut cfg = MuxLinkConfig::quick()
        .with_seed(seeds.train)
        .with_threads(threads);
    cfg.epochs = 1;
    cfg.max_train_links = 200;
    cfg
}
