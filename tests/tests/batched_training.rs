//! Cross-crate contract of the block-diagonal batched trainer: the
//! batched loop — one fused propagate+GEMM per layer per minibatch —
//! must be **bitwise identical** to the per-sample loop of
//! [`spec_trainer`], across batch sizes, thread counts, storage backends
//! and a real attack session's arena.

use muxlink_core::scoring::to_graph_sample;
use muxlink_core::{AttackSession, MuxLinkConfig, NoProgress, Trained};
use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    train, AdamConfig, ArenaSamples, BatchWorkspace, Dgcnn, DgcnnConfig, Gradients, GraphSample,
    Matrix, Minibatch, SampleStore, TrainConfig, TrainReport,
};
use muxlink_graph::dataset::{build_dataset, build_dataset_arena, DatasetConfig, LinkSample};
use muxlink_graph::extract;
use muxlink_integration_tests::spec_trainer::{self, WithoutPlans};
use muxlink_locking::{dmux, LockOptions};
use proptest::prelude::*;
use rand::Rng;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn owned_graph_samples(samples: &[LinkSample], max_label: u32) -> Vec<GraphSample> {
    samples
        .iter()
        .map(|s| to_graph_sample(&s.subgraph, max_label, Some(s.label)))
        .collect()
}

/// Real enclosing-subgraph datasets (compact one-hot features, varied
/// sizes) from a locked synthetic design.
fn subgraph_dataset() -> (Vec<GraphSample>, Vec<GraphSample>, usize) {
    let design = muxlink_benchgen::synth::SynthConfig::new("bt", 14, 6, 220).generate(7);
    let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_train_links: 200,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(80),
        seed: 3,
        chunk: 32,
    };
    let owned = build_dataset(&ex.graph, &ex.target_links(), &ds_cfg);
    let input_dim = muxlink_graph::features::feature_cols(owned.max_label);
    (
        owned_graph_samples(&owned.train, owned.max_label),
        owned_graph_samples(&owned.val, owned.max_label),
        input_dim,
    )
}

fn model_bits(model: &Dgcnn) -> String {
    serde_json::to_string(model).expect("model serializes")
}

/// Three epochs of the production trainer, or of the spec when `spec`.
fn train_with(
    train_set: &[GraphSample],
    val_set: &[GraphSample],
    model_cfg: &DgcnnConfig,
    batch_size: usize,
    spec: bool,
) -> (TrainReport, String) {
    let cfg = TrainConfig {
        epochs: 3,
        batch_size,
        ..TrainConfig::default()
    };
    let mut model = Dgcnn::new(model_cfg.clone());
    let report = if spec {
        spec_trainer::train(&mut model, train_set, val_set, &cfg)
    } else {
        train(&mut model, train_set, val_set, &cfg)
    };
    (report, model_bits(&model))
}

/// The batched loop reproduces the per-sample spec bit for bit —
/// history, best epoch and every model weight — on real subgraphs at
/// batch sizes 1, 7 and 32.
#[test]
fn batched_loop_matches_reference_across_batch_sizes() {
    let (train_set, val_set, input_dim) = subgraph_dataset();
    let model_cfg = DgcnnConfig::paper(input_dim, 10);
    for batch_size in [1usize, 7, 32] {
        let spec = train_with(&train_set, &val_set, &model_cfg, batch_size, true);
        let batched = train_with(&train_set, &val_set, &model_cfg, batch_size, false);
        assert_eq!(
            spec.0, batched.0,
            "batch {batch_size}: training history diverged"
        );
        assert_eq!(
            spec.1, batched.1,
            "batch {batch_size}: model weights diverged"
        );
    }
}

/// Thread invariance: the spec parallelises across samples, the batched
/// loop is sequential — both must agree from any pool. CI runs this test
/// by name at 2 threads.
#[test]
fn batched_loop_matches_reference_at_two_threads() {
    let (train_set, val_set, input_dim) = subgraph_dataset();
    let model_cfg = DgcnnConfig::paper(input_dim, 10);
    let baseline = pool(1).install(|| train_with(&train_set, &val_set, &model_cfg, 8, false));
    for threads in [2usize, 4] {
        let spec = pool(threads).install(|| train_with(&train_set, &val_set, &model_cfg, 8, true));
        let batched =
            pool(threads).install(|| train_with(&train_set, &val_set, &model_cfg, 8, false));
        assert_eq!(baseline, spec, "{threads}-thread spec diverged");
        assert_eq!(baseline, batched, "{threads}-thread batched diverged");
    }
}

/// Storage invariance: the batched assembler copies blocks out of owned
/// `Vec`s and arena slabs through the same `SampleStore` views — the
/// trained model must be identical either way.
#[test]
fn batched_loop_is_storage_invariant_owned_vs_arena() {
    let design = muxlink_benchgen::synth::SynthConfig::new("bts", 14, 6, 220).generate(9);
    let locked = dmux::lock(&design, &LockOptions::new(6, 3)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let ds_cfg = DatasetConfig {
        h: 2,
        max_train_links: 160,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(80),
        seed: 5,
        chunk: 24,
    };
    let targets = ex.target_links();
    let owned = build_dataset(&ex.graph, &targets, &ds_cfg);
    let pooled = build_dataset_arena(&ex.graph, &targets, &ds_cfg);
    let max_label = owned.max_label;
    let input_dim = muxlink_graph::features::feature_cols(max_label);
    let otrain = owned_graph_samples(&owned.train, max_label);
    let oval = owned_graph_samples(&owned.val, max_label);

    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let mut om = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let or = train(&mut om, &otrain, &oval, &cfg);
    let mut am = Dgcnn::new(DgcnnConfig::paper(input_dim, 10));
    let ar = pool(4).install(|| {
        let tr = ArenaSamples::select(&pooled.arena, &pooled.train, max_label);
        let va = ArenaSamples::select(&pooled.arena, &pooled.val, max_label);
        train(&mut am, &tr, &va, &cfg)
    });
    assert_eq!(or, ar, "owned vs arena history diverged");
    assert_eq!(model_bits(&om), model_bits(&am), "weights diverged");
}

/// End to end on a real attack session: the quick-profile `Prepared`
/// stage of an [`AttackSession`] trains to the same bits through the
/// production trainer, with layer 0 read from the arena's cached plans,
/// and through the spec with the plans hidden — and each model, scored
/// as a `Trained` checkpoint, recovers the same key.
#[test]
fn full_attack_recovers_identical_key_with_batched_trainer() {
    let design = muxlink_benchgen::synth::SynthConfig::new("btk", 14, 6, 260).generate(11);
    let locked = dmux::lock(&design, &LockOptions::new(8, 3)).unwrap();
    let cfg = MuxLinkConfig::quick().with_seed(4).with_threads(1);
    let prepared = AttackSession::new(&locked.netlist, &locked.key_input_names(), cfg)
        .extract()
        .unwrap()
        .prepare(&NoProgress)
        .unwrap();
    let ds = &prepared.dataset;
    let train_cfg = TrainConfig {
        epochs: prepared.cfg.epochs,
        batch_size: prepared.cfg.batch_size,
        adam: AdamConfig {
            lr: prepared.cfg.learning_rate,
            ..AdamConfig::default()
        },
        seed: prepared.cfg.seed,
    };
    let model_cfg = DgcnnConfig::paper(
        muxlink_graph::features::feature_cols(ds.max_label),
        prepared.k,
    );
    let tr = ArenaSamples::select(&ds.arena, &ds.train, ds.max_label);
    let va = ArenaSamples::select(&ds.arena, &ds.val, ds.max_label);
    assert!(tr.plan(0).is_some(), "prepare caches the layer-0 plans");

    let mut production = Dgcnn::new(model_cfg.clone());
    let production_report = train(&mut production, &tr, &va, &train_cfg);
    let mut spec = Dgcnn::new(model_cfg);
    let spec_report = spec_trainer::train(&mut spec, &WithoutPlans(&tr), &va, &train_cfg);
    assert_eq!(production_report, spec_report, "training history diverged");
    assert_eq!(
        model_bits(&production),
        model_bits(&spec),
        "model weights diverged"
    );

    let key = |model: Dgcnn, report: TrainReport| {
        Trained {
            cfg: prepared.cfg.clone(),
            key_input_names: prepared.key_input_names.clone(),
            design: prepared.design.clone(),
            max_label: ds.max_label,
            k: prepared.k,
            model,
            report,
            timings: prepared.timings,
        }
        .score(&NoProgress)
        .unwrap()
        .recover_key(prepared.cfg.th)
    };
    assert_eq!(
        key(production, production_report),
        key(spec, spec_report),
        "recovered key must not depend on the trainer loop"
    );
}

// ---------------------------------------------------------------------
// Property tests: one batched step vs one step of the per-sample spec.
// ---------------------------------------------------------------------

/// A small random labelled sample on one of three graph shapes
/// (including an isolated node), dense features.
fn random_sample(rng: &mut impl Rng) -> GraphSample {
    let adj = match rng.gen_range(0u8..3) {
        0 => muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]),
        1 => muxlink_graph::Csr::from_lists(&[vec![1, 2], vec![0], vec![0], vec![]]),
        _ => {
            muxlink_graph::Csr::from_lists(&[vec![1], vec![0, 2, 4], vec![1], vec![4], vec![1, 3]])
        }
    };
    let n = adj.node_count();
    let mut features = Matrix::zeros(n, 5);
    for i in 0..n {
        for c in 0..5 {
            features.set(i, c, rng.gen_range(-1.0..1.0));
        }
    }
    GraphSample {
        adj,
        features: features.into(),
        label: Some(rng.gen()),
    }
}

fn tiny_cfg() -> DgcnnConfig {
    DgcnnConfig {
        input_dim: 5,
        gc_channels: vec![3, 2, 1],
        conv1_channels: 2,
        conv2_channels: 2,
        conv2_kernel: 2,
        dense_dim: 4,
        dropout: 0.5,
        k: 4,
        seed: 3,
    }
}

fn grad_bits(g: &Gradients) -> Vec<u32> {
    g.tensors()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `batch_train_step` over a random minibatch (random shapes,
    /// features, labels, dropout seeds, duplicate samples allowed) is
    /// bit-identical to one step of the per-sample spec: every gradient
    /// tensor and every per-sample loss.
    #[test]
    fn batched_step_is_bitwise_identical_to_per_sample(data_seed in 0u64..1000, count in 1usize..11) {
        let mut rng = seeded_rng(data_seed);
        let samples: Vec<GraphSample> = (0..count).map(|_| random_sample(&mut rng)).collect();
        // Jobs may repeat a sample index, as shuffled epochs never do but
        // the kernel must not care.
        let jobs: Vec<(usize, u64)> = (0..count)
            .map(|_| (rng.gen_range(0..count), rng.gen()))
            .collect();
        let model = Dgcnn::new(tiny_cfg());

        let mut want_grads = model.new_gradients();
        let want_losses =
            spec_trainer::spec_step(&model, &samples[..], &jobs, &mut Vec::new(), &mut want_grads);

        let mut mb = Minibatch::new();
        let mut ws = BatchWorkspace::new();
        let mut grads = model.new_gradients();
        // Two passes through the same (dirty) buffers: reuse must not
        // change bits.
        for _ in 0..2 {
            mb.assemble(&samples[..], &jobs);
            model.batch_train_step(&mb, &mut ws, &mut grads);
            prop_assert_eq!(grad_bits(&grads), grad_bits(&want_grads));
            let got: Vec<u64> = ws.losses.iter().map(|l| l.to_bits()).collect();
            let want: Vec<u64> = want_losses.iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
