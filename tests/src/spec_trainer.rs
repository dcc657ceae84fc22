//! Executable specification of the DGCNN trainer.
//!
//! `muxlink_gnn::train` runs every minibatch as one block-diagonal
//! batched step. This module is the per-sample loop that step is pinned
//! to, bit for bit: each sample's forward/backward runs on the ambient
//! rayon pool (size it with `rayon::ThreadPool::install`) through one
//! reused [`Workspace`] per worker and writes its gradients into its own
//! slot; the slots are then folded **in sample order** (the first
//! copied, the rest merged). Dropout seeds are pre-drawn sequentially
//! from the training RNG before the parallel region, so the result is
//! the same for any thread count. Keeping one slot per sample — rather
//! than merging inside the workers — is what fixes the reduction order.
//!
//! The spec uses only the model's public API (`forward_into`,
//! `backward_into`, `Gradients::copy_from`/`merge`, `adam_step`,
//! `snapshot`/`restore`) and the production `evaluate`.

use muxlink_gnn::matrix::seeded_rng;
use muxlink_gnn::{
    evaluate, Dgcnn, EpochStats, Gradients, Matrix, SampleStore, SampleView, TrainConfig,
    TrainReport, Workspace,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

/// A store that serves another store's samples but hides its cached
/// layer-0 plans, so the batched trainer takes its histogram-rebuild
/// branch — the branch every plan-less store (owned samples) runs.
pub struct WithoutPlans<'a, S: ?Sized>(pub &'a S);

impl<S: SampleStore + ?Sized> SampleStore for WithoutPlans<'_, S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn view(&self, i: usize) -> SampleView<'_> {
        self.0.view(i)
    }
}

/// One minibatch of the per-sample loop: the `(sample index, dropout
/// seed)` jobs run forward/backward in parallel against frozen weights,
/// each into its own slot of `slots` (grown as needed, reused across
/// calls); the slots are folded into `acc` in job order. Returns the
/// per-sample losses in job order.
///
/// # Panics
///
/// Panics when `jobs` is empty or names an unlabelled sample.
pub fn spec_step<S: SampleStore + ?Sized>(
    model: &Dgcnn,
    store: &S,
    jobs: &[(usize, u64)],
    slots: &mut Vec<Gradients>,
    acc: &mut Gradients,
) -> Vec<f64> {
    assert!(!jobs.is_empty(), "empty minibatch");
    if slots.len() < jobs.len() {
        slots.resize_with(jobs.len(), || model.new_gradients());
    }
    let losses: Vec<f64> = slots[..jobs.len()]
        .par_iter_mut()
        .zip(jobs.par_iter())
        .map_init(Workspace::new, |ws, (grads, &(i, dropout_seed))| {
            let s = store.view(i);
            let label = s.label.expect("jobs name labelled samples");
            let mut dropout_rng = seeded_rng(dropout_seed);
            model.forward_into(s, Some(&mut dropout_rng), ws);
            model.backward_into(s, label, ws, grads);
            f64::from(ws.cache.loss(label))
        })
        .collect();
    acc.copy_from(&slots[0]);
    for g in &slots[1..jobs.len()] {
        acc.merge(g);
    }
    losses
}

/// Trains `model` in place with the per-sample loop and restores the
/// epoch with the best validation accuracy (ties broken by lower
/// validation loss) — the same recipe, RNG stream and reductions as
/// `muxlink_gnn::train`.
///
/// # Panics
///
/// Panics when `train` is empty or `batch_size` is zero.
pub fn train<S: SampleStore + ?Sized, V: SampleStore + ?Sized>(
    model: &mut Dgcnn,
    train: &S,
    val: &V,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!train.is_empty(), "training set must not be empty");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let mut rng = seeded_rng(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f64, f64, Vec<Matrix>)> = None;
    let mut step = 0usize;
    let mut slots = Vec::new();
    let mut acc = model.new_gradients();

    for epoch in 1..=cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let jobs: Vec<(usize, u64)> = batch
                .iter()
                .filter(|&&i| train.view(i).label.is_some())
                .map(|&i| (i, rng.gen::<u64>()))
                .collect();
            if jobs.is_empty() {
                continue;
            }
            for loss in spec_step(model, train, &jobs, &mut slots, &mut acc) {
                epoch_loss += loss;
            }
            step += 1;
            model.adam_step(&acc, &cfg.adam, step, 1.0 / jobs.len() as f32);
            seen += jobs.len();
        }
        let train_loss = if seen == 0 {
            f64::NAN
        } else {
            epoch_loss / seen as f64
        };
        let (val_loss, val_accuracy) = evaluate(model, val);
        history.push(EpochStats {
            epoch,
            train_loss,
            val_loss,
            val_accuracy,
        });
        if !val_accuracy.is_nan() {
            let better = match &best {
                None => true,
                Some((_, acc, loss, _)) => {
                    val_accuracy > *acc || (val_accuracy == *acc && val_loss < *loss)
                }
            };
            if better {
                best = Some((epoch, val_accuracy, val_loss, model.snapshot()));
            }
        }
    }

    match best {
        Some((best_epoch, best_val_accuracy, _, snapshot)) => {
            model.restore(&snapshot);
            TrainReport {
                history,
                best_epoch,
                best_val_accuracy,
            }
        }
        None => TrainReport {
            history,
            best_epoch: 0,
            best_val_accuracy: f64::NAN,
        },
    }
}
