//! The shared training loop: Adam + gradient clipping + early stopping on
//! validation NDCG@10, with best-checkpoint restore and a double-buffered
//! batch prefetch pipeline (see DESIGN.md "Threading model").

use std::sync::mpsc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use mbssl_data::preprocess::{Split, TrainInstance};
use mbssl_data::sampler::{
    BatchIterator, EvalCandidates, NegativeSampler, NegativeStrategy, PreparedBatch,
};
use mbssl_telemetry as telemetry;
use mbssl_tensor::nn::ParamMap;
use mbssl_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use mbssl_tensor::Tensor;

use crate::config::TrainConfig;
use crate::ledger::{resolve_run_dir, EpochRecord, RunLedger, RunManifest};
use crate::recommender::{evaluate, SequentialRecommender};

/// A model the [`Trainer`] can fit. Each training step is split in two:
/// [`prepare_batch`](TrainableRecommender::prepare_batch) is the data half
/// (truncation, negative sampling, encoding) which the trainer may run on a
/// prefetch thread, and [`loss_on_prepared`](TrainableRecommender::loss_on_prepared)
/// is the graph half that builds the differentiable loss.
pub trait TrainableRecommender: SequentialRecommender {
    /// All trainable parameter handles, in [`named_params`] order.
    ///
    /// [`named_params`]: TrainableRecommender::named_params
    fn params(&self) -> Vec<Tensor> {
        self.named_params().tensors()
    }

    /// Parameters with stable names (checkpointing).
    fn named_params(&self) -> ParamMap;

    /// Data half of a training step: history truncation, negative sampling,
    /// and batch encoding. Must not touch parameters — the trainer runs it
    /// on a producer thread while the previous step's forward/backward is
    /// still in flight.
    fn prepare_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> PreparedBatch {
        PreparedBatch::build(
            instances,
            sampler,
            num_negatives,
            NegativeStrategy::Uniform,
            None,
            rng,
        )
    }

    /// Graph half of a training step: the differentiable loss from an
    /// already-prepared batch. `rng` drives graph-time stochasticity only
    /// (dropout, augmented views); `sampler`/`num_negatives` are available
    /// for models with auxiliary in-loss objectives.
    fn loss_on_prepared(
        &self,
        prepared: &PreparedBatch,
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor;

    /// Prepares and computes in one call on a single RNG stream — the
    /// non-pipelined path used by unit tests and ad-hoc callers.
    fn loss_on_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        let prepared = self.prepare_batch(instances, sampler, num_negatives, rng);
        self.loss_on_prepared(&prepared, sampler, num_negatives, rng)
    }
}

/// Per-epoch training statistics.
#[derive(Clone, Debug, Serialize)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Validation NDCG@10, when evaluated this epoch.
    pub val_ndcg10: Option<f64>,
    /// Validation HR@10, when evaluated this epoch.
    pub val_hr10: Option<f64>,
    /// Validation NDCG@5, when evaluated this epoch.
    pub val_ndcg5: Option<f64>,
    /// Validation HR@5, when evaluated this epoch.
    pub val_hr5: Option<f64>,
    /// Training throughput: instances consumed / training-phase seconds
    /// (excludes validation evaluation time).
    pub items_per_sec: f64,
    /// Wall-clock seconds for the epoch (training + evaluation).
    pub seconds: f64,
}

/// Result of a training run.
#[derive(Clone, Debug, Serialize)]
pub struct TrainReport {
    /// Model description string.
    pub model: String,
    /// Epochs actually executed (early stopping may cut this short).
    pub epochs_run: usize,
    /// Epoch index of the best validation NDCG@10.
    pub best_epoch: usize,
    /// Best validation NDCG@10 reached.
    pub best_val_ndcg10: f64,
    /// Per-epoch loss/metric/timing records.
    pub history: Vec<EpochStats>,
    /// Wall-clock seconds for the whole run.
    pub total_seconds: f64,
    /// Trainable parameter count.
    pub num_params: usize,
}

/// Training-loop driver.
pub struct Trainer {
    /// Loop options (epochs, patience, seed, verbosity, …).
    pub config: TrainConfig,
}

impl Trainer {
    /// A trainer driving the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Fits `model` on `split.train`, early-stopping on `split.val`
    /// NDCG@10 and restoring the best parameters before returning.
    ///
    /// With `config.prefetch` (the default) a producer thread shuffles,
    /// samples negatives, and encodes the next batch while the current
    /// step's forward/backward runs. Both paths draw the data RNG stream
    /// and per-batch graph RNG seeds identically, so training results are
    /// bit-for-bit the same with prefetching on or off.
    pub fn fit<M: TrainableRecommender + ?Sized>(
        &self,
        model: &M,
        split: &Split,
        sampler: &NegativeSampler,
    ) -> TrainReport {
        let cfg = &self.config;
        assert!(cfg.batch_size > 0, "batch_size must be positive");
        // Clamp training negatives to the catalog so tiny test datasets
        // keep well-formed sampled-softmax candidate sets.
        let num_negatives = cfg.num_negatives.min(sampler.num_items().saturating_sub(2));

        if cfg.prefetch && !split.train.is_empty() {
            // Double-buffered pipeline: channel depth 1 means the producer
            // works on batch t+1 while the consumer trains on batch t.
            std::thread::scope(|scope| {
                let (tx, rx) = mpsc::sync_channel::<(PreparedBatch, StdRng)>(1);
                let (seed, batch_size) = (cfg.seed, cfg.batch_size);
                scope.spawn(move || {
                    let mut data_rng = StdRng::seed_from_u64(seed);
                    loop {
                        let mut iter = BatchIterator::new(&split.train, batch_size, &mut data_rng);
                        while let Some(chunk) = iter.next_chunk() {
                            let prepared =
                                model.prepare_batch(&chunk, sampler, num_negatives, &mut data_rng);
                            let graph_rng = StdRng::seed_from_u64(data_rng.gen());
                            if tx.send((prepared, graph_rng)).is_err() {
                                return; // trainer finished or stopped early
                            }
                        }
                    }
                });
                // `rx` drops when this closure returns, unblocking the
                // producer's pending send before the scope joins it.
                self.fit_loop(model, split, sampler, num_negatives, &mut || rx.recv().ok())
            })
        } else {
            // Inline path: same RNG discipline, no producer thread.
            let mut data_rng = StdRng::seed_from_u64(cfg.seed);
            let mut iter: Option<BatchIterator> = None;
            let (train, batch_size) = (&split.train, cfg.batch_size);
            self.fit_loop(model, split, sampler, num_negatives, &mut || {
                if train.is_empty() {
                    return None;
                }
                loop {
                    if let Some(it) = iter.as_mut() {
                        if let Some(chunk) = it.next_chunk() {
                            let prepared =
                                model.prepare_batch(&chunk, sampler, num_negatives, &mut data_rng);
                            let graph_rng = StdRng::seed_from_u64(data_rng.gen());
                            return Some((prepared, graph_rng));
                        }
                        iter = None; // epoch exhausted; reshuffle below
                    } else {
                        iter = Some(BatchIterator::new(train, batch_size, &mut data_rng));
                    }
                }
            })
        }
    }

    /// The epoch loop proper, fed by `next_batch` (prefetched or inline).
    fn fit_loop<M: TrainableRecommender + ?Sized>(
        &self,
        model: &M,
        split: &Split,
        sampler: &NegativeSampler,
        num_negatives: usize,
        next_batch: &mut dyn FnMut() -> Option<(PreparedBatch, StdRng)>,
    ) -> TrainReport {
        let cfg = &self.config;
        let params = model.params();
        let num_params: usize = params.iter().map(|p| p.numel()).sum();
        let mut opt = Adam::new(params.clone(), cfg.lr);

        let val_candidates = if split.val.is_empty() {
            None
        } else {
            Some(EvalCandidates::build(
                &split.val,
                sampler,
                cfg.eval_negatives,
                cfg.seed ^ 0x5eed,
            ))
        };

        // Run ledger (MBSSL_RUN_DIR / config.run_dir): best-effort — an IO
        // failure warns and disables it, never aborts training. Writes
        // happen strictly after the epoch's compute and touch no RNG, so
        // training is bit-for-bit identical with the ledger on or off.
        let mut ledger = resolve_run_dir(cfg).and_then(|dir| {
            let manifest = RunManifest::capture(
                &model.name(),
                num_params,
                split.train.len(),
                split.val.len(),
                cfg,
            );
            match RunLedger::create(&dir, &manifest) {
                Ok(l) => Some(l),
                Err(e) => {
                    eprintln!(
                        "mbssl: run ledger disabled: cannot create {}: {e}",
                        dir.display()
                    );
                    None
                }
            }
        });

        let batches_per_epoch = split.train.len().div_ceil(cfg.batch_size);
        let start = Instant::now();
        let mut history = Vec::new();
        let mut best_ndcg = f64::NEG_INFINITY;
        let mut best_epoch = 0usize;
        // Preallocated checkpoint buffers, reused on every improvement.
        let mut best_snapshot: Vec<Vec<f32>> =
            params.iter().map(|p| vec![0.0f32; p.numel()]).collect();
        let mut have_snapshot = false;
        let mut epochs_without_improvement = 0usize;
        let mut epochs_run = 0usize;

        for epoch in 0..cfg.epochs {
            let _epoch_sp = telemetry::span("trainer.epoch");
            let epoch_start = Instant::now();
            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            let mut instances = 0usize;
            for _ in 0..batches_per_epoch {
                // How long the consumer stalls waiting on the producer: the
                // pipeline's headroom (≈0 when prefetch keeps up).
                let fetched = {
                    let _wait_sp = telemetry::span("trainer.prefetch_wait");
                    next_batch()
                };
                let Some((prepared, mut graph_rng)) = fetched else {
                    break;
                };
                instances += prepared.batch.size;
                let _step_sp = telemetry::span("trainer.train_step");
                opt.zero_grad();
                let loss =
                    model.loss_on_prepared(&prepared, sampler, num_negatives, &mut graph_rng);
                loss_sum += loss.item();
                batches += 1;
                loss.backward();
                clip_grad_norm(&params, cfg.clip_norm);
                opt.step();
            }
            let train_loss = if batches > 0 { loss_sum / batches as f32 } else { 0.0 };
            let train_seconds = epoch_start.elapsed().as_secs_f64();
            epochs_run = epoch + 1;

            let val_metrics = if let Some(cands) = &val_candidates {
                if (epoch + 1) % cfg.eval_every == 0 {
                    Some(evaluate(model, &split.val, cands, cfg.batch_size).aggregate())
                } else {
                    None
                }
            } else {
                None
            };
            let val_ndcg10 = val_metrics.as_ref().map(|m| m.ndcg10);
            let val_hr10 = val_metrics.as_ref().map(|m| m.hr10);

            let stats = EpochStats {
                epoch,
                train_loss,
                val_ndcg10,
                val_hr10,
                val_ndcg5: val_metrics.as_ref().map(|m| m.ndcg5),
                val_hr5: val_metrics.as_ref().map(|m| m.hr5),
                items_per_sec: if train_seconds > 0.0 {
                    instances as f64 / train_seconds
                } else {
                    0.0
                },
                seconds: epoch_start.elapsed().as_secs_f64(),
            };
            if let Some(l) = ledger.as_mut() {
                let alloc = mbssl_tensor::alloc::stats();
                let (pool_jobs, _pool_inline, pool_chunks) = mbssl_tensor::pool::stats();
                let record = EpochRecord {
                    epoch: stats.epoch,
                    train_loss: stats.train_loss as f64,
                    val_hr5: stats.val_hr5,
                    val_hr10: stats.val_hr10,
                    val_ndcg5: stats.val_ndcg5,
                    val_ndcg10: stats.val_ndcg10,
                    items_per_sec: stats.items_per_sec,
                    seconds: stats.seconds,
                    alloc_hit_rate_pct: alloc.hit_rate_pct(),
                    pool_jobs,
                    pool_chunks,
                };
                if let Err(e) = l.append_epoch(&record) {
                    eprintln!("mbssl: run ledger disabled: {e}");
                    ledger = None;
                }
            }
            history.push(stats);
            if cfg.verbose {
                // Progress lines go through telemetry so they reach stderr
                // (as before) AND the JSONL trace when one is active.
                let line = match val_ndcg10 {
                    Some(n) => format!(
                        "[{}] epoch {epoch}: loss {train_loss:.4}, val NDCG@10 {n:.4}",
                        model.name()
                    ),
                    None => format!("[{}] epoch {epoch}: loss {train_loss:.4}", model.name()),
                };
                telemetry::progress(&line);
            }

            if let Some(ndcg) = val_ndcg10 {
                if ndcg > best_ndcg {
                    best_ndcg = ndcg;
                    best_epoch = epoch;
                    let mut ckpt_sp = telemetry::span("trainer.checkpoint");
                    ckpt_sp.add_bytes(4 * num_params as u64);
                    for (dst, p) in best_snapshot.iter_mut().zip(params.iter()) {
                        dst.copy_from_slice(&p.data());
                    }
                    drop(ckpt_sp);
                    have_snapshot = true;
                    epochs_without_improvement = 0;
                } else {
                    epochs_without_improvement += 1;
                    if epochs_without_improvement >= cfg.patience {
                        break;
                    }
                }
            }
        }

        // Restore the best validation checkpoint.
        if have_snapshot {
            let _ckpt_sp = telemetry::span("trainer.checkpoint");
            for (p, values) in params.iter().zip(best_snapshot.iter()) {
                p.data_mut().copy_from_slice(values);
            }
        }

        TrainReport {
            model: model.name(),
            epochs_run,
            best_epoch,
            best_val_ndcg10: if best_ndcg.is_finite() { best_ndcg } else { 0.0 },
            history,
            total_seconds: start.elapsed().as_secs_f64(),
            num_params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::sampler::Batch;
    use mbssl_data::{ItemId, Sequence};
    use mbssl_tensor::nn::Module;
    use mbssl_tensor::{no_grad, Tensor};

    /// Minimal trainable model: a bag-of-items matrix factorization that
    /// scores candidates by dot(mean item embedding of history, candidate
    /// embedding). Exists purely to exercise the Trainer mechanics.
    struct TinyMf {
        emb: mbssl_tensor::nn::Embedding,
        dim: usize,
    }

    impl TinyMf {
        fn new(num_items: usize, dim: usize) -> Self {
            let mut rng = StdRng::seed_from_u64(1);
            TinyMf {
                emb: mbssl_tensor::nn::Embedding::new(num_items + 1, dim, &mut rng),
                dim,
            }
        }

        fn user_vec(&self, histories: &[&Sequence]) -> Tensor {
            let batch = Batch::encode_histories(histories);
            let (b, l) = (batch.size, batch.max_len);
            let e = self.emb.forward_seq(&batch.items, b, l); // [B, L, D]
            let valid = Tensor::from_vec(batch.valid.clone(), [b, l, 1]);
            let summed = e.mul(&valid).sum_axis(1, false); // [B, D]
            let counts = Tensor::from_vec(
                (0..b)
                    .map(|bi| {
                        batch.valid[bi * l..(bi + 1) * l].iter().sum::<f32>().max(1.0)
                    })
                    .collect(),
                [b, 1],
            );
            summed.div(&counts)
        }
    }

    impl SequentialRecommender for TinyMf {
        fn name(&self) -> String {
            "tiny-mf".into()
        }
        fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            no_grad(|| {
                let u = self.user_vec(histories); // [B, D]
                let c = candidates[0].len();
                let flat: Vec<usize> = candidates
                    .iter()
                    .flat_map(|l| l.iter().map(|&i| i as usize))
                    .collect();
                let ce = self
                    .emb
                    .forward(&flat)
                    .reshape([histories.len(), c, self.dim]);
                let scores = ce.bmm(&u.unsqueeze(2)).reshape([histories.len(), c]);
                let data = scores.to_vec();
                (0..histories.len())
                    .map(|b| data[b * c..(b + 1) * c].to_vec())
                    .collect()
            })
        }
    }

    impl TrainableRecommender for TinyMf {
        fn named_params(&self) -> ParamMap {
            self.emb.param_map("mf")
        }
        fn loss_on_prepared(
            &self,
            prepared: &PreparedBatch,
            _sampler: &NegativeSampler,
            _num_negatives: usize,
            _rng: &mut StdRng,
        ) -> Tensor {
            let batch = &prepared.batch;
            let histories: Vec<&Sequence> = prepared.histories();
            let u = self.user_vec(&histories);
            let c = 1 + batch.num_negatives;
            let mut ids = Vec::with_capacity(batch.size * c);
            for bi in 0..batch.size {
                ids.push(batch.targets[bi]);
                ids.extend_from_slice(
                    &batch.negatives[bi * batch.num_negatives..(bi + 1) * batch.num_negatives],
                );
            }
            let ce = self.emb.forward(&ids).reshape([batch.size, c, self.dim]);
            let logits = ce.bmm(&u.unsqueeze(2)).reshape([batch.size, c]);
            logits.cross_entropy_logits(&vec![0usize; batch.size])
        }
    }

    #[test]
    fn trainer_improves_validation_metric() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::taobao_like(51).scaled(0.08).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = TinyMf::new(g.dataset.num_items, 16);

        // Pre-training validation score.
        let cands = EvalCandidates::build(&split.val, &sampler, 99, 123);
        let before = evaluate(&model, &split.val, &cands, 128).aggregate().ndcg10;

        let trainer = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 128,
            lr: 0.05,
            num_negatives: 32,
            patience: 5,
            verbose: false,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&model, &split, &sampler);
        let after = evaluate(&model, &split.val, &cands, 128).aggregate().ndcg10;

        assert!(report.epochs_run >= 1);
        assert!(
            after > before + 0.05,
            "training did not improve NDCG: {before:.4} -> {after:.4}"
        );
        assert!(report.best_val_ndcg10 > 0.0);
        assert_eq!(report.history.len(), report.epochs_run);
        assert!(report.num_params > 0);
    }

    #[test]
    fn early_stopping_respects_patience() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::yelp_like(52).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = TinyMf::new(g.dataset.num_items, 8);
        // Zero LR: no improvement possible after epoch 0 → stop at patience.
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            lr: 0.0,
            patience: 2,
            batch_size: 256,
            num_negatives: 8,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&model, &split, &sampler);
        assert!(
            report.epochs_run <= 4,
            "should stop early, ran {}",
            report.epochs_run
        );
    }

    #[test]
    fn prefetch_matches_inline_training_bitwise() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        // Two identical models: one trained with the producer thread, one
        // inline. Per-batch RNG derivation makes the runs bit-identical.
        let g = SyntheticConfig::taobao_like(53).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let m1 = TinyMf::new(g.dataset.num_items, 8);
        let m2 = TinyMf::new(g.dataset.num_items, 8);
        let base = TrainConfig {
            epochs: 3,
            batch_size: 64,
            lr: 0.05,
            num_negatives: 8,
            ..TrainConfig::default()
        };
        let r1 = Trainer::new(TrainConfig { prefetch: true, ..base.clone() }).fit(&m1, &split, &sampler);
        let r2 = Trainer::new(TrainConfig { prefetch: false, ..base }).fit(&m2, &split, &sampler);

        let losses1: Vec<f32> = r1.history.iter().map(|e| e.train_loss).collect();
        let losses2: Vec<f32> = r2.history.iter().map(|e| e.train_loss).collect();
        assert_eq!(losses1, losses2, "train-loss history diverged");
        assert_eq!(r1.best_val_ndcg10, r2.best_val_ndcg10);
        for (a, b) in m1.params().iter().zip(m2.params().iter()) {
            assert_eq!(a.to_vec(), b.to_vec(), "final parameters diverged");
        }
    }
}
