//! The `train` workload: `Trainer::fit` for one epoch with validation,
//! then `evaluate` on the test split.
//!
//! Untraced, the run repeats the fit on a fresh, identically initialised
//! model until `--seconds` have passed, and reports the median
//! throughput in train instances per CPU-second the process used in the
//! fit, over the fits the host left alone (see [`crate::cpu`]); the
//! wall-clock rate and step intervals are reported beside it. Each fit must end with bit-identical parameters.
//! Traced,
//! the run drives the same public calls as `Trainer::fit`'s inline path,
//! with the same RNG discipline, and times each call.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbssl_core::recommender::Recommendation;
use mbssl_core::{
    evaluate, BehaviorSchema, Mbmissl, PreparedBatch, SequentialRecommender, TrainConfig,
    TrainableRecommender, Trainer,
};
use mbssl_data::format::MbdsFile;
use mbssl_data::preprocess::{leave_one_out, Split, SplitConfig, TrainInstance};
use mbssl_data::sampler::{BatchIterator, EvalCandidates, NegativeSampler};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::ParamMap;
use mbssl_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use mbssl_tensor::Tensor;

use crate::sample::permutation;
use crate::stats::{median, quantile, Attribution};
use crate::{cpu, ms, Outcome};

/// Users in the generated log: twice the `scale-100k` preset, so that
/// validation and test hold about 1.5k users each and test NDCG@10 moves
/// little from seed to seed.
pub const USERS: usize = 200_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Train instances in one epoch: a seeded subset of the split's train
/// instances, so that one epoch fits the run several times over while
/// validation and test keep every eligible user.
const EPOCH_INSTANCES: usize = 4096;
/// Fits the throughput is taken from, at least (see
/// [`cpu::least_stolen`]).
const MIN_KEPT_FITS: usize = 2;
/// Instances per evaluation call.
const EVAL_BATCH: usize = 256;
/// Salts separating the test candidates' and the subset's RNGs from the
/// others.
const TEST_SALT: u64 = 0x7e57;
const SUBSET_SALT: u64 = 0x5b5e;

/// The training loop's configuration, set field by field.
pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: 128,
        lr: 1e-3,
        num_negatives: 64,
        patience: 1,
        clip_norm: 5.0,
        eval_every: 1,
        eval_negatives: 99,
        seed,
        verbose: false,
        prefetch: true,
        run_dir: None,
    }
}

struct Setup {
    split: Split,
    sampler: NegativeSampler,
    test: EvalCandidates,
    num_users: usize,
    num_items: usize,
    schema: BehaviorSchema,
}

/// Loads the fixture and prepares everything a fit needs, timing the
/// data layer's two halves.
fn setup(path: &std::path::Path, seed: u64) -> Result<(Setup, f64, f64), String> {
    let t = Instant::now();
    let file = MbdsFile::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let dataset = file.to_dataset();
    let open_ms = ms(t.elapsed());
    let t = Instant::now();
    let mut split = leave_one_out(&dataset, &SplitConfig::default());
    let mut keep: Vec<u32> = permutation(split.train.len(), seed ^ SUBSET_SALT);
    keep.truncate(EPOCH_INSTANCES);
    keep.sort_unstable();
    split.train = keep
        .iter()
        .map(|&i| split.train[i as usize].clone())
        .collect();
    let sampler = NegativeSampler::from_dataset(&dataset);
    let test = EvalCandidates::build(&split.test, &sampler, 99, seed ^ TEST_SALT);
    let split_ms = ms(t.elapsed());
    let setup = Setup {
        num_users: dataset.num_users,
        num_items: dataset.num_items,
        schema: BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior),
        split,
        sampler,
        test,
    };
    Ok((setup, open_ms, split_ms))
}

/// Forwards every trait method to the model and stamps the start of each
/// training step, so `Trainer::fit` itself reports step intervals and
/// per-step losses without any span inside the program.
struct StepClock<'a> {
    inner: &'a Mbmissl,
    steps: Mutex<Vec<(Instant, f32)>>,
}

impl SequentialRecommender for StepClock<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        self.inner.score_batch(histories, candidates)
    }
    fn score_batch_into(&self, histories: &[&Sequence], candidates: &[&[ItemId]], out: &mut [f32]) {
        self.inner.score_batch_into(histories, candidates, out)
    }
    fn prepare_inference(&self) -> Option<Box<dyn SequentialRecommender>> {
        self.inner.prepare_inference()
    }
    fn recommend_catalog(
        &self,
        history: &Sequence,
        num_items: usize,
        n: usize,
        exclude: &HashSet<ItemId>,
    ) -> Option<Vec<Recommendation>> {
        self.inner.recommend_catalog(history, num_items, n, exclude)
    }
}

impl TrainableRecommender for StepClock<'_> {
    fn params(&self) -> Vec<Tensor> {
        self.inner.params()
    }
    fn named_params(&self) -> ParamMap {
        self.inner.named_params()
    }
    fn prepare_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> PreparedBatch {
        self.inner
            .prepare_batch(instances, sampler, num_negatives, rng)
    }
    fn loss_on_prepared(
        &self,
        prepared: &PreparedBatch,
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        let started = Instant::now();
        let loss = self
            .inner
            .loss_on_prepared(prepared, sampler, num_negatives, rng);
        let value = loss.item();
        self.steps
            .lock()
            .expect("step log poisoned")
            .push((started, value));
        loss
    }
    fn loss_on_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        self.inner
            .loss_on_batch(instances, sampler, num_negatives, rng)
    }
}

fn new_model(s: &Setup) -> Mbmissl {
    Mbmissl::new(s.num_items, s.schema.clone(), crate::model_config())
}

fn params_of(model: &Mbmissl) -> Vec<Vec<f32>> {
    model.params().iter().map(|p| p.to_vec()).collect()
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One production fit: the trained model, its measured phase, step
/// intervals (ns) and step losses.
struct Fit {
    model: Mbmissl,
    window: cpu::Window,
    intervals_ns: Vec<u64>,
    losses: Vec<f32>,
}

fn production_fit(s: &Setup, seed: u64) -> Result<Fit, String> {
    let model = new_model(s);
    let clock = StepClock {
        inner: &model,
        steps: Mutex::new(Vec::new()),
    };
    let (_, window) =
        cpu::measure(|| Trainer::new(train_config(seed)).fit(&clock, &s.split, &s.sampler))?;
    let steps = clock.steps.into_inner().expect("step log poisoned");
    Ok(Fit {
        model,
        window,
        intervals_ns: steps
            .windows(2)
            .map(|w| w[1].0.duration_since(w[0].0).as_nanos() as u64)
            .collect(),
        losses: steps.iter().map(|&(_, l)| l).collect(),
    })
}

fn test_ndcg10(model: &Mbmissl, s: &Setup) -> f64 {
    evaluate(model, &s.split.test, &s.test, EVAL_BATCH)
        .aggregate()
        .ndcg10
}

fn check_losses(out: &mut Outcome, losses: &[f32]) {
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.attempted += losses.len() as u64;
    out.failed += bad;
}

pub fn run(
    path: &std::path::Path,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let (mut open_ms, mut split_ms) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let (s, open, split) = setup(path, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        open_ms.push(open);
        split_ms.push(split);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.set("data.open_ms", median(&open_ms));
    out.set("data.split_ms", median(&split_ms));
    let cfg = train_config(seed);
    let instances = s.split.train.len();
    let steps_per_epoch = instances.div_ceil(cfg.batch_size);
    if instances == 0 || s.split.test.is_empty() {
        return Err("the fixture has no train or test instances".into());
    }
    out.note(format!(
        "property train: {} users, {} items, {instances} instances, {steps_per_epoch} steps of {}, {} val / {} test users",
        s.num_users,
        s.num_items,
        cfg.batch_size,
        s.split.val.len(),
        s.split.test.len()
    ));

    let started = Instant::now();
    let first = production_fit(&s, seed)?;
    check_losses(&mut out, &first.losses);
    out.check(
        "train: one loss per step",
        first.losses.len() == steps_per_epoch,
    );
    let first_params = params_of(&first.model);
    let ndcg = test_ndcg10(&first.model, &s);
    out.check(
        "train: test NDCG@10 is finite and in [0, 1]",
        (0.0..=1.0).contains(&ndcg),
    );

    if trace {
        trace_run(&mut out, &s, seed, &first_params, ndcg);
        return Ok(out);
    }

    let deadline = Duration::from_secs(seconds);
    let mut fits = vec![(first.window, first.intervals_ns)];
    while started.elapsed() < deadline {
        let fit = production_fit(&s, seed)?;
        check_losses(&mut out, &fit.losses);
        out.check(
            "train: repeated fits end bit-identical",
            same_bits(&params_of(&fit.model), &first_params),
        );
        fits.push((fit.window, fit.intervals_ns));
    }
    let kept = cpu::least_stolen(
        fits.iter()
            .enumerate()
            .map(|(i, (w, _))| (w.steal_pct, i))
            .collect(),
        MIN_KEPT_FITS,
    );
    for (i, (w, _)) in fits.iter().enumerate() {
        out.note(format!(
            "property train fit {i}: {:.2} s wall, {:.2} s process CPU, host steal {:.1}%, {:.1} instances per CPU-second, {:.1} per wall second{}",
            w.wall_s,
            w.cpu_s,
            w.steal_pct,
            instances as f64 / w.cpu_s,
            instances as f64 / w.wall_s,
            if kept.contains(&i) { "" } else { " (dropped: host steal)" }
        ));
    }
    let rates: Vec<f64> = kept
        .iter()
        .map(|&i| instances as f64 / fits[i].0.cpu_s)
        .collect();
    let mut intervals: Vec<u64> = kept
        .iter()
        .flat_map(|&i| fits[i].1.iter().copied())
        .collect();
    intervals.sort_unstable();
    out.note(format!(
        "property train: step interval p50 {:.0} us, p90 {:.0} us of {} in the kept fits",
        quantile(&intervals, 0.50) as f64 / 1e3,
        quantile(&intervals, 0.90) as f64 / 1e3,
        intervals.len()
    ));
    out.set("throughput_per_cpu_s", median(&rates));
    out.set("quality_at10", ndcg);
    Ok(out)
}

/// The traced run: `Trainer::fit`'s inline path driven call by call on
/// two fresh models at once, one step of each in turn, swapping which
/// goes first. Only one is timed call by call, so comparing their wall
/// times gives the tracing overhead with the host's drift cancelled.
fn trace_run(out: &mut Outcome, s: &Setup, seed: u64, production: &[Vec<f32>], ndcg: f64) {
    let cfg = TrainConfig {
        prefetch: false,
        ..train_config(seed)
    };
    let (plain_model, traced_model) = (new_model(s), new_model(s));
    mbssl_tensor::alloc::reset_stats();
    let mut plain = InlineFit::start(&plain_model, s, &cfg, false);
    let mut traced = InlineFit::start(&traced_model, s, &cfg, true);
    let steps = s.split.train.len().div_ceil(cfg.batch_size);
    let (jobs0, inline0, _) = mbssl_tensor::pool::stats();
    for step in 0..steps {
        if step % 2 == 0 {
            plain.step();
            traced.step();
        } else {
            traced.step();
            plain.step();
        }
    }
    let (jobs1, inline1, _) = mbssl_tensor::pool::stats();
    plain.finish();
    traced.finish();
    let alloc = mbssl_tensor::alloc::stats();

    for fit in [&plain, &traced] {
        check_losses(out, &fit.losses);
        out.check(
            "train: the inline loop ends bit-identical to Trainer::fit",
            same_bits(&params_of(fit.model), production),
        );
    }
    let t = Instant::now();
    let traced_ndcg = test_ndcg10(&traced_model, s);
    let test_eval_ms = ms(t.elapsed());
    out.check(
        "train: the traced loop reaches the same test NDCG@10",
        traced_ndcg.to_bits() == ndcg.to_bits(),
    );

    let attr = traced.attr;
    let per_step = |name| attr.part_ns(name) as f64 / steps as f64 / 1e3;
    out.set("data.prepare_batch_us", per_step("data.prepare_batch"));
    out.set("model.forward_us", per_step("model.forward"));
    out.set("tensor.backward_us", per_step("tensor.backward"));
    out.set("tensor.optim_us", per_step("tensor.optim"));
    out.set("tensor.alloc_hit_pct", alloc.hit_rate_pct());
    let jobs = (jobs1 - jobs0) + (inline1 - inline0);
    out.set(
        "tensor.pool_jobs_per_step",
        jobs as f64 / (2 * steps) as f64,
    );
    out.set(
        "recommender.evaluate_ms",
        attr.part_ns("recommender.evaluate") as f64 / 1e6 + test_eval_ms,
    );
    out.set("trace.unattributed_pct", attr.unattributed_pct());
    out.set(
        "trace.overhead_pct",
        crate::stats::overhead_pct(attr.wall_ns, plain.attr.wall_ns),
    );
    out.attribution = Some(attr);
}

/// `Trainer::fit`'s inline path for one epoch, one public call at a time:
/// the data RNG shuffles and samples, each batch seeds its own graph RNG,
/// each step is zero_grad, loss, backward, clip and Adam, and validation
/// follows. `attr.wall_ns` sums the time of every phase; when `timed`,
/// `attr.parts` splits it by layer call.
struct InlineFit<'a> {
    model: &'a Mbmissl,
    s: &'a Setup,
    cfg: &'a TrainConfig,
    timed: bool,
    params: Vec<Tensor>,
    opt: Adam,
    val: EvalCandidates,
    data_rng: StdRng,
    batches: BatchIterator<'a>,
    num_negatives: usize,
    losses: Vec<f32>,
    attr: Attribution,
}

impl<'a> InlineFit<'a> {
    fn start(model: &'a Mbmissl, s: &'a Setup, cfg: &'a TrainConfig, timed: bool) -> InlineFit<'a> {
        let phase = Instant::now();
        let mut attr = Attribution::default();
        let lap = |attr: &mut Attribution, layer, t: Instant| {
            if timed {
                attr.add(layer, t.elapsed().as_nanos() as u64);
            }
        };
        let t = Instant::now();
        let params = model.params();
        let opt = Adam::new(params.clone(), cfg.lr);
        lap(&mut attr, "tensor.optim", t);
        let t = Instant::now();
        let val = EvalCandidates::build(
            &s.split.val,
            &s.sampler,
            cfg.eval_negatives,
            cfg.seed ^ 0x5eed,
        );
        lap(&mut attr, "data.eval_candidates", t);
        let mut data_rng = StdRng::seed_from_u64(cfg.seed);
        let t = Instant::now();
        let batches = BatchIterator::new(&s.split.train, cfg.batch_size, &mut data_rng);
        lap(&mut attr, "data.prepare_batch", t);
        attr.wall_ns += phase.elapsed().as_nanos() as u64;
        InlineFit {
            model,
            s,
            cfg,
            timed,
            params,
            opt,
            val,
            data_rng,
            batches,
            num_negatives: cfg
                .num_negatives
                .min(s.sampler.num_items().saturating_sub(2)),
            losses: Vec::new(),
            attr,
        }
    }

    /// Starts a lap when timed; an untimed fit reads no clock inside.
    fn lap_start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn lap(&mut self, layer: &'static str, t: Option<Instant>) {
        if let Some(t) = t {
            self.attr.add(layer, t.elapsed().as_nanos() as u64);
        }
    }

    fn step(&mut self) {
        let (s, n) = (self.s, self.num_negatives);
        let phase = Instant::now();
        let t = self.lap_start();
        let chunk = self
            .batches
            .next_chunk()
            .expect("one chunk per step of the epoch");
        let prepared = self
            .model
            .prepare_batch(&chunk, &s.sampler, n, &mut self.data_rng);
        let mut graph_rng = StdRng::seed_from_u64(self.data_rng.gen());
        self.lap("data.prepare_batch", t);
        let t = self.lap_start();
        self.opt.zero_grad();
        self.lap("tensor.optim", t);
        let t = self.lap_start();
        let loss = self
            .model
            .loss_on_prepared(&prepared, &s.sampler, n, &mut graph_rng);
        self.losses.push(loss.item());
        self.lap("model.forward", t);
        let t = self.lap_start();
        loss.backward();
        self.lap("tensor.backward", t);
        let t = self.lap_start();
        clip_grad_norm(&self.params, self.cfg.clip_norm);
        self.opt.step();
        self.lap("tensor.optim", t);
        self.attr.wall_ns += phase.elapsed().as_nanos() as u64;
    }

    fn finish(&mut self) {
        let phase = Instant::now();
        let t = self.lap_start();
        evaluate(
            self.model,
            &self.s.split.val,
            &self.val,
            self.cfg.batch_size,
        );
        self.lap("recommender.evaluate", t);
        self.attr.wall_ns += phase.elapsed().as_nanos() as u64;
    }
}
