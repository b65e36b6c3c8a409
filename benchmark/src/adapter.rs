//! Every call into the repository under measurement is in this file, on
//! the narrowest stable surface: the `Trainer` and `Server` builders for
//! the untraced reps, and — for the traced replicas, which re-implement
//! one rep from public calls so the harness can time each layer —
//! `BatchStream`, `forward`/`backward_with`, `copy_grads_into`,
//! `reduce_bucket_codec`, `set_grads`, `Optimizer::step`, `save_with`,
//! `open_loop`, `run_queue`, `serialize::load` and `predict`.
//!
//! The replicas mirror private details of `distrib::trainer::train_rank`
//! and `msa_serve::Server::run` (shuffle-seed mixing, endpoint seed
//! folding, batch pricing). They are checked, not trusted: a replica
//! that does not reproduce the library run bit for bit (training) or
//! count for count (serving) fails the traced run. When a refactor moves
//! one of these signatures, this is the one file to re-point.

use crate::spec;
use crate::trace::{self, Span, Tracer};
use data::bigearth::{self, BigEarthConfig};
use data::icu::{self, IcuConfig, ImputationTask};
use data::stream::{BatchStream, SlabPool};
use data::Dataset;
use distrib::trainer::effective_lr;
use distrib::{
    CheckpointPolicy, ExchangeDispatch, FusionBuffer, FusionConfig, StepCost, TopKCompressor,
    TrainConfig, TrainReport, Trainer, TrainerProgress,
};
use msa_core::module::ModuleKind;
use msa_core::system::presets;
use msa_core::{MsaSystem, SimTime};
use msa_net::{CommOptions, Communicator, GradCodec, PointToPoint, ThreadComm};
use msa_obs::{key, simtime_to_ps, MetricsRegistry, Recorder};
use msa_sched::AdmissionPolicy;
use msa_serve::{
    open_loop, run_queue, BatchPolicy, ModelSpec, OfferedLoad, ServeConfig, ServeReport, Server,
};
use nn::layer::Flatten;
use nn::{
    models, serialize, u64_to_words, Adam, Dense, Layer, Loss, MaskedMae, Optimizer, Relu,
    Sequential, SoftmaxCrossEntropy,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tensor::{Rng, Tensor};

/// Pins the worker pool before first use; returns the width in effect.
pub fn init_pool(threads: usize) -> usize {
    rayon::init_with_threads(threads);
    rayon::current_num_threads()
}

/// What one untraced rep produced.
#[derive(Debug, Clone)]
pub struct RepOut {
    /// Host seconds inside the library call (`Trainer::run`, the ICU
    /// loop, `Server::run`); building its arguments is not timed.
    pub secs: f64,
    /// Samples, sequences or executed requests the call processed.
    pub items: u64,
    /// Digest of everything that must repeat bit for bit across reps.
    pub hash: u64,
    /// First- and last-epoch mean loss (NaN for serving).
    pub first_loss: f64,
    pub final_loss: f64,
    /// Operations the rep attempted and failed: one training run each,
    /// or the requests offered and not completed for serving.
    pub attempted: u64,
    pub failed: u64,
    /// Worst endpoint's modeled p99 (NaN for training).
    pub modeled_p99_ms: f64,
    /// The rep's own output checks held.
    pub ok: bool,
}

impl RepOut {
    /// A training rep: one attempted operation, failed unless every
    /// loss is finite and the workload's `learned` criterion held.
    fn trained(secs: f64, items: u64, params: &[f32], losses: &[f32], learned: bool) -> RepOut {
        let ok = learned && losses.iter().all(|l| l.is_finite());
        RepOut {
            secs,
            items,
            hash: output_digest(params, losses),
            first_loss: f64::from(losses[0]),
            final_loss: f64::from(losses[losses.len() - 1]),
            attempted: 1,
            failed: u64::from(!ok),
            modeled_p99_ms: f64::NAN,
            ok,
        }
    }
}

/// Per-layer values and raw spans of one traced rep.
#[derive(Debug)]
pub struct Traced {
    /// Spans per lane; lane 0 is rank 0 (training) or the serving thread.
    pub lanes: Vec<Vec<Span>>,
    /// Per-layer metrics this workload fills; absent ones report 0.
    pub values: BTreeMap<String, f64>,
    /// The replica reproduced the library run exactly.
    pub identical: bool,
    pub traced_secs: f64,
    pub untraced_secs: f64,
}

/// A prepared workload: inputs generated, nothing run yet.
pub enum Workload {
    Train(Box<TrainWl>),
    Icu(Box<IcuWl>),
    Serve(Box<ServeWl>),
}

impl Workload {
    /// Generates the inputs of `name` from `seed`. `smoke` shrinks the
    /// input sizes, not the code paths.
    pub fn prepare(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        Some(match name {
            "bigearth_resnet_p1" => Workload::Train(Box::new(TrainWl::bigearth(seed, smoke))),
            "widemlp_dense_p2" => {
                Workload::Train(Box::new(TrainWl::widemlp(seed, smoke, GradCodec::Dense32)))
            }
            "widemlp_topk_p2" => Workload::Train(Box::new(TrainWl::widemlp(
                seed,
                smoke,
                GradCodec::SparseTopK { ratio: 0.01 },
            ))),
            "icu_gru_p1" => Workload::Icu(Box::new(IcuWl::new(seed, smoke))),
            "serve_mixed" => Workload::Serve(Box::new(ServeWl::new(seed, smoke))),
            _ => return None,
        })
    }

    /// One untraced rep through the library's own entry point.
    pub fn rep(&self) -> RepOut {
        match self {
            Workload::Train(w) => w.rep(),
            Workload::Icu(w) => w.rep(),
            Workload::Serve(w) => w.rep(),
        }
    }

    /// One untraced reference rep plus one traced replica of it.
    pub fn traced(&self) -> Traced {
        match self {
            Workload::Train(w) => w.traced(),
            Workload::Icu(w) => w.traced(),
            Workload::Serve(w) => w.traced(),
        }
    }

    /// The execution-free sweep behind `slo_rate_rps` (serving only).
    pub fn slo_rate_rps(&self) -> Option<f64> {
        match self {
            Workload::Serve(w) => Some(w.slo_rate_rps()),
            _ => None,
        }
    }

    /// Worker threads the workload keeps busy.
    pub fn workers(&self) -> usize {
        match self {
            Workload::Train(w) => w.cfg.workers,
            Workload::Icu(_) => 1,
            Workload::Serve(_) => 2,
        }
    }
}

fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_f32(values: &[f32]) -> u64 {
    fnv64(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Digest of a training rep's outputs: final parameters and the loss
/// of every epoch (iteration for the ICU loop).
fn output_digest(params: &[f32], losses: &[f32]) -> u64 {
    hash_f32(params) ^ hash_f32(losses).rotate_left(1)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sums the durations of `name` spans into `<name>_ms` per step.
fn put_per_step(values: &mut BTreeMap<String, f64>, spans: &[Span], name: &str, steps: u64) {
    let per_step = trace::total_ms(spans, name) / steps.max(1) as f64;
    values.insert(format!("{name}_ms"), per_step);
}

/// Per-kind backward times from the `nn.backward.` child spans.
fn put_backward_kinds(values: &mut BTreeMap<String, f64>, spans: &[Span], steps: u64) {
    for s in spans.iter().filter(|s| s.name == "nn.backward.") {
        *values.entry(spec::backward_metric(s.detail)).or_insert(0.0) +=
            s.dur_ns() as f64 / 1e6 / steps.max(1) as f64;
    }
}

/// Forward, loss and timed per-layer backward of one step; returns the
/// loss. Shared by the training and ICU replicas.
fn traced_compute(
    tr: &mut Tracer,
    model: &mut Sequential,
    x: &Tensor,
    loss: impl FnOnce(&Tensor) -> (f32, Tensor),
) -> f32 {
    let s = tr.enter("nn.zero_grad");
    model.zero_grad();
    tr.exit(s);
    let s = tr.enter("nn.forward");
    let pred = model.forward(x, true);
    tr.exit(s);
    let s = tr.enter("nn.loss");
    let (l, grad) = loss(&pred);
    tr.exit(s);
    let s = tr.enter("nn.backward");
    let mut last = tr.now_ns();
    model.backward_with(&grad, |_, layer| {
        let now = tr.now_ns();
        tr.record("nn.backward.", layer.name(), last, now);
        last = now;
    });
    tr.exit(s);
    l
}

// ---------------------------------------------------------------------
// Trainer-based workloads
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arch {
    /// `resnet_mini(10, 8, 16, 2)`, 29 784 parameters.
    Resnet,
    /// `Flatten → Dense(256,2048) → ReLU → Dense(2048,768) → ReLU →
    /// Dense(768,8)`, 2 106 120 parameters.
    WideMlp,
}

/// A `Trainer` workload: dataset, architecture and builder options.
pub struct TrainWl {
    arch: Arch,
    ds: Dataset,
    cfg: TrainConfig,
    fusion: FusionConfig,
    codec: GradCodec,
    prefetch: usize,
}

impl TrainWl {
    /// One rep is two epochs over half the issue's 2560 patches: the
    /// same samples of work per rep, and a first and a last epoch for
    /// the loss check to compare.
    fn bigearth(seed: u64, smoke: bool) -> Self {
        let cfg = BigEarthConfig {
            bands: 10,
            size: 16,
            classes: 8,
            noise: 0.25,
        };
        TrainWl {
            arch: Arch::Resnet,
            ds: bigearth::generate(if smoke { 128 } else { 1280 }, &cfg, seed),
            cfg: TrainConfig {
                workers: 1,
                epochs: 2,
                batch_per_worker: 32,
                base_lr: 5e-3,
                lr_scaling: false,
                warmup_epochs: 0,
                seed,
                checkpoint: None,
            },
            fusion: FusionConfig::unfused(),
            codec: GradCodec::Dense32,
            prefetch: 0,
        }
    }

    fn widemlp(seed: u64, smoke: bool, codec: GradCodec) -> Self {
        let cfg = BigEarthConfig {
            bands: 4,
            size: 8,
            classes: 8,
            noise: 0.25,
        };
        TrainWl {
            arch: Arch::WideMlp,
            ds: bigearth::generate(if smoke { 64 } else { 512 }, &cfg, seed),
            cfg: TrainConfig {
                workers: 2,
                epochs: 2,
                batch_per_worker: 4,
                base_lr: 1e-3,
                lr_scaling: false,
                warmup_epochs: 0,
                seed,
                checkpoint: Some(CheckpointPolicy::every(if smoke { 4 } else { 32 })),
            },
            fusion: FusionConfig::fused(1 << 20).overlap(true),
            codec,
            prefetch: 2,
        }
    }

    fn model(&self, seed: u64) -> Sequential {
        let mut rng = Rng::seed(seed);
        match self.arch {
            Arch::Resnet => models::resnet_mini(10, 8, 16, 2, &mut rng),
            Arch::WideMlp => Sequential::new()
                .push(Flatten::new())
                .push(Dense::new(256, 2048, &mut rng))
                .push(Relu::new())
                .push(Dense::new(2048, 768, &mut rng))
                .push(Relu::new())
                .push(Dense::new(768, 8, &mut rng)),
        }
    }

    fn opt(lr: f32) -> Box<dyn Optimizer> {
        Box::new(Adam::new(lr))
    }

    fn train_once(&self, recorder: Option<Arc<MetricsRegistry>>) -> (f64, TrainReport) {
        let mut trainer = Trainer::new(self.cfg.clone())
            .fusion(self.fusion)
            .codec(self.codec)
            .prefetch(self.prefetch);
        if let Some(r) = recorder {
            trainer = trainer.recorder(r);
        }
        let t = Instant::now();
        let report = trainer
            .run(&self.ds, |s| self.model(s), Self::opt, SoftmaxCrossEntropy)
            .expect("no resume snapshot, so no snapshot error")
            .completed();
        (t.elapsed().as_secs_f64(), report)
    }

    fn rep(&self) -> RepOut {
        let (secs, report) = self.train_once(None);
        let losses: Vec<f32> = report.epochs.iter().map(|e| e.mean_loss).collect();
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        // With an exact exchange the last epoch improves on the first.
        // Top-k with error feedback releases withheld gradient in
        // bursts, so its epoch means are not monotone (about one seed in
        // five ends above its first epoch); there the trained model must
        // at least beat the uniform guess over the 8 classes.
        let learned = match self.codec {
            GradCodec::SparseTopK { .. } => f64::from(last) < 8f64.ln(),
            _ => last < first,
        };
        let global_batch = self.cfg.batch_per_worker * self.cfg.workers;
        let items = (report.steps_per_rank * global_batch) as u64;
        RepOut::trained(secs, items, &report.final_params, &losses, learned)
    }

    /// One rank of the serialized schedule, span by span.
    fn replica_rank(&self, comm: &ThreadComm, origin: Instant) -> RankTrace {
        let cfg = &self.cfg;
        let (rank, size) = (comm.rank(), comm.size());
        let mut tr = Tracer::new(origin, 0);
        let root = tr.enter("rep");

        let s = tr.enter("nn.build");
        let mut model = self.model(cfg.seed);
        let mut params = model.values_vec();
        tr.exit(s);
        let s = tr.enter("msa-net.sync");
        comm.broadcast(&mut params, 0);
        tr.exit(s);
        let s = tr.enter("distrib.init");
        let n_params = params.len();
        model.set_values(&params);

        let mut opt = Self::opt(effective_lr(cfg, 0));
        let shard = self.ds.shard(rank, size);
        let mut shuffle_rng = Rng::seed(cfg.seed ^ (0xD15C0 + rank as u64));
        let fusion = FusionBuffer::new(
            &model.layer_param_spans(),
            n_params,
            self.fusion.bucket_bytes,
        );
        let mut flat = vec![0.0f32; n_params];
        let mut arena = msa_net::Arena::new();
        let mut compressors: Vec<TopKCompressor> = match self.codec {
            GradCodec::SparseTopK { ratio } => fusion
                .buckets()
                .iter()
                .map(|b| TopKCompressor::new(b.len(), ratio))
                .collect(),
            _ => Vec::new(),
        };
        tr.exit(s);
        let dispatch = ExchangeDispatch::default();
        let mut slabs = SlabPool::new();
        let mut out = RankTrace::default();
        let mut history: Vec<(f32, f32)> = Vec::new();

        for epoch in 0..cfg.epochs {
            let lr = effective_lr(cfg, epoch);
            opt.set_lr(lr);
            let s = tr.enter("data.shuffle");
            let rng_pos_start = shuffle_rng.word_pos();
            let mut stream = BatchStream::new(&shard, cfg.batch_per_worker, &mut shuffle_rng);
            let rng_pos_now = shuffle_rng.word_pos();
            tr.exit(s);
            // Lock-step collectives outside the exchange: a rank waits
            // here for the slowest one (rank 0 after a checkpoint).
            let s = tr.enter("msa-net.sync");
            let min_steps = {
                let all = comm.allgather(&[stream.num_batches() as f32]);
                all.iter().map(|v| v[0]).fold(f32::INFINITY, f32::min) as usize
            };
            tr.exit(s);
            let mut loss_sum = 0.0f64;
            for step_in_epoch in 1..=min_steps {
                let s = tr.enter("data.assemble");
                let (bx, by) = stream
                    .next_batch_pooled(&mut slabs)
                    .expect("min_steps never exceeds this rank's batch count");
                tr.exit(s);

                let l = traced_compute(&mut tr, &mut model, &bx, |pred| {
                    SoftmaxCrossEntropy.compute(pred, &by)
                });

                let s = tr.enter("distrib.pack");
                nn::param::copy_grads_into(&model.params(), &mut flat);
                tr.exit(s);
                let s = tr.enter("distrib.exchange");
                let t = tr.now_ns();
                for (bidx, b) in fusion.buckets().iter().enumerate().rev() {
                    dispatch.reduce_bucket_codec(
                        comm,
                        &mut flat[b.start..b.end],
                        &mut arena,
                        self.codec,
                        compressors.get_mut(bidx),
                    );
                }
                out.exchange_ns.push(tr.now_ns() - t);
                tr.exit(s);
                let s = tr.enter("distrib.unpack");
                model.set_grads(&flat);
                tr.exit(s);

                let s = tr.enter("nn.optim");
                opt.step(&mut model.params_mut());
                tr.exit(s);
                loss_sum += l as f64;
                out.steps += 1;

                if let Some(policy) = &cfg.checkpoint {
                    if out.steps.is_multiple_of(policy.every_steps) {
                        let s = tr.enter("distrib.checkpoint");
                        let mut words = Vec::with_capacity(6);
                        words.extend_from_slice(&u64_to_words(rng_pos_start));
                        words.extend_from_slice(&u64_to_words(rng_pos_now));
                        words.extend_from_slice(&u64_to_words(loss_sum.to_bits()));
                        let gathered = comm.allgather(&words);
                        if rank == 0 {
                            let word = |w: &[f32], i: usize| nn::words_to_u64([w[i], w[i + 1]]);
                            let progress = TrainerProgress {
                                workers: size as u32,
                                seed: cfg.seed,
                                epoch: epoch as u64,
                                step_in_epoch: step_in_epoch as u64,
                                steps_done: out.steps,
                                lr_bits: lr.to_bits(),
                                history: history.clone(),
                                rng_pos_start: gathered.iter().map(|w| word(w, 0)).collect(),
                                rng_pos_now: gathered.iter().map(|w| word(w, 2)).collect(),
                                loss_sum_bits: gathered.iter().map(|w| word(w, 4)).collect(),
                            };
                            let snap =
                                serialize::save_with(&model, &opt.state(), &progress.encode());
                            out.ckpt_writes += 1;
                            out.ckpt_bytes = snap.len() as u64;
                            black_box(snap);
                        }
                        tr.exit(s);
                    }
                }
                slabs.recycle((bx, by));
            }
            let s = tr.enter("msa-net.sync");
            let mut stat = vec![(loss_sum / min_steps.max(1) as f64) as f32];
            comm.allreduce_mean(&mut stat);
            tr.exit(s);
            history.push((stat[0], lr));
        }
        // The trainer's closing lock-step digest, kept so message counts
        // match; the harness compares full parameter vectors instead.
        let s = tr.enter("msa-net.sync");
        let digest: f32 = model.values_vec().iter().sum();
        black_box(comm.allgather(&[digest]));
        tr.exit(s);

        tr.exit(root);
        out.spans = tr.finish();
        out.final_params = model.values_vec();
        out.losses = history.iter().map(|h| h.0).collect();
        out.slab_allocs = slabs.allocs();
        out.pool_allocs = comm.pool_allocs();
        out
    }

    fn traced(&self) -> Traced {
        let recorder = Arc::new(MetricsRegistry::new());
        let (untraced_secs, report) = self.train_once(Some(Arc::clone(&recorder)));

        let origin = Instant::now();
        let opts = CommOptions::new().link(StepCost::default().link);
        let mut ranks = ThreadComm::run_with(self.cfg.workers, &opts, |comm| {
            self.replica_rank(comm, origin)
        });
        let traced_secs = origin.elapsed().as_secs_f64();

        let r0 = &ranks[0];
        let reference_losses: Vec<f32> = report.epochs.iter().map(|e| e.mean_loss).collect();
        let identical = same_bits(&r0.final_params, &report.final_params)
            && same_bits(&r0.losses, &reference_losses)
            && r0.steps == report.steps_per_rank as u64;

        let steps = r0.steps;
        let per_step = |total: u64| total as f64 / steps.max(1) as f64;
        let mut v = BTreeMap::new();
        for name in [
            "data.assemble",
            "nn.forward",
            "nn.backward",
            "nn.loss",
            "nn.zero_grad",
            "nn.optim",
            "distrib.pack",
            "distrib.unpack",
            "distrib.exchange",
        ] {
            put_per_step(&mut v, &r0.spans, name, steps);
        }
        put_backward_kinds(&mut v, &r0.spans, steps);
        v.insert("data.slab_allocs".into(), r0.slab_allocs as f64);
        // Waiting, not transfer: how much longer the slowest rank sat in
        // the exchange than the fastest, averaged over steps.
        let skew_ns: u64 = (0..steps as usize)
            .map(|i| {
                let per_rank = ranks.iter().map(|r| r.exchange_ns[i]);
                per_rank.clone().max().unwrap_or(0) - per_rank.min().unwrap_or(0)
            })
            .sum();
        v.insert("distrib.exchange_skew_ms".into(), per_step(skew_ns) / 1e6);
        v.insert(
            "distrib.checkpoint_ms_per_write".into(),
            trace::total_ms(&r0.spans, "distrib.checkpoint") / r0.ckpt_writes.max(1) as f64,
        );
        v.insert("distrib.checkpoint_bytes".into(), r0.ckpt_bytes as f64);
        v.insert(
            "distrib.overlap_hidden_ms".into(),
            (traced_secs - untraced_secs) * 1e3 / steps.max(1) as f64,
        );

        // Exact traffic counts of the library run, rank 0.
        let snap = recorder.snapshot();
        let rank0_sum = |name: &str| -> u64 {
            snap.entries
                .iter()
                .filter(|e| e.key.starts_with(name) && e.key.contains("rank=0"))
                .filter_map(|e| e.value.as_counter())
                .sum()
        };
        v.insert(
            "msa-net.wire_bytes_per_step".into(),
            per_step(rank0_sum("net.comm.bytes_sent{")),
        );
        v.insert(
            "msa-net.msgs_per_step".into(),
            per_step(rank0_sum("net.comm.msgs_sent{")),
        );
        v.insert("msa-net.pool_allocs".into(), r0.pool_allocs as f64);

        let bd = &report.breakdown;
        v.insert("model.stage_ps".into(), per_step(bd.stage_ps));
        v.insert("model.compute_ps".into(), per_step(bd.compute_ps));
        v.insert("model.allreduce_ps".into(), per_step(bd.allreduce_ps));
        v.insert("model.checkpoint_ps".into(), per_step(bd.checkpoint_ps));
        v.insert(
            "model.sim_wall_ms".into(),
            per_step(report.sim_wall_ps) / 1e9,
        );
        let compute_ns = ["nn.zero_grad", "nn.forward", "nn.loss", "nn.backward"]
            .iter()
            .map(|n| trace::total_ms(&r0.spans, n) * 1e6)
            .sum::<f64>();
        v.insert(
            "model.host_ratio.compute".into(),
            compute_ns / (bd.compute_ps.max(1) as f64),
        );
        if bd.allreduce_ps > 0 {
            let exchange_ns = trace::total_ms(&r0.spans, "distrib.exchange") * 1e6;
            v.insert(
                "model.host_ratio.exchange".into(),
                exchange_ns / bd.allreduce_ps as f64,
            );
        }
        v.insert(
            "e2e.final_loss".into(),
            f64::from(*r0.losses.last().unwrap_or(&f32::NAN)),
        );

        Traced {
            lanes: ranks
                .iter_mut()
                .map(|r| std::mem::take(&mut r.spans))
                .collect(),
            values: v,
            identical,
            traced_secs,
            untraced_secs,
        }
    }
}

/// What one rank of the training replica hands back.
#[derive(Debug, Default)]
struct RankTrace {
    spans: Vec<Span>,
    /// Host ns this rank spent inside the exchange, per step.
    exchange_ns: Vec<u64>,
    final_params: Vec<f32>,
    losses: Vec<f32>,
    steps: u64,
    slab_allocs: u64,
    pool_allocs: u64,
    ckpt_writes: u64,
    ckpt_bytes: u64,
}

// ---------------------------------------------------------------------
// ICU GRU imputation (no Trainer: full-batch loop, as experiment E5)
// ---------------------------------------------------------------------

pub struct IcuWl {
    task: ImputationTask,
    seed: u64,
    iterations: usize,
}

impl IcuWl {
    fn new(seed: u64, smoke: bool) -> Self {
        let cohort = icu::generate(if smoke { 24 } else { 240 }, &IcuConfig::default(), seed);
        IcuWl {
            task: icu::imputation_task(&cohort, icu::SPO2, 0.3, seed ^ 7),
            seed,
            iterations: 20,
        }
    }

    fn model(&self) -> Sequential {
        models::gru_imputer(2 * icu::FEATURES, &mut Rng::seed(self.seed))
    }

    fn masked_loss(&self, pred: &Tensor) -> (f32, Tensor) {
        MaskedMae.compute_masked(pred, &self.task.targets, &self.task.eval_mask)
    }

    /// The loop both the untraced rep and the replica run; `tr` decides
    /// whether the calls are wrapped in spans.
    fn train(&self, mut tr: Option<&mut Tracer>) -> (Vec<f32>, Vec<f32>) {
        let mut model = self.model();
        let mut opt = Adam::new(1e-3);
        let mut losses = Vec::with_capacity(self.iterations);
        for _ in 0..self.iterations {
            match tr.as_deref_mut() {
                Some(tr) => {
                    let l = traced_compute(tr, &mut model, &self.task.inputs, |pred| {
                        self.masked_loss(pred)
                    });
                    losses.push(l);
                    let s = tr.enter("nn.optim");
                    opt.step(&mut model.params_mut());
                    tr.exit(s);
                }
                None => {
                    model.zero_grad();
                    let pred = model.forward(&self.task.inputs, true);
                    let (l, grad) = self.masked_loss(&pred);
                    model.backward(&grad);
                    opt.step(&mut model.params_mut());
                    losses.push(l);
                }
            }
        }
        (model.values_vec(), losses)
    }

    fn rep(&self) -> RepOut {
        let t = Instant::now();
        let (params, losses) = self.train(None);
        let secs = t.elapsed().as_secs_f64();
        let items = (self.task.inputs.shape()[0] * self.iterations) as u64;
        let learned = losses[losses.len() - 1] < losses[0];
        RepOut::trained(secs, items, &params, &losses, learned)
    }

    fn traced(&self) -> Traced {
        let reference = self.rep();
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 0);
        let root = tr.enter("rep");
        let (params, losses) = self.train(Some(&mut tr));
        tr.exit(root);
        let traced_secs = origin.elapsed().as_secs_f64();
        let spans = tr.finish();

        let steps = self.iterations as u64;
        let mut v = BTreeMap::new();
        for name in [
            "nn.forward",
            "nn.backward",
            "nn.loss",
            "nn.zero_grad",
            "nn.optim",
        ] {
            put_per_step(&mut v, &spans, name, steps);
        }
        put_backward_kinds(&mut v, &spans, steps);
        v.insert("e2e.final_loss".into(), f64::from(losses[losses.len() - 1]));
        Traced {
            identical: reference.hash == output_digest(&params, &losses),
            lanes: vec![spans],
            values: v,
            traced_secs,
            untraced_secs: reference.secs,
        }
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// Latency limit behind `slo_rate_rps`: every endpoint's modeled p99.
const SLO_P99_MS: f64 = 250.0;
/// Most requests an endpoint may shed and still meet the SLO.
const SLO_SHED_SHARE: f64 = 0.01;
/// Fixed offered rates of the SLO sweep, req/s per endpoint.
const SLO_RATES_RPS: [f64; 4] = [100.0, 250.0, 600.0, 1200.0];
/// Offered rate of the timed reps, req/s per endpoint.
const SERVE_RPS: f64 = 250.0;

/// One endpoint's static description; `ModelSpec`s are rebuilt from it
/// for every `Server`, which consumes them.
struct EndpointCfg {
    name: &'static str,
    placement: ModuleKind,
    policy: BatchPolicy,
    input_shape: &'static [usize],
    snapshot: Vec<u8>,
    flops_per_request: f64,
}

pub struct ServeWl {
    system: MsaSystem,
    endpoints: Vec<EndpointCfg>,
    seed: u64,
    duration: SimTime,
}

/// Per-batch launch overhead every endpoint is priced with.
fn launch_overhead() -> SimTime {
    SimTime::from_millis(5.0)
}

/// The slowest endpoint's modeled p99 latency.
fn worst_p99_ms(report: &ServeReport) -> f64 {
    report.endpoints.iter().map(|e| e.p99_s).fold(0.0, f64::max) * 1e3
}

fn arch(name: &str, seed: u64) -> Sequential {
    let mut rng = Rng::seed(seed);
    match name {
        "covidnet" => models::covidnet_lite(1, 3, &mut rng),
        _ => models::gru_imputer(6, &mut rng),
    }
}

impl ServeWl {
    fn new(seed: u64, smoke: bool) -> Self {
        let system = presets::deep();
        // One request costs 1 ms of the placed module's peak DL
        // throughput, as in the PR 8 serving grid.
        let flops = |kind: ModuleKind| {
            let module = system.module_of_kind(kind).expect("DEEP has this module");
            1e-3 * module.node.dl_tflops() * 1e12
        };
        let endpoint = |name, placement, policy, input_shape| EndpointCfg {
            name,
            placement,
            policy,
            input_shape,
            snapshot: serialize::save(&arch(name, seed ^ fnv64(name.bytes()))),
            flops_per_request: flops(placement),
        };
        let endpoints = vec![
            endpoint(
                "covidnet",
                ModuleKind::Booster,
                BatchPolicy::new(8, SimTime::from_millis(1.0)),
                &[1, 32, 32][..],
            ),
            endpoint(
                "gru",
                ModuleKind::DataAnalytics,
                BatchPolicy::new(32, SimTime::from_millis(2.0)),
                &[24, 6][..],
            ),
        ];
        ServeWl {
            system,
            endpoints,
            seed,
            duration: SimTime::from_secs(if smoke { 2.0 } else { 30.0 }),
        }
    }

    fn load(&self, rps: f64) -> OfferedLoad {
        OfferedLoad::new(rps, self.duration)
            .users(2_000_000)
            .seed(self.seed)
    }

    fn spec(&self, ep: &EndpointCfg) -> ModelSpec {
        // Decoded into a differently-initialised architecture, so a
        // snapshot that failed to load would change the outputs.
        ModelSpec::new(
            ep.name,
            arch(ep.name, 1),
            ep.snapshot.clone(),
            ep.input_shape,
        )
        .flops_per_request(ep.flops_per_request)
        .launch_overhead(launch_overhead())
    }

    /// `Server::run` at `rps`; `execute` runs every launched batch
    /// through a real forward pass, otherwise none.
    fn serve(&self, rps: f64, execute: bool) -> (f64, ServeReport) {
        let mut cfg = ServeConfig::new(self.system.clone());
        // Launched batches never outnumber arrivals; the margin covers
        // the Poisson count's spread.
        cfg.executed_batches = if execute {
            (2.0 * rps * self.duration.as_secs()) as usize + 64
        } else {
            0
        };
        let mut server = Server::new(cfg);
        for ep in &self.endpoints {
            server = server
                .model(self.spec(ep))
                .placement(ep.placement)
                .batching(ep.policy);
        }
        let server = server.admission(AdmissionPolicy::interactive());
        let load = self.load(rps);
        let t = Instant::now();
        let report = server
            .run(&load)
            .expect("endpoints are placed on modules DEEP has");
        (t.elapsed().as_secs_f64(), report)
    }

    fn rep(&self) -> RepOut {
        let (secs, report) = self.serve(SERVE_RPS, true);
        let eps = &report.endpoints;
        let sum = |f: fn(&msa_serve::EndpointReport) -> u64| eps.iter().map(f).sum::<u64>();
        let (arrivals, completed) = (sum(|e| e.arrivals), sum(|e| e.completed));
        let ok = eps
            .iter()
            .all(|e| e.executed_requests == e.completed && e.completed > 0);
        RepOut {
            secs,
            items: sum(|e| e.executed_requests),
            hash: fnv64(report.snapshot.to_bytes()),
            first_loss: f64::NAN,
            final_loss: f64::NAN,
            attempted: arrivals,
            failed: arrivals - completed,
            modeled_p99_ms: worst_p99_ms(&report),
            ok,
        }
    }

    fn slo_rate_rps(&self) -> f64 {
        SLO_RATES_RPS
            .iter()
            .copied()
            .filter(|&rps| {
                self.serve(rps, false).1.endpoints.iter().all(|e| {
                    e.p99_s * 1e3 <= SLO_P99_MS
                        && e.shed as f64 <= SLO_SHED_SHARE * e.arrivals as f64
                })
            })
            .fold(0.0, f64::max)
    }

    fn traced(&self) -> Traced {
        let (untraced_secs, reference) = self.serve(SERVE_RPS, true);
        let load = self.load(SERVE_RPS);
        let admission = AdmissionPolicy::interactive();
        let registry = MetricsRegistry::new();

        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 0);
        let root = tr.enter("rep");
        let mut planned: Vec<(Sequential, Vec<usize>)> = Vec::new();
        let mut counts = Vec::new();
        let mut events = 0u64;
        for ep in &self.endpoints {
            let mut model = arch(ep.name, 1);
            let s = tr.enter("msa-serve.load_snapshot");
            serialize::load(&mut model, &ep.snapshot).expect("snapshot of the same architecture");
            tr.exit(s);

            // `Server::run`'s pricing: overhead + k requests at the
            // placed node's peak DL rate, admission against full batches
            // back to back.
            let module = self
                .system
                .module_of_kind(ep.placement)
                .expect("placed on DEEP");
            let overhead_ps = simtime_to_ps(launch_overhead());
            let per_request_ps = (ep.flops_per_request / module.node.dl_tflops()).round() as u64;
            let service_ps = |k: usize| overhead_ps + k as u64 * per_request_ps;
            let k_max = ep.policy.max_batch;
            let rate_rps = k_max as f64 / (service_ps(k_max) as f64 / 1e12);

            let s = tr.enter("msa-serve.arrivals");
            let arrivals = open_loop(&load.clone().seed(load.seed ^ fnv64(ep.name.bytes())));
            tr.exit(s);
            let latency_key = key("serve.request.latency", &[("model", ep.name)]);
            let batch_key = key("serve.batch.size", &[("model", ep.name)]);
            let mut plan = Vec::new();
            let s = tr.enter("msa-serve.queue");
            let outcome = run_queue(
                &arrivals,
                &ep.policy,
                Some(&admission),
                rate_rps,
                service_ps,
                |latency_ps, _user| registry.observe(&latency_key, latency_ps as f64 / 1e12),
                |batch| {
                    registry.observe(&batch_key, batch.size as f64);
                    plan.push(batch.size);
                },
            );
            tr.exit(s);
            events += arrivals.len() as u64 + outcome.batches;
            counts.push((arrivals.len() as u64, outcome));
            planned.push((model, plan));
        }

        // Both endpoints execute at once on the pool, as the server does;
        // each lane times its own forwards.
        let s = tr.enter("msa-serve.execute");
        let mut lanes = planned.iter_mut().zip(&self.endpoints);
        let (a, b) = (
            lanes.next().expect("two endpoints"),
            lanes.next().expect("two endpoints"),
        );
        let run_lane = |(model, plan): &mut (Sequential, Vec<usize>), ep: &EndpointCfg| {
            let mut lane = Tracer::new(origin, 0);
            let lane_root = lane.enter("lane");
            let mut rng = Rng::seed(self.seed ^ fnv64(ep.name.bytes()) ^ 0x9e37_79b9_7f4a_7c15);
            let mut ok = true;
            for &k in plan.iter() {
                let mut shape = vec![k];
                shape.extend_from_slice(ep.input_shape);
                let s = lane.enter("msa-serve.input");
                let input = rng.normal_tensor(&shape, 1.0);
                lane.exit(s);
                let s = lane.enter("nn.forward");
                let output = model.predict(&input);
                lane.exit(s);
                ok &= output.shape().first() == Some(&k);
            }
            lane.exit(lane_root);
            (lane.finish(), ok)
        };
        let ((spans_a, ok_a), (spans_b, ok_b)) =
            rayon::join(|| run_lane(a.0, a.1), || run_lane(b.0, b.1));
        tr.exit(s);
        tr.exit(root);
        let traced_secs = origin.elapsed().as_secs_f64();
        let main = tr.finish();

        let identical = ok_a
            && ok_b
            && reference
                .endpoints
                .iter()
                .zip(&counts)
                .all(|(r, (arrivals, o))| {
                    (r.arrivals, r.admitted, r.shed, r.completed, r.batches)
                        == (*arrivals, o.admitted, o.shed, o.completed, o.batches)
                });

        let n_ep = self.endpoints.len() as f64;
        let mut v = BTreeMap::new();
        v.insert(
            "msa-serve.arrivals_ms".into(),
            trace::total_ms(&main, "msa-serve.arrivals") / n_ep,
        );
        let queue_ms = trace::total_ms(&main, "msa-serve.queue");
        v.insert("msa-serve.queue_ms".into(), queue_ms / n_ep);
        v.insert(
            "msa-serve.queue_events_per_s".into(),
            events as f64 / (queue_ms / 1e3),
        );
        v.insert(
            "msa-serve.load_snapshot_ms".into(),
            trace::total_ms(&main, "msa-serve.load_snapshot") / n_ep,
        );
        let mut forward_ms = 0.0;
        let mut requests = 0u64;
        for ((spans, ep), (_, o)) in [&spans_a, &spans_b]
            .into_iter()
            .zip(&self.endpoints)
            .zip(&counts)
        {
            let ms = trace::total_ms(spans, "nn.forward");
            v.insert(
                format!("msa-serve.forward_us_per_request.{}", ep.name),
                ms * 1e3 / o.completed.max(1) as f64,
            );
            forward_ms += ms;
            requests += o.completed;
        }
        // Forward time per executed request, both endpoints together.
        v.insert("nn.forward_ms".into(), forward_ms / requests.max(1) as f64);
        let (arrived, shed, batches) = counts.iter().fold((0, 0, 0), |acc, (a, o)| {
            (acc.0 + a, acc.1 + o.shed, acc.2 + o.batches)
        });
        v.insert(
            "msa-serve.mean_batch".into(),
            requests as f64 / batches.max(1) as f64,
        );
        v.insert(
            "msa-serve.shed_share".into(),
            shed as f64 / arrived.max(1) as f64,
        );
        v.insert("e2e.modeled_p99_ms".into(), worst_p99_ms(&reference));
        v.insert("e2e.slo_rate_rps".into(), self.slo_rate_rps());

        Traced {
            lanes: vec![main, spans_a, spans_b],
            values: v,
            identical,
            traced_secs,
            untraced_secs,
        }
    }
}

// ---------------------------------------------------------------------
// Probes: fixed-size measurements of single layers, the same on every
// workload.
// ---------------------------------------------------------------------

/// Median seconds of `reps` calls of `f` after one warm-up call.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

pub fn probes() -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    let mut rng = Rng::seed(0x9b0b);

    let n = 512;
    let a = rng.normal_tensor(&[n, n], 1.0);
    let b = rng.normal_tensor(&[n, n], 1.0);
    let gemm = || {
        black_box(tensor::matmul::matmul(black_box(&a), black_box(&b)));
    };
    let pooled = time_median(9, gemm);
    let serial = time_median(9, || rayon::serial_scope(gemm));
    v.insert(
        "tensor.gemm_512.gflops".into(),
        2.0 * (n * n * n) as f64 / pooled / 1e9,
    );
    v.insert("tensor.gemm_512.pool_speedup".into(), serial / pooled);

    // 8 MiB of gradient: the size of the wide MLP's exchange.
    let words = 2 << 20;
    let grad = rng.normal_tensor(&[words], 1.0).into_vec();
    let mut wire = vec![0.0f32; tensor::bf16_words(words)];
    let encode = time_median(9, || tensor::encode_bf16_into(black_box(&grad), &mut wire));
    v.insert(
        "tensor.bf16_encode_gbps".into(),
        (words * 4) as f64 / encode / 1e9,
    );

    let mut compressor = TopKCompressor::new(words, 0.01);
    let compress = time_median(5, || {
        black_box(compressor.compress(black_box(&grad)));
    });
    v.insert("distrib.topk_compress_ms".into(), compress * 1e3);

    let allreduce = ThreadComm::run(2, |comm| {
        let mut buf = grad.clone();
        let mut arena = msa_net::Arena::new();
        time_median(5, || {
            ExchangeDispatch::Pipeline.reduce_bucket_codec(
                comm,
                &mut buf,
                &mut arena,
                GradCodec::Dense32,
                None,
            );
        })
    });
    let slowest = allreduce.into_iter().fold(0.0, f64::max);
    v.insert(
        "msa-net.allreduce_8MiB_p2_gbps".into(),
        (words * 4) as f64 / slowest / 1e9,
    );

    let registry = MetricsRegistry::new();
    let latency_key = key("probe.latency", &[("model", "probe")]);
    let observes = 1_000_000;
    let t = Instant::now();
    for i in 0..observes {
        registry.observe(&latency_key, black_box(i as f64 * 1e-6));
    }
    v.insert(
        "msa-obs.observe_ns".into(),
        t.elapsed().as_secs_f64() * 1e9 / observes as f64,
    );
    for i in 0..1000 {
        registry.add(&key("probe.counter", &[("i", &i.to_string())]), i);
    }
    let snapshot = time_median(9, || {
        black_box(registry.snapshot().to_json());
    });
    v.insert("msa-obs.snapshot_ms".into(), snapshot * 1e3);
    v
}
