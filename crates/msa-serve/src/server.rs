//! The one public entry point of the serving tier: [`Server`].
//!
//! `Server::new(cfg).model(…).placement(…).batching(…).admission(…)
//! .recorder(…).run(&load)` mirrors the `distrib::Trainer` builder: a
//! config struct in, chained options, one `run` out. Each `.model()`
//! call registers an endpoint — an MSNN snapshot plus the
//! architecture to load it into — and the options that follow
//! (`placement`, `batching`) attach to that endpoint, so multi-model
//! deployments read top-to-bottom:
//!
//! ```text
//! Server::new(ServeConfig::default())
//!     .model(cnn).placement(ModuleKind::Booster).batching(b32)
//!     .model(gru).placement(ModuleKind::DataAnalytics)
//!     .admission(AdmissionPolicy::interactive())
//!     .run(&load)
//! ```
//!
//! The request path is a *request-level hybrid* (see the crate docs):
//! queueing, batching and latency come from the deterministic
//! discrete-event engine in [`crate::batching`], priced against the
//! placed module's DL throughput (`NodeSpec::dl_tflops`), while a capped
//! number of real batches per endpoint run genuine `nn` forward passes,
//! one lane per pool thread over cloned replicas, to prove the loaded
//! snapshots actually serve. Real execution never feeds the metrics —
//! every recorded latency derives from integer-picosecond event times —
//! so serving artifacts stay byte-stable while still exercising real
//! model code.

use crate::arrivals::{open_loop, OfferedLoad};
use crate::batching::{run_queue, BatchPolicy, QueueOutcome};
use msa_core::module::ModuleKind;
use msa_core::{fnv1a, MsaSystem, SimTime};
use msa_obs::{key, MetricsRegistry, Recorder, Snapshot};
use msa_sched::AdmissionPolicy;
use msa_sync::atomic::{AtomicUsize, Ordering};
use nn::layer::Sequential;
use nn::serialize::{self, SnapshotError};
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;
use tensor::{Rng, Tensor};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The MSA the endpoints are placed on.
    pub system: MsaSystem,
    /// How many of each endpoint's launched batches run a real forward
    /// pass (the rest are priced analytically). Keeps wall-clock cost
    /// independent of the simulated load.
    pub executed_batches: usize,
}

impl ServeConfig {
    /// Serves on the given system with the default real-execution cap.
    pub fn new(system: MsaSystem) -> Self {
        ServeConfig {
            system,
            executed_batches: 2,
        }
    }
}

impl Default for ServeConfig {
    /// Serves on the paper's DEEP prototype.
    fn default() -> Self {
        ServeConfig::new(msa_core::system::presets::deep())
    }
}

/// One deployable model: a serialized MSNN snapshot, the
/// architecture to decode it into, and its cost profile.
pub struct ModelSpec {
    /// Endpoint name; becomes the `model` label on every metric.
    pub name: String,
    /// Architecture the snapshot is loaded into (shapes must match).
    pub model: Sequential,
    /// MSNN snapshot bytes (from [`nn::serialize::save`]).
    pub snapshot: Vec<u8>,
    /// Per-request input shape, without the batch dimension.
    pub input_shape: Vec<usize>,
    /// FLOPs one request costs at inference.
    pub flops_per_request: f64,
    /// Fixed per-batch launch cost (kernel launch, host round-trip).
    pub launch_overhead: SimTime,
}

impl fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .field("snapshot_bytes", &self.snapshot.len())
            .field("input_shape", &self.input_shape)
            .field("flops_per_request", &self.flops_per_request)
            .field("launch_overhead", &self.launch_overhead)
            .finish()
    }
}

impl ModelSpec {
    /// A spec with a 1 GFLOP / 1 ms-overhead default cost profile.
    pub fn new(
        name: impl Into<String>,
        model: Sequential,
        snapshot: Vec<u8>,
        input_shape: &[usize],
    ) -> Self {
        ModelSpec {
            name: name.into(),
            model,
            snapshot,
            input_shape: input_shape.to_vec(),
            flops_per_request: 1e9,
            launch_overhead: SimTime::from_millis(1.0),
        }
    }

    /// Replaces the per-request FLOP cost.
    pub fn flops_per_request(mut self, flops: f64) -> Self {
        assert!(flops > 0.0 && flops.is_finite());
        self.flops_per_request = flops;
        self
    }

    /// Replaces the per-batch launch overhead.
    pub fn launch_overhead(mut self, overhead: SimTime) -> Self {
        self.launch_overhead = overhead;
        self
    }
}

/// Everything that can go wrong while serving. No panics: bad
/// snapshots, unknown modules and shape mismatches all surface here.
#[derive(Debug)]
pub enum ServeError {
    /// `run` was called on a server with no `.model()` registered.
    NoEndpoints,
    /// An endpoint was placed on a module kind the system lacks.
    ModuleMissing(ModuleKind),
    /// An endpoint's snapshot failed to decode into its architecture.
    Snapshot {
        /// Endpoint name.
        model: String,
        /// The decode failure.
        source: SnapshotError,
    },
    /// The offered load cannot be generated: its rate is not positive
    /// and finite, it has no users, or it lasts no time.
    BadLoad(&'static str),
    /// A real forward pass returned a batch dimension that does not
    /// match the launched batch. Names the endpoint's lowest failing
    /// batch, whatever the lane count.
    BadOutput {
        /// Endpoint name.
        model: String,
        /// Index of the batch in the endpoint's executed plan.
        batch: usize,
        /// Shape the forward pass produced.
        got: Vec<usize>,
        /// Batch size that was launched.
        want_batch: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoEndpoints => write!(f, "server has no model endpoints"),
            ServeError::ModuleMissing(kind) => {
                write!(f, "system has no {} module to place on", kind.code())
            }
            ServeError::Snapshot { model, source } => {
                write!(f, "endpoint {model}: snapshot rejected: {source}")
            }
            ServeError::BadLoad(why) => write!(f, "offered load rejected: {why}"),
            ServeError::BadOutput {
                model,
                batch,
                got,
                want_batch,
            } => write!(
                f,
                "endpoint {model}: batch {batch}: forward pass returned shape {got:?} \
                 for a batch of {want_batch}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-endpoint results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointReport {
    /// Endpoint name.
    pub model: String,
    /// Module code the endpoint ran on (`"ESB"`, `"DAM"`, …).
    pub module: &'static str,
    /// Requests that arrived for this endpoint.
    pub arrivals: u64,
    /// Requests admitted past the SLO gate.
    pub admitted: u64,
    /// Requests shed at the door.
    pub shed: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Batches launched.
    pub batches: u64,
    /// Mean requests per launched batch.
    pub mean_batch: f64,
    /// Median request latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_s: f64,
    /// Completed requests per offered second.
    pub throughput_rps: f64,
    /// Fraction of the load window the endpoint's server was busy.
    pub utilization: f64,
    /// Deepest the admission queue got.
    pub max_queue_depth: usize,
    /// Batches that ran a real forward pass.
    pub executed_batches: u64,
    /// Requests inside those real batches.
    pub executed_requests: u64,
}

/// What [`Server::run`] returns: one report per endpoint plus the full
/// metrics snapshot the run produced (canonical, byte-stable).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-endpoint outcomes, in registration order.
    pub endpoints: Vec<EndpointReport>,
    /// Snapshot of every serving metric this run recorded.
    pub snapshot: Snapshot,
}

struct Endpoint {
    spec: ModelSpec,
    placement: ModuleKind,
    policy: BatchPolicy,
}

/// The inference tier builder. See the module docs for the shape of a
/// full deployment.
pub struct Server {
    cfg: ServeConfig,
    endpoints: Vec<Endpoint>,
    admission: Option<AdmissionPolicy>,
    recorder: Option<Arc<MetricsRegistry>>,
    tag: String,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("endpoints", &self.endpoints.len())
            .field("admission", &self.admission)
            .field("tag", &self.tag)
            .finish()
    }
}

impl Server {
    /// A server with no endpoints yet.
    pub fn new(cfg: ServeConfig) -> Self {
        Server {
            cfg,
            endpoints: Vec::new(),
            admission: None,
            recorder: None,
            tag: String::new(),
        }
    }

    /// Registers an endpoint. Defaults: placed on the Booster, no
    /// batching — the `placement`/`batching` calls that follow override
    /// this endpoint until the next `.model()`.
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.endpoints.push(Endpoint {
            spec,
            placement: ModuleKind::Booster,
            policy: BatchPolicy::none(),
        });
        self
    }

    /// Places the most recently added endpoint on a module kind.
    pub fn placement(mut self, kind: ModuleKind) -> Self {
        let ep = self
            .endpoints
            .last_mut()
            .unwrap_or_else(|| panic!("placement() wants a preceding model()"));
        ep.placement = kind;
        self
    }

    /// Sets the batching policy of the most recently added endpoint.
    pub fn batching(mut self, policy: BatchPolicy) -> Self {
        let ep = self
            .endpoints
            .last_mut()
            .unwrap_or_else(|| panic!("batching() wants a preceding model()"));
        ep.policy = policy;
        self
    }

    /// Installs server-wide admission control (applies to every
    /// endpoint). Without it, every request is admitted.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Streams this run's metrics into an external registry (the run
    /// always keeps its own registry too; the external one receives a
    /// merged copy).
    pub fn recorder(mut self, recorder: Arc<MetricsRegistry>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Adds a `run` label to every metric key (for side-by-side runs in
    /// one registry).
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Serves the offered load on every endpoint and returns the
    /// per-endpoint reports plus the metrics snapshot.
    ///
    /// Deterministic end to end: each endpoint's arrival stream is
    /// derived from `load.seed` and the endpoint name, the queue is the
    /// pure event engine, and service times are integer picoseconds
    /// priced from the placed module — two runs with the same inputs
    /// produce byte-identical snapshots. The capped real forward passes
    /// run on every pool thread *after* all metrics exist and only
    /// validate the loaded models.
    pub fn run(mut self, load: &OfferedLoad) -> Result<ServeReport, ServeError> {
        load.check().map_err(ServeError::BadLoad)?;
        if self.endpoints.is_empty() {
            return Err(ServeError::NoEndpoints);
        }
        let registry = MetricsRegistry::new();
        let duration_s = load.duration.as_secs();
        let mut queue_outcomes: Vec<(QueueOutcome, u64, &'static str)> = Vec::new();
        let mut exec_plans: Vec<Vec<usize>> = Vec::new();

        for ep in &mut self.endpoints {
            let module = self
                .cfg
                .system
                .module_of_kind(ep.placement)
                .ok_or(ServeError::ModuleMissing(ep.placement))?;
            serialize::load(&mut ep.spec.model, &ep.spec.snapshot).map_err(|source| {
                ServeError::Snapshot {
                    model: ep.spec.name.clone(),
                    source,
                }
            })?;

            // Pricing: batch time = launch overhead + k requests at the
            // module node's peak DL throughput. `dl_tflops` is TFLOP/s,
            // i.e. 1e12 FLOP/s, so `flops / tflops` is already ps.
            let tflops = module.node.dl_tflops();
            let overhead_ps = ep.spec.launch_overhead.as_ps();
            let per_request_ps = (ep.spec.flops_per_request / tflops).round() as u64;
            let service_ps = |k: usize| overhead_ps + k as u64 * per_request_ps;
            // Admission prices waits against the best sustained rate
            // the policy allows: full batches, back to back.
            let k_max = ep.policy.max_batch;
            let rate_rps = k_max as f64 / SimTime::from_ps(service_ps(k_max)).as_secs();

            let labels = metric_labels(&ep.spec.name, &self.tag);
            let latency_key = key("serve.request.latency", &labels);
            let batch_key = key("serve.batch.size", &labels);

            let ep_load = load.clone().seed(load.seed ^ fnv1a(ep.spec.name.bytes()));
            let arrivals = open_loop(&ep_load);
            let cap = self.cfg.executed_batches;
            let mut plan: Vec<usize> = Vec::with_capacity(cap);
            let outcome = run_queue(
                &arrivals,
                &ep.policy,
                self.admission.as_ref(),
                rate_rps,
                service_ps,
                |latency_ps, _user| {
                    registry.observe(&latency_key, SimTime::from_ps(latency_ps).as_secs());
                },
                |batch| {
                    registry.observe(&batch_key, batch.size as f64);
                    if plan.len() < cap {
                        plan.push(batch.size);
                    }
                },
            );

            registry.add(&key("serve.requests.admitted", &labels), outcome.admitted);
            registry.add(&key("serve.requests.shed", &labels), outcome.shed);
            registry.add(&key("serve.requests.completed", &labels), outcome.completed);
            registry.add(&key("serve.batches", &labels), outcome.batches);
            registry.time_ps(&key("serve.busy", &labels), outcome.busy_ps);
            registry.gauge(
                &key("serve.queue.max_depth", &labels),
                outcome.max_queue_depth as f64,
            );

            queue_outcomes.push((outcome, arrivals.len() as u64, module.kind.code()));
            exec_plans.push(plan);
        }

        // Real execution: the capped batch plans run true forward passes
        // on every pool thread. Results are validated (the batch
        // dimension must survive the network) but never recorded as
        // latency.
        let work: Vec<Work<'_>> = self
            .endpoints
            .iter()
            .zip(&exec_plans)
            .map(|(ep, plan)| Work::new(&ep.spec, plan, load.seed))
            .collect();
        let models: Vec<&Sequential> = self.endpoints.iter().map(|ep| &ep.spec.model).collect();
        let executed = execute(&work, &models, |_, _, _| {})?;

        let mut reports = Vec::with_capacity(self.endpoints.len());
        for ((ep, (executed_batches, executed_requests)), (outcome, n_arrivals, module_code)) in
            self.endpoints
                .iter()
                .zip(executed)
                .zip(queue_outcomes.iter())
        {
            let labels = metric_labels(&ep.spec.name, &self.tag);
            registry.add(&key("serve.exec.batches", &labels), executed_batches);
            registry.add(&key("serve.exec.requests", &labels), executed_requests);
            reports.push((
                ep,
                outcome,
                *n_arrivals,
                module_code,
                executed_batches,
                executed_requests,
            ));
        }

        let snapshot = registry.snapshot();
        let endpoints = reports
            .into_iter()
            .map(
                |(ep, outcome, n_arrivals, module_code, executed_batches, executed_requests)| {
                    let labels = metric_labels(&ep.spec.name, &self.tag);
                    let latency_key = key("serve.request.latency", &labels);
                    let mean_batch = if outcome.batches > 0 {
                        outcome.batch_occupancy_sum as f64 / outcome.batches as f64
                    } else {
                        0.0
                    };
                    EndpointReport {
                        model: ep.spec.name.clone(),
                        module: module_code,
                        arrivals: n_arrivals,
                        admitted: outcome.admitted,
                        shed: outcome.shed,
                        completed: outcome.completed,
                        batches: outcome.batches,
                        mean_batch,
                        p50_s: snapshot.quantile(&latency_key, 0.50).unwrap_or(0.0),
                        p99_s: snapshot.quantile(&latency_key, 0.99).unwrap_or(0.0),
                        throughput_rps: outcome.completed as f64 / duration_s,
                        utilization: (SimTime::from_ps(outcome.busy_ps).as_secs() / duration_s)
                            .min(1.0),
                        max_queue_depth: outcome.max_queue_depth,
                        executed_batches,
                        executed_requests,
                    }
                },
            )
            .collect();

        if let Some(external) = &self.recorder {
            external.merge_snapshot(&snapshot);
        }
        Ok(ServeReport {
            endpoints,
            snapshot,
        })
    }
}

/// One endpoint's executed plan, shared by every lane.
struct Work<'a> {
    name: &'a str,
    input_shape: &'a [usize],
    /// Launched batch sizes, in launch order.
    plan: &'a [usize],
    /// Key of the endpoint's input streams: batch `i` draws its input
    /// from [`Rng::keyed`]`(key, i)`, so any lane can draw it.
    key: u64,
    /// Next unclaimed batch of `plan`.
    cursor: AtomicUsize,
}

impl<'a> Work<'a> {
    fn new(spec: &'a ModelSpec, plan: &'a [usize], seed: u64) -> Self {
        Work {
            name: &spec.name,
            input_shape: &spec.input_shape,
            plan,
            key: seed ^ fnv1a(spec.name.bytes()) ^ 0x9e37_79b9_7f4a_7c15,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Batch `i`'s input: `plan[i]` requests of standard normals.
    fn input(&self, i: usize) -> Tensor {
        let mut shape = Vec::with_capacity(1 + self.input_shape.len());
        shape.push(self.plan[i]);
        shape.extend_from_slice(self.input_shape);
        Rng::keyed(self.key, i as u64).normal_tensor(&shape, 1.0)
    }

    /// Claims the next batch, or `None` once the plan is drained.
    fn claim(&self) -> Option<usize> {
        // lint: allow(ordering-audit) -- the cursor only hands out indices; each lane's results return through the pool's join
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.plan.len()).then_some(i)
    }
}

/// What one lane did on one endpoint.
#[derive(Clone, Default)]
struct Tally {
    batches: u64,
    requests: u64,
    /// The batch that failed on this lane and the shape it returned; a
    /// lane leaves an endpoint at its first failure.
    failed: Option<(usize, Vec<usize>)>,
}

/// Runs every endpoint's plan on `rayon::current_num_threads()` lanes and
/// returns each endpoint's `(executed batches, executed requests)`.
///
/// Each lane owns a clone of every endpoint's loaded model (the
/// originals never run) and runs its forwards inline under
/// [`rayon::serial_scope`]. Lane `l` drains endpoint `l mod E` first,
/// then helps the others in registration order, claiming batches
/// through the endpoint's cursor, so a lane grows the working memory of
/// only the replicas it runs. `visit(endpoint, batch, output)` sees every
/// output that passed the batch check.
fn execute(
    work: &[Work<'_>],
    models: &[&Sequential],
    visit: impl Fn(usize, usize, &Tensor) + Sync,
) -> Result<Vec<(u64, u64)>, ServeError> {
    let lanes = rayon::current_num_threads().max(1);
    let replicas: Vec<Vec<Sequential>> = (0..lanes)
        .map(|_| models.iter().map(|&m| m.clone()).collect())
        .collect();
    let tallies: Vec<Vec<Tally>> = replicas
        .into_par_iter()
        .enumerate()
        .map(|(lane, mut replicas)| {
            rayon::serial_scope(|| run_lane(lane, &mut replicas, work, &visit))
        })
        .collect();

    let mut executed = Vec::with_capacity(work.len());
    for (e, w) in work.iter().enumerate() {
        let lanes = tallies.iter().map(|t| &t[e]);
        if let Some((batch, got)) = lanes
            .clone()
            .filter_map(|t| t.failed.as_ref())
            .min_by_key(|(batch, _)| *batch)
        {
            return Err(ServeError::BadOutput {
                model: w.name.to_string(),
                batch: *batch,
                got: got.clone(),
                want_batch: w.plan[*batch],
            });
        }
        executed.push(lanes.fold((0, 0), |(b, r), t| (b + t.batches, r + t.requests)));
    }
    Ok(executed)
}

/// One lane: endpoint `lane mod E` first, then the others in order.
fn run_lane(
    lane: usize,
    replicas: &mut [Sequential],
    work: &[Work<'_>],
    visit: &(impl Fn(usize, usize, &Tensor) + Sync),
) -> Vec<Tally> {
    let mut tallies = vec![Tally::default(); work.len()];
    let first = lane % work.len();
    let order = std::iter::once(first).chain((0..work.len()).filter(|&e| e != first));
    for e in order {
        let w = &work[e];
        let tally = &mut tallies[e];
        while let Some(i) = w.claim() {
            let k = w.plan[i];
            let output = replicas[e].predict(&w.input(i));
            if output.shape().first() != Some(&k) {
                // Every batch below `i` is already claimed, so the
                // lowest failing batch runs without the ones above it.
                // lint: allow(ordering-audit) -- as in `claim`: indices only
                w.cursor.fetch_max(w.plan.len(), Ordering::Relaxed);
                tally.failed = Some((i, output.shape().to_vec()));
                break;
            }
            visit(e, i, &output);
            tally.batches += 1;
            tally.requests += k as u64;
        }
    }
    tallies
}

fn metric_labels<'a>(model: &'a str, tag: &'a str) -> Vec<(&'a str, &'a str)> {
    if tag.is_empty() {
        vec![("model", model)]
    } else {
        vec![("model", model), ("run", tag)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::models;

    fn cnn_spec(name: &str) -> ModelSpec {
        let mut rng = Rng::seed(11);
        let model = models::covidnet_lite(1, 3, &mut rng);
        let mut fresh = Rng::seed(11);
        let arch = models::covidnet_lite(1, 3, &mut fresh);
        let bytes = serialize::save(&model);
        ModelSpec::new(name, arch, bytes, &[1, 32, 32])
            .flops_per_request(2e9)
            .launch_overhead(SimTime::from_millis(5.0))
    }

    fn gru_spec(name: &str) -> ModelSpec {
        let mut rng = Rng::seed(13);
        let model = models::gru_imputer(6, &mut rng);
        let mut fresh = Rng::seed(13);
        let arch = models::gru_imputer(6, &mut fresh);
        let bytes = serialize::save(&model);
        ModelSpec::new(name, arch, bytes, &[24, 6])
            .flops_per_request(5e8)
            .launch_overhead(SimTime::from_millis(2.0))
    }

    fn small_load() -> OfferedLoad {
        OfferedLoad::new(150.0, SimTime::from_secs(4.0)).users(50_000)
    }

    /// `spec` with its snapshot loaded, as `Server::run` loads it.
    fn loaded(mut spec: ModelSpec) -> ModelSpec {
        serialize::load(&mut spec.model, &spec.snapshot).unwrap();
        spec
    }

    /// FNV-1a over the bits of `outputs`, in order.
    fn digest<'a>(outputs: impl IntoIterator<Item = &'a Tensor>) -> u64 {
        fnv1a(
            outputs
                .into_iter()
                .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
        )
    }

    #[test]
    fn lanes_serial_scope_and_a_plain_loop_give_equal_output_digests() {
        let _ = rayon::init_with_threads(4);
        let specs = [loaded(cnn_spec("covidnet")), loaded(gru_spec("gru"))];
        // Uneven batch sizes, more batches than lanes, one plan longer.
        let plans: [Vec<usize>; 2] = [
            (0..37).map(|i| 1 + (i * 5) % 8).collect(),
            (0..23).map(|i| 1 + (i * 7) % 32).collect(),
        ];
        let lanes = || {
            let work: Vec<Work<'_>> = specs
                .iter()
                .zip(&plans)
                .map(|(s, p)| Work::new(s, p, 3))
                .collect();
            let models: Vec<&Sequential> = specs.iter().map(|s| &s.model).collect();
            let seen = std::sync::Mutex::new(std::collections::BTreeMap::new());
            let counts = execute(&work, &models, |e, i, out: &Tensor| {
                let fresh = seen.lock().unwrap().insert((e, i), out.clone()).is_none();
                assert!(fresh, "batch {i} of endpoint {e} ran twice");
            })
            .unwrap();
            let seen = seen.into_inner().unwrap();
            let digests: Vec<u64> = (0..specs.len())
                .map(|e| digest(seen.range((e, 0)..(e + 1, 0)).map(|(_, t)| t)))
                .collect();
            (counts, digests, seen.len())
        };
        let reference: Vec<u64> = specs
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(e, (spec, plan))| {
                let mut model = if e == 0 { cnn_spec("x") } else { gru_spec("x") }.model;
                serialize::load(&mut model, &spec.snapshot).unwrap();
                let work = Work::new(spec, plan, 3);
                let outputs: Vec<Tensor> = (0..plan.len())
                    .map(|i| model.predict(&work.input(i)))
                    .collect();
                digest(&outputs)
            })
            .collect();

        let (counts, pooled, n) = lanes();
        assert_eq!(n, plans[0].len() + plans[1].len());
        let want: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| (p.len() as u64, p.iter().sum::<usize>() as u64))
            .collect();
        assert_eq!(counts, want);
        assert_eq!(pooled, reference, "pool lanes against the plain loop");
        let (_, serial, _) = rayon::serial_scope(lanes);
        assert_eq!(serial, reference, "serial_scope against the plain loop");
    }

    /// Flattens away the batch dimension, which `Server::run` rejects.
    #[derive(Clone)]
    struct DropBatch;

    impl nn::Layer for DropBatch {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            Tensor::from_vec(input.data().to_vec(), &[input.numel()])
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }

        fn name(&self) -> &'static str {
            "DropBatch"
        }
    }

    #[test]
    fn a_shape_breaking_model_is_reported_at_its_first_batch() {
        let _ = rayon::init_with_threads(4);
        let model = || Sequential::new().push(DropBatch);
        // Enough executed batches that every lane claims some.
        let cfg = ServeConfig {
            executed_batches: 64,
            ..ServeConfig::default()
        };
        let run = || {
            Server::new(cfg.clone())
                .model(cnn_spec("covidnet"))
                .model(ModelSpec::new(
                    "flat",
                    model(),
                    serialize::save(&model()),
                    &[4],
                ))
                .batching(BatchPolicy::new(4, SimTime::from_millis(1.0)))
                .run(&small_load())
                .unwrap_err()
        };
        let errors = [run(), run(), rayon::serial_scope(run)];
        for err in errors {
            let ServeError::BadOutput {
                model,
                batch,
                got,
                want_batch,
            } = &err
            else {
                panic!("expected BadOutput, got {err}");
            };
            assert_eq!((model.as_str(), *batch), ("flat", 0), "{err}");
            assert_eq!(got, &[want_batch * 4], "{err}");
        }
    }

    #[test]
    fn loads_open_loop_cannot_generate_are_typed_errors() {
        let bad = [
            (OfferedLoad::new(0.0, SimTime::from_secs(1.0)), "rps"),
            (OfferedLoad::new(-5.0, SimTime::from_secs(1.0)), "rps"),
            (OfferedLoad::new(f64::NAN, SimTime::from_secs(1.0)), "rps"),
            (
                OfferedLoad::new(f64::INFINITY, SimTime::from_secs(1.0)),
                "rps",
            ),
            (small_load().users(0), "users"),
            (OfferedLoad::new(150.0, SimTime::ZERO), "duration"),
        ];
        for (load, field) in bad {
            let err = Server::new(ServeConfig::default())
                .model(gru_spec("gru"))
                .run(&load)
                .unwrap_err();
            assert!(
                matches!(err, ServeError::BadLoad(why) if why.starts_with(field)),
                "{load:?}: {err}"
            );
        }
    }

    #[test]
    fn server_serves_two_models_on_their_modules() {
        let report = Server::new(ServeConfig::default())
            .model(cnn_spec("covidnet"))
            .placement(ModuleKind::Booster)
            .batching(BatchPolicy::new(8, SimTime::from_millis(2.0)))
            .model(gru_spec("gru-imputer"))
            .placement(ModuleKind::DataAnalytics)
            .admission(AdmissionPolicy::interactive())
            .run(&small_load())
            .unwrap();

        assert_eq!(report.endpoints.len(), 2);
        let cnn = &report.endpoints[0];
        let gru = &report.endpoints[1];
        assert_eq!((cnn.module, gru.module), ("ESB", "DAM"));
        assert!(cnn.completed > 0 && gru.completed > 0);
        assert_eq!(cnn.admitted, cnn.completed);
        assert!(cnn.p50_s > 0.0 && cnn.p99_s >= cnn.p50_s);
        assert!(cnn.mean_batch >= 1.0);
        // Real forwards actually ran.
        assert!(cnn.executed_batches > 0 && gru.executed_batches > 0);
        assert!(cnn.executed_requests >= cnn.executed_batches);
        // The snapshot carries the latency histograms.
        assert!(report
            .snapshot
            .quantile("serve.request.latency{model=covidnet}", 0.5)
            .is_some());
    }

    #[test]
    fn two_runs_produce_byte_identical_snapshots() {
        let run = || {
            Server::new(ServeConfig::default())
                .model(cnn_spec("covidnet"))
                .batching(BatchPolicy::new(4, SimTime::from_millis(1.0)))
                .admission(AdmissionPolicy::interactive())
                .tag("det")
                .run(&small_load())
                .unwrap()
        };
        let a = run().snapshot.to_bytes();
        let b = run().snapshot.to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_receives_a_merged_copy() {
        let external = Arc::new(MetricsRegistry::new());
        let report = Server::new(ServeConfig::default())
            .model(gru_spec("gru"))
            .placement(ModuleKind::DataAnalytics)
            .recorder(Arc::clone(&external))
            .run(&small_load())
            .unwrap();
        let merged = external.snapshot();
        assert_eq!(merged.to_bytes(), report.snapshot.to_bytes());
    }

    #[test]
    fn corrupt_snapshots_and_bad_placements_surface_as_errors() {
        let mut spec = cnn_spec("broken");
        spec.snapshot[0] ^= 0xff;
        let err = Server::new(ServeConfig::default())
            .model(spec)
            .run(&small_load())
            .unwrap_err();
        assert!(matches!(err, ServeError::Snapshot { .. }), "{err}");

        // The DEEP preset has every module kind, so drop the DAM to get
        // a system that cannot satisfy the placement.
        let mut system = msa_core::system::presets::deep();
        system.modules.retain(|m| m.kind != ModuleKind::DataAnalytics);
        let err = Server::new(ServeConfig::new(system))
            .model(cnn_spec("misplaced"))
            .placement(ModuleKind::DataAnalytics)
            .run(&small_load())
            .unwrap_err();
        assert!(matches!(err, ServeError::ModuleMissing(_)), "{err}");

        let err = Server::new(ServeConfig::default())
            .run(&small_load())
            .unwrap_err();
        assert!(matches!(err, ServeError::NoEndpoints), "{err}");
    }
}
