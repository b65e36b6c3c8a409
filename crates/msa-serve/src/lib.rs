//! # msa-serve
//!
//! The inference tier of the suite: the paper's trained models
//! (COVIDNet-style CNN on the Booster, GRU vital-sign imputer on the
//! Data Analytics Module) deployed behind a dynamic-batching,
//! admission-controlled request queue and driven by millions of
//! simulated users. The paper's modular workflow is *train here, infer
//! there*: training has its builder in `distrib::Trainer`, and serving
//! has the twin surface here. The pre-builder entry points are deleted,
//! not forwarded, and msa-lint's `removed-api` rule keeps their names
//! from reappearing.
//!
//! * [`arrivals`] — deterministic open-loop Poisson arrival streams:
//!   one `(seed, rps, duration)` triple is one exact sequence of
//!   integer-picosecond request timestamps;
//! * [`batching`] — the dynamic-batching queue as a pure discrete-event
//!   engine (`max_batch`/`max_delay` launch rules, SLO-priced admission
//!   shedding via [`msa_sched::AdmissionPolicy`]), plus the independent
//!   unbatched mirror the equivalence tests pin it against;
//! * [`server`] — the one public entry point, a builder mirroring
//!   `distrib::Trainer`:
//!   `Server::new(cfg).model(…).placement(…).batching(…).admission(…)
//!   .recorder(…).run(&load)`. Loads real MSNN snapshots, prices
//!   batches on the placed module's hardware, records per-request
//!   latency into `msa-obs` histograms, and runs a capped number of
//!   genuine forward passes on every pool thread to prove the
//!   deployment.
//!
//! ## The request-level hybrid
//!
//! Serving differs from training in kind: the interesting behaviour is
//! *queueing* (millions of users arriving independently of service
//! progress), and executing millions of requests on the host clock would
//! measure the host, not the design. So the layers split the way the
//! collective tuner's (`msa_net::tune`) do:
//!
//! * **Arrivals** are a discrete-event stream: a seeded xorshift64*
//!   process draws exponential gaps at the offered rate, rounds once to
//!   integer picoseconds, and tags each request with a user id from the
//!   population. The stream is a pure function of
//!   `(seed, rps, duration, users)`; every downstream latency is an
//!   integer subtraction of those timestamps, so two runs are
//!   byte-identical on any machine. Each endpoint folds its model name
//!   into the seed, so co-hosted models see independent streams. A load
//!   the stream cannot be drawn from (rate not positive and finite, no
//!   users, no duration) is `ServeError::BadLoad`.
//! * **The queue** is an exact event loop ([`run_queue`]): a batch
//!   launches when `max_batch` requests are waiting or the head-of-line
//!   request has aged `max_delay`; service costs
//!   `overhead + k · flops/dl_tflops(module)` on the module the endpoint
//!   is placed on, and one in-flight batch models a serially reused
//!   accelerator. Tie-breaks are pinned by test: a *full* batch at time
//!   t launches before an arrival at t; a *partial* batch whose delay
//!   expires at t admits the time-t arrival first. Those two rules make
//!   `max_batch = 1` agree request for request (latencies, users, shed
//!   decisions, launch schedule) with the independently written FIFO
//!   mirror [`run_unbatched`]. A policy with `max_batch = 0`, which
//!   would launch empty batches forever, is `ServeError::BadPolicy`.
//! * **Admission** prices the queue with [`msa_sched::AdmissionPolicy`]:
//!   predicted wait = backlog / sustained service rate, and a request
//!   whose predicted wait exceeds the SLO is shed at arrival. That is
//!   why saturated p99 in `BENCH_pr8.json` sits just *above* the 10 s
//!   SLO instead of growing without bound; its
//!   `admission_bounds_latency` flag asserts it stays under SLO + 1 s in
//!   every cell.
//! * **Execution is real.** Each endpoint loads its model from an MSNN
//!   v3 snapshot (`nn::serialize`) and runs genuine forward passes at
//!   the batch sizes the simulation launched: the CNN convolves, the GRU
//!   scans. That checks snapshot compatibility and batch-shape handling
//!   that pure simulation would take on faith. The forwards run on
//!   `rayon::current_num_threads()` lanes:
//!   - every lane owns a clone of every loaded model, made before any
//!     forward runs (the loaded originals never run);
//!   - lane `l` drains endpoint `l mod E` first, then helps the others
//!     in registration order, claiming batches through one atomic cursor
//!     per endpoint, so a lane grows the working memory of only the
//!     replicas it runs;
//!   - a lane runs its forwards inline under `rayon::serial_scope`;
//!   - the input of batch `i` is keyed stream `i` of the endpoint's key
//!     ([`tensor::Rng::keyed`]), so any lane can draw it.
//!
//!   The executed counts, and the batch a `ServeError::BadOutput` names
//!   (the endpoint's lowest failing one), are therefore the same for
//!   any lane count and under `rayon::serial_scope`. Execution never
//!   feeds the metrics.
//!
//! **The measured tradeoff.** `experiments serve` sweeps 3 batch
//! policies × 4 offered loads and writes integer-only JSON
//! (`BENCH_pr8.json`). Batch-1 saturates at ~194 rps with an off-peak
//! p99 of ~70 ms; batch-32 sustains ~1009 rps (mean occupancy 31.96 at
//! 1200 rps) but pays queue-plus-SLO-bounded tails at saturation.
//!
//! **Observability.** Latencies land in `msa-obs` histograms
//! (`serve.request.latency{model=…}`), and `Snapshot::quantile` reads
//! p50/p99 by interpolating within the decade buckets, clamped to the
//! recorded min/max, so percentiles come from the same deterministic
//! snapshot the byte-compare covers. Everything metric-visible derives
//! from integer event times, so a serving run is reproducible bit for
//! bit: the property the committed `BENCH_pr8.json` artifact and its CI
//! byte-comparison rely on.

pub mod arrivals;
pub mod batching;
pub mod server;

pub use arrivals::{open_loop, Arrival, OfferedLoad};
pub use batching::{run_queue, run_unbatched, Batch, BatchPolicy, QueueOutcome};
pub use server::{EndpointReport, ModelSpec, ServeConfig, ServeError, ServeReport, Server};
