//! # msa-serve
//!
//! The inference tier of the suite: the paper's trained models
//! (COVIDNet-style CNN on the Booster, GRU vital-sign imputer on the
//! Data Analytics Module) deployed behind a dynamic-batching,
//! admission-controlled request queue and driven by millions of
//! simulated users.
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
//!   genuine forward passes on the rayon pool to prove the deployment.
//!
//! Everything metric-visible derives from integer event times, so a
//! serving run is reproducible bit for bit — the property the committed
//! `BENCH_pr8.json` artifact and its CI byte-comparison rely on.

pub mod arrivals;
pub mod batching;
pub mod server;

pub use arrivals::{open_loop, Arrival, OfferedLoad};
pub use batching::{run_queue, run_unbatched, Batch, BatchPolicy, QueueOutcome};
pub use server::{EndpointReport, ModelSpec, ServeConfig, ServeError, ServeReport, Server};
