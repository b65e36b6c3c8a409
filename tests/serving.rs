//! The msa-serve contract, end to end:
//!
//! 1. serving must be **deterministic** — the same seed and offered
//!    load produce a bit-identical `msa-obs` snapshot across two full
//!    `Server` runs (the property `BENCH_pr8.json`'s CI byte-compare
//!    rests on);
//! 2. batching must be **conservative at size 1** — the dynamic
//!    batching engine with `max_batch = 1` agrees request-for-request
//!    (latency and user) with the independently written no-batching
//!    FIFO mirror, shed decisions included;
//! 3. the builder must compose with the rest of the suite — snapshots
//!    from `nn::serialize`, placement on `msa_core` preset modules,
//!    admission from `msa_sched`, metrics into `msa_obs`;
//! 4. real execution must not depend on the pool — every pool thread
//!    runs a lane of forwards, and the reports and snapshot equal those
//!    of a run under `rayon::serial_scope`.

use std::sync::Arc;

use msa_suite::msa_core::module::ModuleKind;
use msa_suite::msa_core::SimTime;
use msa_suite::msa_obs::MetricsRegistry;
use msa_suite::msa_sched::AdmissionPolicy;
use msa_suite::msa_serve::{
    open_loop, run_queue, run_unbatched, BatchPolicy, ModelSpec, OfferedLoad, ServeConfig, Server,
};
use msa_suite::nn::{models, serialize};
use msa_suite::tensor::Rng;

fn cnn_spec() -> ModelSpec {
    let mut rng = Rng::seed(77);
    let trained = models::covidnet_lite(1, 3, &mut rng);
    let bytes = serialize::save(&trained);
    let mut fresh = Rng::seed(78);
    let arch = models::covidnet_lite(1, 3, &mut fresh);
    ModelSpec::new("covidnet", arch, bytes, &[1, 32, 32])
        .flops_per_request(2e9)
        .launch_overhead(SimTime::from_millis(5.0))
}

fn gru_spec() -> ModelSpec {
    let mut rng = Rng::seed(79);
    let trained = models::gru_imputer(6, &mut rng);
    let bytes = serialize::save(&trained);
    let mut fresh = Rng::seed(80);
    let arch = models::gru_imputer(6, &mut fresh);
    ModelSpec::new("gru-imputer", arch, bytes, &[24, 6])
        .flops_per_request(1e9)
        .launch_overhead(SimTime::from_millis(2.0))
}

fn serve_once(seed: u64) -> Vec<u8> {
    let load = OfferedLoad::new(400.0, SimTime::from_secs(6.0))
        .users(1_000_000)
        .seed(seed);
    let report = Server::new(ServeConfig::default())
        .model(cnn_spec())
        .placement(ModuleKind::Booster)
        .batching(BatchPolicy::new(8, SimTime::from_millis(2.0)))
        .model(gru_spec())
        .placement(ModuleKind::DataAnalytics)
        .batching(BatchPolicy::new(16, SimTime::from_millis(1.0)))
        .admission(AdmissionPolicy::interactive())
        .tag("contract")
        .run(&load)
        .expect("serving run failed");
    assert!(report.endpoints.iter().all(|e| e.completed > 0));
    report.snapshot.to_bytes()
}

#[test]
fn same_seed_and_load_give_bit_identical_snapshots() {
    let a = serve_once(1234);
    let b = serve_once(1234);
    assert_eq!(a, b, "two identical serving runs must be bit-identical");
    let c = serve_once(1235);
    assert_ne!(a, c, "a different seed must actually change the run");
}

#[test]
fn batch_size_one_is_the_no_batching_path_result_for_result() {
    // Saturating load so admission shedding is part of what must agree.
    let load = OfferedLoad::new(900.0, SimTime::from_secs(8.0)).seed(99);
    let arrivals = open_loop(&load);
    let admission = AdmissionPolicy::new(SimTime::from_secs(1.0));
    let service = |_k: usize| 1_500_000_000u64; // 1.5 ms per request
    let rate = 1.0 / 1.5e-3;

    let mut engine_requests = Vec::new();
    let mut engine_batches = Vec::new();
    let engine = run_queue(
        &arrivals,
        &BatchPolicy::none(),
        Some(&admission),
        rate,
        service,
        |latency_ps, user| engine_requests.push((latency_ps, user)),
        |b| engine_batches.push(*b),
    );

    let mut mirror_requests = Vec::new();
    let mut mirror_batches = Vec::new();
    let mirror = run_unbatched(
        &arrivals,
        Some(&admission),
        rate,
        service,
        |latency_ps, user| mirror_requests.push((latency_ps, user)),
        |b| mirror_batches.push(*b),
    );

    assert!(engine.shed > 0, "the load must actually overload the server");
    assert_eq!(engine, mirror, "outcome counters must agree");
    assert_eq!(engine_requests, mirror_requests, "per-request results must agree");
    assert_eq!(engine_batches, mirror_batches, "launch schedules must agree");
}

#[test]
fn server_with_batch_one_matches_its_own_unbatched_twin() {
    // End-to-end variant of the equivalence: a Server run with
    // `BatchPolicy::none()` and one with an explicit 1/0 policy are the
    // same deployment, so their snapshots must be byte-equal.
    let load = OfferedLoad::new(200.0, SimTime::from_secs(4.0)).seed(5);
    let run = |policy: BatchPolicy| {
        Server::new(ServeConfig::default())
            .model(gru_spec())
            .placement(ModuleKind::DataAnalytics)
            .batching(policy)
            .admission(AdmissionPolicy::interactive())
            .run(&load)
            .expect("serving run failed")
            .snapshot
            .to_bytes()
    };
    assert_eq!(
        run(BatchPolicy::none()),
        run(BatchPolicy::new(1, SimTime::ZERO))
    );
}

#[test]
fn external_recorder_sees_the_same_metrics_the_report_carries() {
    let registry = Arc::new(MetricsRegistry::new());
    let load = OfferedLoad::new(150.0, SimTime::from_secs(3.0)).seed(6);
    let report = Server::new(ServeConfig::default())
        .model(cnn_spec())
        .batching(BatchPolicy::new(4, SimTime::from_millis(1.0)))
        .recorder(Arc::clone(&registry))
        .run(&load)
        .expect("serving run failed");
    assert_eq!(registry.snapshot().to_bytes(), report.snapshot.to_bytes());
    // Quantile extraction works straight off the merged registry.
    let p99 = registry
        .snapshot()
        .quantile("serve.request.latency{model=covidnet}", 0.99)
        .expect("latency histogram must exist");
    assert!(p99 > 0.0);
}

#[test]
fn pool_lanes_and_serial_scope_serve_equal_reports_and_snapshots() {
    let _ = rayon::init_with_threads(4);
    let load = OfferedLoad::new(300.0, SimTime::from_secs(2.0)).seed(11);
    let run = || {
        // Every launched batch runs a real forward, so each lane has work.
        let cfg = ServeConfig {
            executed_batches: 10_000,
            ..ServeConfig::default()
        };
        Server::new(cfg)
            .model(cnn_spec())
            .placement(ModuleKind::Booster)
            .batching(BatchPolicy::new(8, SimTime::from_millis(1.0)))
            .model(gru_spec())
            .placement(ModuleKind::DataAnalytics)
            .batching(BatchPolicy::new(16, SimTime::from_millis(2.0)))
            .admission(AdmissionPolicy::interactive())
            .run(&load)
            .expect("serving run failed")
    };
    let pooled = run();
    let serial = rayon::serial_scope(run);
    assert!(pooled
        .endpoints
        .iter()
        .all(|e| e.executed_batches == e.batches && e.executed_requests == e.completed));
    assert_eq!(pooled.endpoints, serial.endpoints);
    assert_eq!(pooled.snapshot.to_bytes(), serial.snapshot.to_bytes());
}
