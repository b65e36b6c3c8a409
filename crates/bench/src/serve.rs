//! PR-8 serving benchmark (`experiments serve` → `BENCH_pr8.json`).
//!
//! Drives the `msa-serve` inference tier over a grid of
//! **3 batching policies × 4 offered loads**, each cell deploying both
//! paper models at once — the COVIDNet-style CNN on the ESB and the GRU
//! vital-sign imputer on the DAM — behind
//! [`AdmissionPolicy::interactive`]. Per-request FLOP costs are sized
//! so one request costs ~1 ms on its placed module with a 5 ms batch
//! launch overhead, which puts the three policies at ~167 / ~615 /
//! ~865 req/s capacity: the load sweep crosses every capacity, so the
//! artifact shows the whole throughput/latency tradeoff —
//!
//! * `larger_batch_higher_throughput` — at the top load, bigger
//!   `max_batch` strictly admits (and therefore completes) more;
//! * `saturation_raises_p99` — every policy's p99 at the top load is
//!   more than 10× its p99 at the lightest load (off-peak
//!   milliseconds vs SLO-bounded seconds);
//! * `admission_bounds_latency` — shedding keeps even saturated p99
//!   under the 10 s SLO plus one batch (the whole point of pricing
//!   admission on predicted wait).
//!
//! Latencies are integer-picosecond event times read back through
//! `msa-obs` histogram quantiles and emitted as integer microseconds, so
//! two runs of the subcommand produce byte-identical files.

use msa_core::module::ModuleKind;
use msa_core::system::presets;
use msa_core::SimTime;
use msa_obs::json::{check, Contracts, Obj};
use msa_sched::AdmissionPolicy;
use msa_serve::{BatchPolicy, EndpointReport, ModelSpec, OfferedLoad, ServeConfig, Server};
use nn::models;
use nn::serialize;
use tensor::Rng;

use crate::pin_pool;
use crate::report::Report;

/// Offered-load sweep in requests/s (shared by every policy so the
/// arrival streams are identical across policies at each level).
const LOADS_RPS: [f64; 4] = [100.0, 250.0, 600.0, 1200.0];

/// Simulated user population ("millions of users" per the serving
/// story; user ids only tag requests, so the size is free).
const USERS: u64 = 2_000_000;

/// One seed for the whole artifact; endpoints fold their name in.
const SEED: u64 = 0x5e7e_2021;

/// Length of each cell's arrival window.
const DURATION_S: f64 = 60.0;

fn policies() -> [(&'static str, BatchPolicy); 3] {
    [
        ("batch1", BatchPolicy::none()),
        ("batch8", BatchPolicy::new(8, SimTime::from_millis(1.0))),
        ("batch32", BatchPolicy::new(32, SimTime::from_millis(2.0))),
    ]
}

/// FLOPs that cost `target_s` seconds on a module's node at peak DL
/// throughput (`dl_tflops` is TFLOP/s = 1e12 FLOP/s).
fn flops_for(system: &msa_core::MsaSystem, kind: ModuleKind, target_s: f64) -> f64 {
    let module = system
        .module_of_kind(kind)
        .unwrap_or_else(|| panic!("preset system lacks a {} module", kind.code()));
    target_s * module.node.dl_tflops() * 1e12
}

fn cnn_spec(system: &msa_core::MsaSystem) -> ModelSpec {
    // Same fixed init twice: once to snapshot "trained" weights, once
    // as the architecture the server decodes them into.
    let mut rng = Rng::seed(0xc0d1d);
    let trained = models::covidnet_lite(1, 3, &mut rng);
    let bytes = serialize::save(&trained);
    let mut fresh = Rng::seed(1);
    let arch = models::covidnet_lite(1, 3, &mut fresh);
    ModelSpec::new("covidnet", arch, bytes, &[1, 32, 32])
        .flops_per_request(flops_for(system, ModuleKind::Booster, 1e-3))
        .launch_overhead(SimTime::from_millis(5.0))
}

fn gru_spec(system: &msa_core::MsaSystem) -> ModelSpec {
    let mut rng = Rng::seed(0x6272);
    let trained = models::gru_imputer(6, &mut rng);
    let bytes = serialize::save(&trained);
    let mut fresh = Rng::seed(2);
    let arch = models::gru_imputer(6, &mut fresh);
    ModelSpec::new("gru-imputer", arch, bytes, &[24, 6])
        .flops_per_request(flops_for(system, ModuleKind::DataAnalytics, 1e-3))
        .launch_overhead(SimTime::from_millis(5.0))
}

fn endpoint_row(ep: &EndpointReport) -> Obj {
    let milli = |v: f64| (v * 1e3).round() as u64;
    Obj::new()
        .text("model", &ep.model)
        .text("module", ep.module)
        .field("arrivals", ep.arrivals)
        .field("admitted", ep.admitted)
        .field("shed", ep.shed)
        .field("completed", ep.completed)
        .field("batches", ep.batches)
        .field("mean_batch_milli", milli(ep.mean_batch))
        .field("p50_us", (ep.p50_s * 1e6).round() as u64)
        .field("p99_us", (ep.p99_s * 1e6).round() as u64)
        .field("throughput_rps_milli", milli(ep.throughput_rps))
        .field("utilization_milli", milli(ep.utilization))
        .field("max_queue_depth", ep.max_queue_depth)
        .field("executed_batches", ep.executed_batches)
        .field("executed_requests", ep.executed_requests)
}

/// The full serving grid report.
pub fn serve_report() -> Report {
    pin_pool();
    let duration = SimTime::from_secs(DURATION_S);
    let system = presets::deep();
    let slo = AdmissionPolicy::interactive();

    // cells[policy][load] = per-endpoint reports.
    let mut cells: Vec<Vec<Vec<EndpointReport>>> = Vec::new();
    for (pname, policy) in policies() {
        let mut per_load = Vec::new();
        for rps in LOADS_RPS {
            let load = OfferedLoad::new(rps, duration).users(USERS).seed(SEED);
            let mut cfg = ServeConfig::new(system.clone());
            cfg.executed_batches = 2;
            let report = Server::new(cfg)
                .model(cnn_spec(&system))
                .placement(ModuleKind::Booster)
                .batching(policy)
                .model(gru_spec(&system))
                .placement(ModuleKind::DataAnalytics)
                .batching(policy)
                .admission(slo)
                .tag(format!("{pname}-{rps}rps"))
                .run(&load)
                .unwrap_or_else(|e| panic!("serving cell {pname}@{rps}rps failed: {e}"));
            per_load.push(report.endpoints);
        }
        cells.push(per_load);
    }

    // Contract flags, computed from the same numbers the JSON carries.
    let mut c = Contracts::new();
    let top = LOADS_RPS.len() - 1;
    let completed_at_top: Vec<u64> = cells
        .iter()
        .map(|per_load| per_load[top].iter().map(|e| e.completed).sum())
        .collect();
    let larger_batch_higher_throughput = completed_at_top.windows(2).all(|w| w[1] > w[0]);
    let saturation_raises_p99 = cells.iter().all(|per_load| {
        per_load[0]
            .iter()
            .zip(per_load[top].iter())
            .all(|(lo, hi)| hi.p99_s > 10.0 * lo.p99_s && lo.p99_s > 0.0)
    });
    // SLO-priced admission: even saturated, p99 stays under the 10 s
    // SLO plus one worst-case batch (delay + launch + 32 requests).
    let bound_s = slo.slo.as_secs() + 1.0;
    let admission_bounds_latency = cells.iter().flatten().flatten().all(|e| e.p99_s < bound_s);
    let empty_latency_histograms = cells
        .iter()
        .flatten()
        .flatten()
        .filter(|e| e.completed == 0)
        .count();
    check(
        &mut c,
        "no_empty_latency_histograms",
        empty_latency_histograms == 0,
    );

    let policy_rows = policies()
        .into_iter()
        .zip(&cells)
        .map(|((pname, policy), per_load)| {
            let loads = LOADS_RPS.iter().zip(per_load).map(|(rps, endpoints)| {
                Obj::new()
                    .field("offered_rps", *rps as u64)
                    .rows("endpoints", endpoints.iter().map(endpoint_row))
            });
            Obj::new()
                .text("policy", pname)
                .field("max_batch", policy.max_batch)
                .field(
                    "max_delay_us",
                    (policy.max_delay.as_secs() * 1e6).round() as u64,
                )
                .rows("loads", loads)
        });
    let json = Obj::new()
        .text("schema", "msa-serve-bench-v1")
        // The grid once had a smoke size; the field stays for the schema.
        .field("fast", false)
        .field("duration_s", DURATION_S as u64)
        .field("users", USERS)
        .field("slo_s", 10)
        .rows("policies", policy_rows)
        .flag(
            &mut c,
            "larger_batch_higher_throughput",
            larger_batch_higher_throughput,
        )
        .flag(&mut c, "saturation_raises_p99", saturation_raises_p99)
        .flag(&mut c, "admission_bounds_latency", admission_bounds_latency)
        .field("empty_latency_histograms", empty_latency_histograms)
        .doc();
    Report {
        bodies: vec![json],
        counters: None,
        contracts: c,
    }
}

#[cfg(test)]
mod tests {
    use crate::artifacts::{self, assert_contracts_hold};

    #[test]
    fn serve_report_is_deterministic_and_contract_flags_hold() {
        let a = artifacts::serve();
        assert_contracts_hold(a, &[]);
        let j1 = &a.bodies[0];
        assert!(j1.contains("\"empty_latency_histograms\": 0"), "{j1}");
        assert!(j1.contains("\"module\": \"ESB\"") && j1.contains("\"module\": \"DAM\""));
        // Every cell carries real executed batches.
        assert!(!j1.contains("\"executed_batches\": 0,"), "{j1}");
    }
}
