//! Serving: the other half of the paper's modular workflow — a model
//! trained on the Booster serves interactive users from the module
//! whose hardware fits it (E12, "train here, infer there").
//!
//! Deploys a COVID-Net-style CNN on the ESB and a GRU imputer on the
//! DAM, drives both with a seeded open-loop arrival stream, and sweeps
//! the dynamic-batching policy to show the measured tradeoff: bigger
//! batches buy throughput, saturation pushes p99 up to (and the
//! admission controller pins it near) the interactive SLO.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use msa_suite::msa_core::module::ModuleKind;
use msa_suite::msa_core::system::presets;
use msa_suite::msa_core::SimTime;
use msa_suite::msa_sched::AdmissionPolicy;
use msa_suite::msa_serve::{BatchPolicy, ModelSpec, OfferedLoad, ServeConfig, Server};
use msa_suite::nn::{models, serialize};
use msa_suite::tensor::Rng;

/// "Train here": produce a snapshot the serving tier will load. A real
/// deployment would read the bytes `Trainer` checkpointed; the format
/// is the same MSNN v3 either way.
fn snapshot_of(train_seed: u64, build: impl Fn(&mut Rng) -> msa_suite::nn::Sequential) -> Vec<u8> {
    let mut rng = Rng::seed(train_seed);
    serialize::save(&build(&mut rng))
}

fn main() {
    let system = presets::deep();

    let cnn_bytes = snapshot_of(0xc0d1d, |rng| models::covidnet_lite(1, 3, rng));
    let gru_bytes = snapshot_of(0x6272, |rng| models::gru_imputer(6, rng));

    println!("policy    offered_rps  model        done   shed  mean_batch    p50_ms    p99_ms  util");
    for (pname, policy) in [
        ("batch1", BatchPolicy::none()),
        ("batch8", BatchPolicy::new(8, SimTime::from_millis(1.0))),
        ("batch32", BatchPolicy::new(32, SimTime::from_millis(2.0))),
    ] {
        for rps in [150.0, 600.0, 1200.0] {
            let load = OfferedLoad::new(rps, SimTime::from_secs(20.0)).users(2_000_000);

            // "Infer there": CNN on the Booster's accelerators, the
            // memory-hungry GRU on the Data Analytics Module.
            let mut cnn_arch = Rng::seed(1);
            let mut gru_arch = Rng::seed(2);
            let report = Server::new(ServeConfig::new(system.clone()))
                .model(
                    ModelSpec::new(
                        "covidnet",
                        models::covidnet_lite(1, 3, &mut cnn_arch),
                        cnn_bytes.clone(),
                        &[1, 32, 32],
                    )
                    .flops_per_request(flops_for(&system, ModuleKind::Booster))
                    .launch_overhead(SimTime::from_millis(5.0)),
                )
                .placement(ModuleKind::Booster)
                .batching(policy)
                .model(
                    ModelSpec::new(
                        "gru-imputer",
                        models::gru_imputer(6, &mut gru_arch),
                        gru_bytes.clone(),
                        &[24, 6],
                    )
                    .flops_per_request(flops_for(&system, ModuleKind::DataAnalytics))
                    .launch_overhead(SimTime::from_millis(5.0)),
                )
                .placement(ModuleKind::DataAnalytics)
                .batching(policy)
                .admission(AdmissionPolicy::interactive())
                .run(&load)
                .expect("serving run failed");

            for ep in &report.endpoints {
                println!(
                    "{pname:<9} {rps:>11.0}  {:<12} {:>5} {:>6}  {:>10.2}  {:>8.1}  {:>8.1}  {:>4.0}%",
                    ep.model,
                    ep.completed,
                    ep.shed,
                    ep.mean_batch,
                    ep.p50_s * 1e3,
                    ep.p99_s * 1e3,
                    ep.utilization * 100.0,
                );
            }
        }
    }
    println!();
    println!(
        "batch1 saturates first (one request per launch overhead); batch32 rides the same \
         offered load with ~32x fewer launches; at saturation the admission controller sheds \
         instead of queueing, so p99 pins near the {}s interactive SLO.",
        AdmissionPolicy::interactive().slo.as_secs()
    );
}

/// Sizes a request so one inference costs ~1 ms of the placed module's
/// accelerator time — the same pricing rule the `serve` bench grid uses.
fn flops_for(system: &msa_suite::msa_core::system::MsaSystem, kind: ModuleKind) -> f64 {
    let module = system
        .module_of_kind(kind)
        .expect("preset has every module kind");
    1e-3 * module.node.dl_tflops() * 1e12
}
