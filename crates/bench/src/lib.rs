//! Experiment harness: regenerates every quantitative artifact of the
//! paper (see `DESIGN.md` §4 for the experiment index E1–E14 and
//! `EXPERIMENTS.md` for the paper-vs-measured record).
//!
//! Each function returns its report as a `String` so integration tests
//! can assert on the numbers; the `experiments` binary prints them.
//! Kernel timings have one home, the `timings` section of
//! [`kernels::kernel_report`], all of them taken with `min_ns`.

pub mod codec;
pub mod comm;
pub mod kernels;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod tune;

use std::fmt::Write as _;
use std::time::Instant;

use data::bigearth::{self, spectral_features, BigEarthConfig};
use data::cxr::{self, CxrConfig};
use data::icu::{self, IcuConfig, SPO2};
use distrib::{
    evaluate_classifier, CheckpointPolicy, MlCampaign, ScalingModel, TrainConfig, TrainReport,
    Trainer,
};
use hpda::tier::TierModel;
use hpda::Pdata;
use ml::svm::{cascade_svm, Kernel, Svm, SvmConfig};
use msa_core::hw::catalog;
use msa_core::report::{affinity_matrix, affinity_report, module_spec_table, system_inventory};
use msa_core::system::presets;
use msa_core::ModuleKind;
use msa_net::{CollectiveAlgo, LinkParams};
use msa_sched::{
    compare_architectures, compare_interactive, generate_trace, interactive_sessions,
    MsaPlacement, TraceConfig,
};
use msa_storage::{
    simulate_failures, ArchiveLink, CheckpointTarget, Nam, StagingPlan, YoungDaly,
};
use nn::{models, Adam, Dense, Layer, MaskedMae, Optimizer, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
use qa::{train_ensemble, AnnealerSpec, QsvmConfig};
use tensor::{Rng, Tensor};

/// Runs one experiment by id (`"e1"`…`"e14"`) or `"all"`.
pub fn run(which: &str) -> String {
    match which {
        "e1" => e1_system_tables(),
        "e2" => e2_affinity(),
        "e3" => e3_scaling(),
        "e4" => e4_cascade_svm(),
        "e5" => e5_gru_imputation(),
        "e6" => e6_covidnet_generations(),
        "e7" => e7_qsvm(),
        "e8" => e8_gce_collectives(),
        "e9" => e9_nam_staging(),
        "e10" => e10_dam_memory(),
        "e11" => e11_scheduler(),
        "e12" => e12_modular_workflow(),
        "e13" => e13_checkpoint_restart(),
        "e14" => e14_interactive(),
        "all" => {
            let mut out = String::new();
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
                "e12", "e13", "e14",
            ] {
                let _ = writeln!(out, "{}", run(id));
            }
            out
        }
        other => format!("unknown experiment '{other}' (use e1..e14 or all)\n"),
    }
}

fn header(id: &str, title: &str) -> String {
    format!("==== {id}: {title} ====\n")
}

/// E1 — Table I and the §II-B system inventories.
pub fn e1_system_tables() -> String {
    let mut out = header("E1", "Table I + system inventories (paper §II-B)");
    let deep = presets::deep();
    // lint: allow(unwrap) -- preset invariant: DEEP statically defines a DAM module
    let dam = deep.module_of_kind(ModuleKind::DataAnalytics).expect("DEEP preset has a DAM");
    out.push_str(&module_spec_table(dam));
    out.push('\n');
    out.push_str(&system_inventory(&deep));
    out.push('\n');
    out.push_str(&system_inventory(&presets::juwels()));
    out
}

/// E2 — Fig. 2 workload/module affinity.
pub fn e2_affinity() -> String {
    let mut out = header("E2", "workload/module affinity (paper Fig. 2)");
    let deep = presets::deep();
    out.push_str(&affinity_report(&deep, 64));
    let rows = affinity_matrix(&deep, 64);
    let matched = rows.iter().filter(|r| r.matches_design).count();
    let _ = writeln!(
        out,
        "{matched}/{} workload classes land on the module the MSA intends",
        rows.len()
    );
    out
}

/// E3 — distributed ResNet training: real thread-scale accuracy
/// invariance + projected JUWELS scaling to 128 GPUs (Fig. 3 inset,
/// Sedona et al. 2019/2020).
pub fn e3_scaling() -> String {
    let mut out = header(
        "E3",
        "distributed DL training speedup & accuracy (Fig. 3 / [18],[20])",
    );

    // (a) Real execution at thread scale.
    let cfg = BigEarthConfig {
        bands: 3,
        size: 8,
        classes: 3,
        noise: 0.25,
    };
    let ds = bigearth::generate(360, &cfg, 11);
    let (train, test) = ds.split(0.25);
    let model_fn = |seed: u64| {
        let mut rng = Rng::seed(seed);
        models::resnet_mini(3, 3, 8, 1, &mut rng)
    };
    let _ = writeln!(out, "(a) real data-parallel training, thread-scale:");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>10}",
        "workers", "wall [s]", "final loss", "accuracy"
    );
    for workers in [1usize, 2, 4, 8] {
        let tc = TrainConfig {
            workers,
            batch_per_worker: (32 / workers).max(1),
            base_lr: 5e-3,
            seed: 7,
            ..TrainConfig::default()
        };
        let rep = run_trainer(Trainer::new(tc.clone()), &train, model_fn, |lr| {
            Box::new(Adam::new(lr))
        });
        let acc = evaluate_classifier(model_fn, tc.seed, &rep, &test);
        let _ = writeln!(
            out,
            "{workers:>8} {:>10.2} {:>12.4} {:>9.1}%",
            rep.wall_secs,
            rep.epochs.last().map_or(f32::NAN, |e| e.mean_loss),
            acc * 100.0
        );
    }

    // (b) Projected scaling on the JUWELS systems.
    for (name, gpu, link) in [
        (
            "JUWELS cluster V100 / EDR (Sedona 2019, 96 GPUs)",
            catalog::v100(),
            LinkParams::infiniband_edr(),
        ),
        (
            "JUWELS booster A100 / 4xHDR200 (Sedona 2020, 128 GPUs)",
            catalog::a100(),
            LinkParams::infiniband_hdr200x4(),
        ),
    ] {
        let m = ScalingModel::resnet50(gpu, link);
        let _ = writeln!(out, "\n(b) projected ResNet-50 scaling: {name}");
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>10} {:>11}",
            "GPUs", "epoch", "speedup", "efficiency"
        );
        for p in m.curve(&[1, 2, 4, 8, 16, 32, 64, 96, 128]) {
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>10.1} {:>10.1}%",
                p.gpus,
                format!("{}", p.epoch_time),
                p.speedup,
                p.efficiency * 100.0
            );
        }
        let t1 = m.epoch_time(1) * 100.0;
        let t96 = m.epoch_time(96) * 100.0;
        let _ = writeln!(
            out,
            "100-epoch training: {} on 1 GPU -> {} on 96 GPUs",
            t1, t96
        );
    }
    out
}

/// E4 — parallel cascade SVM on CPUs (paper §III, \[16\]).
pub fn e4_cascade_svm() -> String {
    let mut out = header("E4", "parallel cascade SVM (paper §III / [16])");
    // Small patches + heavy noise so the task is non-trivial (the point
    // is the cascade's cost/quality trade-off, not a saturated score).
    let cfg = BigEarthConfig {
        bands: 4,
        size: 4,
        classes: 2,
        noise: 3.0,
    };
    // One generation, held-out tail: the class signatures are seed-bound,
    // so train and test must come from the same generated cohort.
    let ds = bigearth::generate(2600, &cfg, 17);
    let (all_feats, all_labels) = spectral_features(&ds);
    let to_pm1 = |l: &f32| if *l == 0.0 { 1.0f32 } else { -1.0 };
    let feats = all_feats[..2000].to_vec();
    let ys: Vec<f32> = all_labels[..2000].iter().map(to_pm1).collect();
    let tf = all_feats[2000..].to_vec();
    let tys: Vec<f32> = all_labels[2000..].iter().map(to_pm1).collect();
    let svm_cfg = SvmConfig {
        kernel: Kernel::Rbf { gamma: 1.0 },
        max_iters: 150,
        ..Default::default()
    };

    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>10} {:>10}",
        "partitions", "train [s]", "accuracy", "final SVs"
    );
    let t0 = Instant::now();
    let full = Svm::train(&feats, &ys, &svm_cfg);
    let t_full = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "{:>12} {:>12.3} {:>9.1}% {:>10}",
        "full SMO",
        t_full,
        full.accuracy(&tf, &tys) * 100.0,
        full.n_support()
    );
    for parts in [2usize, 4, 8, 16] {
        let t0 = Instant::now();
        let rep = cascade_svm(&feats, &ys, parts, &svm_cfg);
        let dt = t0.elapsed().as_secs_f64();
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>9.1}% {:>10}",
            parts,
            dt,
            rep.model.accuracy(&tf, &tys) * 100.0,
            rep.model.n_support()
        );
    }
    out
}

/// E5 — GRU imputation of ICU time series (paper §IV-B).
pub fn e5_gru_imputation() -> String {
    let mut out = header("E5", "GRU imputation of ICU series (paper §IV-B)");
    let cohort = icu::generate(60, &IcuConfig::default(), 2021);
    let task = icu::imputation_task(&cohort, SPO2, 0.3, 7);
    let _ = writeln!(
        out,
        "cohort 60 patients x 48 steps, {} hidden SpO2 entries",
        task.eval_mask.sum() as usize
    );

    // Mean-fill baseline.
    let (n, t) = (task.inputs.shape()[0], task.inputs.shape()[1]);
    let mut obs_sum = 0.0;
    let mut obs_cnt = 0.0;
    for i in 0..n {
        for tt in 0..t {
            if task.inputs.at(&[i, tt, icu::FEATURES + SPO2]) == 1.0 {
                obs_sum += task.inputs.at(&[i, tt, SPO2]);
                obs_cnt += 1.0;
            }
        }
    }
    let mean_pred = Tensor::full(task.targets.shape(), obs_sum / obs_cnt);
    let (mae_mean, _) = MaskedMae.compute_masked(&mean_pred, &task.targets, &task.eval_mask);

    // GRU(32)x2 + Dense(1), MAE, Adam (paper config, higher lr for the
    // short synthetic run).
    let mut rng = Rng::seed(5);
    let mut gru = models::gru_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    let mut curve = Vec::new();
    for epoch in 0..60 {
        gru.zero_grad();
        let pred = gru.forward(&task.inputs, true);
        let (l, grad) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);
        gru.backward(&grad);
        opt.step(&mut gru.params_mut());
        if epoch % 15 == 0 {
            curve.push((epoch, l));
        }
    }
    let pred = gru.predict(&task.inputs);
    let (mae_gru, _) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);

    // 1D-CNN comparison (N, F, T).
    let transpose = |x: &Tensor| {
        let (n, t, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let mut o = Tensor::zeros(&[n, f, t]);
        for i in 0..n {
            for tt in 0..t {
                for ff in 0..f {
                    *o.at_mut(&[i, ff, tt]) = x.at(&[i, tt, ff]);
                }
            }
        }
        o
    };
    let (cx, cy, cm) = (
        transpose(&task.inputs),
        transpose(&task.targets),
        transpose(&task.eval_mask),
    );
    let mut cnn = models::cnn1d_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    for _ in 0..60 {
        cnn.zero_grad();
        let pred = cnn.forward(&cx, true);
        let (_, grad) = MaskedMae.compute_masked(&pred, &cy, &cm);
        cnn.backward(&grad);
        opt.step(&mut cnn.params_mut());
    }
    let pred = cnn.predict(&cx);
    let (mae_cnn, _) = MaskedMae.compute_masked(&pred, &cy, &cm);

    // LSTM comparison (same recipe, 4-gate recurrence).
    let mut lstm = models::lstm_imputer(2 * icu::FEATURES, &mut rng);
    let mut opt = Adam::new(1e-3);
    for _ in 0..60 {
        lstm.zero_grad();
        let pred = lstm.forward(&task.inputs, true);
        let (_, grad) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);
        lstm.backward(&grad);
        opt.step(&mut lstm.params_mut());
    }
    let pred = lstm.predict(&task.inputs);
    let (mae_lstm, _) = MaskedMae.compute_masked(&pred, &task.targets, &task.eval_mask);

    let _ = writeln!(out, "{:>24} {:>10}", "model", "MAE");
    let _ = writeln!(out, "{:>24} {:>10.4}", "mean-fill baseline", mae_mean);
    let _ = writeln!(out, "{:>24} {:>10.4}", "GRU(32)x2 + Dense(1)", mae_gru);
    let _ = writeln!(out, "{:>24} {:>10.4}", "LSTM(32)x2 + Dense(1)", mae_lstm);
    let _ = writeln!(out, "{:>24} {:>10.4}", "1D-CNN", mae_cnn);
    let _ = writeln!(out, "GRU training curve (epoch, masked MAE): {curve:?}");
    out
}

/// E6 — COVID-Net on V100 vs A100 (paper §IV-A).
pub fn e6_covidnet_generations() -> String {
    let mut out = header("E6", "COVID-Net CXR screening, V100 vs A100 (paper §IV-A)");
    let ds = cxr::generate(
        240,
        &CxrConfig {
            size: 24,
            noise: 0.1,
        },
        2020,
    );
    let (train, test) = ds.split(0.25);
    let model_fn = |seed: u64| {
        let mut rng = Rng::seed(seed);
        models::covidnet_lite(1, 3, &mut rng)
    };
    let tc = TrainConfig {
        workers: 2,
        epochs: 8,
        batch_per_worker: 15,
        base_lr: 2e-3,
        seed: 3,
        ..TrainConfig::default()
    };
    let rep = run_trainer(Trainer::new(tc.clone()), &train, model_fn, |lr| {
        Box::new(Adam::new(lr))
    });
    let acc = evaluate_classifier(model_fn, tc.seed, &rep, &test);
    let _ = writeln!(
        out,
        "real training: 3-way CXR accuracy {:.1}% (chance 33.3%)",
        acc * 100.0
    );

    let mut v100 = ScalingModel::resnet50(catalog::v100(), LinkParams::infiniband_edr());
    let mut a100 = ScalingModel::resnet50(catalog::a100(), LinkParams::infiniband_hdr200x4());
    for m in [&mut v100, &mut a100] {
        m.dataset_samples = 13_975; // COVIDx scale
        m.flops_per_sample = 3.0e9;
        m.batch_per_gpu = 32;
    }
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>20}",
        "GPU", "epoch (1 GPU)", "inference [img/s]"
    );
    for (name, m) in [("V100", &v100), ("A100", &a100)] {
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>20.0}",
            name,
            format!("{}", m.epoch_time(1)),
            m.inference_throughput()
        );
    }
    let _ = writeln!(
        out,
        "A100 generation speedup: {:.2}x training, {:.2}x inference",
        v100.epoch_time(1) / a100.epoch_time(1),
        a100.inference_throughput() / v100.inference_throughput()
    );
    out
}

/// E7 — QSVM ensembles on the annealer (paper §III-C, \[11\]).
pub fn e7_qsvm() -> String {
    let mut out = header("E7", "quantum-annealer SVM ensembles (paper §III-C / [11])");
    let cfg = BigEarthConfig {
        bands: 4,
        size: 4,
        classes: 2,
        noise: 3.0,
    };
    // Same-seed cohort, held-out tail (class signatures are seed-bound).
    let ds = bigearth::generate(500, &cfg, 31);
    let (all_feats, all_labels) = spectral_features(&ds);
    let to_pm1 = |l: &f32| if *l == 0.0 { 1.0f32 } else { -1.0 };
    let feats = all_feats[..300].to_vec();
    let ys: Vec<f32> = all_labels[..300].iter().map(to_pm1).collect();
    let tf = all_feats[300..].to_vec();
    let tys: Vec<f32> = all_labels[300..].iter().map(to_pm1).collect();

    let svm_cfg = SvmConfig {
        kernel: Kernel::Rbf { gamma: 1.0 },
        ..Default::default()
    };
    let classical = Svm::train(&feats, &ys, &svm_cfg);
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>9}",
        "method", "subsample", "members", "accuracy"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>8.1}%",
        "classical SMO (full data)",
        feats.len(),
        1,
        classical.accuracy(&tf, &tys) * 100.0
    );
    let qcfg = QsvmConfig {
        kernel: Kernel::Rbf { gamma: 1.0 },
        ..Default::default()
    };
    for device in [AnnealerSpec::dwave_2000q(), AnnealerSpec::dwave_advantage()] {
        for members in [1usize, 5] {
            let ens = train_ensemble(&feats, &ys, members, &device, &qcfg, 3);
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>8.1}%",
                device.name,
                ens.subsample,
                members,
                ens.accuracy(&tf, &tys) * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "(annealer = simulated annealing surrogate; budgets: 2000Q {} qubits / {} couplers, Advantage {} / {})",
        AnnealerSpec::dwave_2000q().qubits,
        AnnealerSpec::dwave_2000q().couplers,
        AnnealerSpec::dwave_advantage().qubits,
        AnnealerSpec::dwave_advantage().couplers
    );
    out
}

/// E8 — FPGA Global Collective Engine vs software collectives (§II-A).
pub fn e8_gce_collectives() -> String {
    let mut out = header("E8", "GCE-offloaded vs software allreduce (paper §II-A)");
    let link = LinkParams::extoll();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "nodes", "bytes", "ring", "recdoubl", "bintree", "pipeline", "hier(4/node)", "GCE", "GCE win"
    );
    for &p in &[8usize, 32, 128, 512] {
        for &bytes in &[4.0e3, 1.0e6, 1.0e8] {
            // The software columns, hierarchical last, feed the "best
            // software" baseline the GCE is compared against.
            let hier = CollectiveAlgo::Hierarchical { ranks_per_node: 4 };
            let sw: Vec<f64> = CollectiveAlgo::software()
                .into_iter()
                .chain([hier])
                .map(|a| a.allreduce_time(p, bytes, link).as_micros())
                .collect();
            let gce = CollectiveAlgo::GceOffload.allreduce_time(p, bytes, link).as_micros();
            let best_sw = sw.iter().cloned().fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10.1}us {:>10.1}us {:>10.1}us {:>10.1}us {:>10.1}us {:>10.1}us {:>8.2}x",
                p,
                bytes as u64,
                sw[0],
                sw[1],
                sw[2],
                sw[3],
                sw[4],
                gce,
                best_sw / gce
            );
        }
    }
    out
}

/// E9 — NAM dataset sharing vs duplicate downloads (§II-A).
pub fn e9_nam_staging() -> String {
    let mut out = header("E9", "NAM shared staging vs duplicate downloads (paper §II-A)");
    let archive = ArchiveLink::site_uplink();
    let nam = Nam::deep_prototype();
    let _ = writeln!(
        out,
        "{:>7} {:>16} {:>14} {:>10} {:>16}",
        "nodes", "duplicate", "NAM-shared", "speedup", "WAN saved [GiB]"
    );
    for nodes in [1usize, 4, 16, 64, 256] {
        let Ok((dup, shared)) = StagingPlan::compare(100.0, nodes, &archive, &nam, 12.5) else {
            let _ = writeln!(out, "{:>7} dataset exceeds NAM capacity — skipped", nodes);
            continue;
        };
        let _ = writeln!(
            out,
            "{:>7} {:>16} {:>14} {:>9.1}x {:>16.0}",
            nodes,
            format!("{}", dup.time),
            format!("{}", shared.time),
            dup.time / shared.time,
            dup.wan_traffic_gib - shared.wan_traffic_gib
        );
    }
    out
}

/// E10 — Spark-class analytics on DAM memory tiers (§III-B).
pub fn e10_dam_memory() -> String {
    let mut out = header("E10", "analytics on DAM memory tiers (paper §III-B)");
    let dam = TierModel::from_node(&catalog::deep_dam_node());
    let cm = TierModel::from_node(&catalog::juwels_cluster_node());
    let _ = writeln!(
        out,
        "{:>14} {:>18} {:>18}",
        "working set", "DAM eff. BW", "CPU-node eff. BW"
    );
    for ws in [50.0, 200.0, 384.0, 800.0, 1600.0, 3200.0] {
        let _ = writeln!(
            out,
            "{:>11} GiB {:>13.1} GB/s {:>13.1} GB/s",
            ws,
            dam.effective_bw(ws),
            cm.effective_bw(ws)
        );
    }

    // A real map-reduce pipeline on the engine: per-class spectral stats.
    let ds = bigearth::generate(
        600,
        &BigEarthConfig {
            bands: 4,
            size: 16,
            classes: 5,
            noise: 0.3,
        },
        41,
    );
    let (feats, labels) = spectral_features(&ds);
    let pairs: Vec<(u32, Vec<f32>)> = labels
        .iter()
        .zip(&feats)
        .map(|(&l, f)| (l as u32, f.clone()))
        .collect();
    let t0 = Instant::now();
    let rdd = Pdata::from_vec(pairs, 16);
    let sums = rdd
        .map(|(k, v)| (*k, (v.clone(), 1u32)))
        .reduce_by_key(|(mut acc, n), (v, m)| {
            for (a, b) in acc.iter_mut().zip(v) {
                *a += b;
            }
            (acc, n + m)
        });
    let stats = sums.collect();
    let dt = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        out,
        "\nmap-reduce per-class spectral means over 600 patches, 16 partitions: {:.1} ms, {} classes",
        dt * 1e3,
        stats.len()
    );
    out
}

/// E11 — heterogeneous scheduling: MSA vs monolithic (conclusions).
pub fn e11_scheduler() -> String {
    let mut out = header(
        "E11",
        "scheduling heterogeneous workloads: MSA vs monolithic (conclusions)",
    );
    let deep = presets::deep();
    // Enough load to saturate both machines: the comparison then measures
    // architecture throughput-per-watt, not idle burn.
    let cfg = TraceConfig {
        jobs: 120,
        mean_interarrival_s: 2.0,
        scale: 30.0,
        max_nodes: 16,
        ..Default::default()
    };
    let result = compare_architectures(&deep, &cfg);
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>11}",
        "architecture", "makespan", "mean wait", "energy", "backfilled"
    );
    for (name, rep) in [
        ("MSA (DEEP)", &result.msa),
        ("monolithic", &result.monolithic),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>9.2} kWh {:>11}",
            name,
            format!("{}", rep.makespan),
            format!("{}", rep.mean_wait),
            rep.total_energy_kwh,
            rep.backfilled
        );
    }
    let _ = writeln!(
        out,
        "MSA advantage: {:.2}x makespan, {:.2}x energy",
        result.makespan_ratio(),
        result.energy_ratio()
    );
    out
}

/// E12 — modular ML workflow: train on one module, scale inference out
/// on another (paper §II-A's explicit ML use case).
pub fn e12_modular_workflow() -> String {
    let mut out = header(
        "E12",
        "modular workflow: train here, scale inference out there (paper §II-A)",
    );
    let deep = presets::deep();
    let dam = deep.module_of_kind(ModuleKind::DataAnalytics).expect("DEEP preset has a DAM"); // lint: allow(unwrap) -- preset invariant: DEEP defines DAM and ESB
    let esb = deep.module_of_kind(ModuleKind::Booster).expect("DEEP preset has an ESB");
    let link = deep.link(dam.id, esb.id).expect("DEEP wires DAM to ESB"); // lint: allow(unwrap) -- preset invariant: DEEP wires every module pair
    let campaign = MlCampaign::resnet50_landcover();

    let colocated = campaign.colocated(dam, 16);
    let modular = campaign.modular(dam, 16, link, esb, 75);
    let _ = writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>12} {:>12}",
        "variant", "train", "transfer", "inference", "total"
    );
    for (name, w) in [
        ("colocated on DAM (16 nodes)", &colocated),
        ("train DAM -> infer ESB (75)", &modular),
    ] {
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>12} {:>12}",
            name,
            format!("{}", w.train),
            format!("{}", w.transfer),
            format!("{}", w.inference),
            format!("{}", w.total)
        );
    }
    let _ = writeln!(
        out,
        "modular split speedup: {:.2}x end-to-end (model transfer costs {})",
        colocated.total / modular.total,
        modular.transfer
    );
    out
}

/// E13 — NAM-accelerated checkpoint/restart (\[12\], Schmidt).
pub fn e13_checkpoint_restart() -> String {
    let mut out = header(
        "E13",
        "checkpoint/restart: NAM vs parallel FS under failures ([12])",
    );
    let state_gib = 400.0;
    let nodes = 256;
    let mtbf = YoungDaly::system_mtbf(msa_core::SimTime::from_secs(2.0e6), nodes);
    let work = msa_core::SimTime::from_secs(100_000.0);
    let _ = writeln!(
        out,
        "job: {} of useful work on {nodes} nodes (system MTBF {}), {} GiB state",
        work, mtbf, state_gib
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "target", "ckpt cost", "tau*", "waste(YD)", "wall", "failures", "overhead"
    );
    for target in [CheckpointTarget::parallel_fs(), CheckpointTarget::nam()] {
        let c = target.checkpoint_cost(state_gib);
        let r = target.restart_cost(state_gib);
        let tau = YoungDaly::optimal_interval(c, mtbf);
        let waste = YoungDaly::optimal_waste(c, mtbf);
        let rep = simulate_failures(work, tau, c, r, mtbf, 2021);
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>11.1}% {:>10} {:>10} {:>9.1}%",
            target.name,
            format!("{}", c),
            format!("{}", tau),
            waste * 100.0,
            format!("{}", rep.wall),
            rep.failures,
            rep.overhead * 100.0
        );
    }
    out
}

/// E14 — interactive supercomputing: Jupyter sessions on a reserved DAM
/// vs the shared batch queue (\[3\], both case studies' user-facing layer).
pub fn e14_interactive() -> String {
    let mut out = header(
        "E14",
        "interactive (Jupyter) sessions: shared queue vs reserved DAM ([3])",
    );
    let deep = presets::deep();
    let batch = TraceConfig {
        jobs: 100,
        mean_interarrival_s: 2.0,
        scale: 30.0,
        max_nodes: 14,
        ..Default::default()
    };
    let sessions = interactive_sessions(20, 250.0, 120.0);
    let (shared, reserved) = compare_interactive(&deep, &batch, &sessions);
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>12} {:>16}",
        "scenario", "mean wait", "max wait", "<10s starts", "batch makespan"
    );
    for (name, r) in [("shared batch queue", &shared), ("reserved DAM", &reserved)] {
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>14} {:>11.0}% {:>16}",
            name,
            format!("{}", r.mean_session_wait),
            format!("{}", r.max_session_wait),
            r.within_10s * 100.0,
            format!("{}", r.batch_makespan)
        );
    }
    let _ = writeln!(
        out,
        "time-to-kernel improvement: {:.1}x mean wait",
        (shared.mean_session_wait.as_secs() + 1.0)
            / (reserved.mean_session_wait.as_secs() + 1.0)
    );
    out
}

// ---------------------------------------------------------------------------
// Fixtures shared by the report subcommands.
// ---------------------------------------------------------------------------

/// Pins the pool width every report runs at (the first caller wins), so
/// partitions, and with them every checksum and counter, do not depend
/// on the machine's core count.
pub(crate) fn pin_pool() {
    let _ = rayon::init_with_threads(4);
}

/// FNV-1a over the exact f32 bit patterns.
pub(crate) fn bits_hash(data: &[f32]) -> u64 {
    msa_core::fnv1a(data.iter().map(|v| v.to_bits()))
}

/// Same length and the same bit pattern in every element.
pub(crate) fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `base / improved` in thousandths.
pub(crate) fn speedup_milli(base: u64, improved: u64) -> u64 {
    base * 1000 / improved.max(1)
}

/// Minimum wall time of `reps` runs of `f`, in nanoseconds. The minimum
/// is the noise-robust estimator here: scheduler preemption and
/// frequency dips only ever make a run *slower*, so the fastest
/// observation is the closest to the true cost.
pub(crate) fn min_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Tiny separable dataset, fully seed-determined: feature `c` of a
/// class-`c` sample is lifted by 2 above `N(0, 0.3²)` noise.
pub(crate) fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> data::Dataset {
    let mut rng = Rng::seed(seed);
    let mut x = Vec::with_capacity(n * dim);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(classes);
        let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() * 0.3).collect();
        row[c] += 2.0;
        x.extend(row);
        y.push(c as f32);
    }
    data::Dataset {
        x: Tensor::from_vec(x, &[n, dim]),
        y: Tensor::from_vec(y, &[n]),
    }
}

/// `dim → hidden → classes` with a ReLU between, weights from the seed.
pub(crate) fn mlp(
    dim: usize,
    hidden: usize,
    classes: usize,
) -> impl Fn(u64) -> Sequential + Sync + Copy {
    move |seed| {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(dim, hidden, &mut rng))
            .push(Relu::new())
            .push(Dense::new(hidden, classes, &mut rng))
    }
}

/// SGD with momentum 0.9.
pub(crate) fn sgd(weight_decay: f32) -> impl Fn(f32) -> Box<dyn Optimizer> + Sync + Copy {
    move |lr| Box::new(Sgd::new(lr, 0.9, weight_decay))
}

/// Runs `trainer` on `ds` to the last epoch under softmax cross-entropy.
pub(crate) fn run_trainer<M, O>(
    trainer: Trainer,
    ds: &data::Dataset,
    model: M,
    opt: O,
) -> TrainReport
where
    M: Fn(u64) -> Sequential + Sync,
    O: Fn(f32) -> Box<dyn Optimizer> + Sync,
{
    trainer
        .run(ds, model, opt, SoftmaxCrossEntropy)
        // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
        .expect("no snapshot to validate")
        .completed()
}

/// The PR-3 observability artifact (`BENCH_pr3.json`): one deterministic
/// msa-obs registry covering
///
/// * real data-parallel training at p ∈ {1, 4, 8} — per-phase
///   stage/compute/allreduce/checkpoint breakdown, per-collective
///   message/byte counters and modeled wait, tagged `run=p<N>`;
/// * the EASY-backfill scheduler on a DEEP trace — makespan and
///   per-module utilization;
/// * the NAM staging planner — WAN traffic and staging time per strategy.
///
/// Everything is virtual-time priced and integer-accumulated, so two
/// calls return **byte-identical** snapshots.
pub fn obs_report() -> msa_obs::Snapshot {
    use std::sync::Arc;
    pin_pool();
    let reg = Arc::new(msa_obs::MetricsRegistry::new());

    // (a) Trainer: weak-scaling sweep with checkpoints armed.
    let ds = toy_dataset(256, 8, 4, 97);
    for workers in [1usize, 4, 8] {
        let tc = TrainConfig {
            workers,
            epochs: 2,
            batch_per_worker: 8,
            seed: 97,
            checkpoint: Some(CheckpointPolicy::every(5)),
            ..TrainConfig::default()
        };
        let trainer = Trainer::new(tc)
            .recorder(Arc::clone(&reg))
            .tag(format!("p{workers}"));
        run_trainer(trainer, &ds, mlp(8, 16, 4), sgd(0.0));
    }

    // (b) Scheduler: module utilization on a mixed DEEP trace.
    let sys = presets::deep();
    let trace = generate_trace(&TraceConfig {
        jobs: 40,
        mean_interarrival_s: 2.0,
        scale: 30.0,
        max_nodes: 12,
        ..Default::default()
    });
    let sched_rep = msa_sched::schedule(&sys, &trace, &MsaPlacement);
    sched_rep.record_into(&*reg, &sys, &[("trace", "deep40")]);

    // (c) Storage: staging traffic, duplicate vs NAM-shared.
    let archive = ArchiveLink::site_uplink();
    let nam = Nam::deep_prototype();
    for nodes in [4usize, 64] {
        let nodes_s = nodes.to_string();
        let labels = [("nodes", nodes_s.as_str())];
        if let Ok((dup, shared)) = StagingPlan::compare(100.0, nodes, &archive, &nam, 12.5) {
            dup.record_into(&*reg, &labels);
            shared.record_into(&*reg, &labels);
        }
    }

    reg.snapshot()
}

#[cfg(test)]
mod tests {
    #[test]
    fn bencher_measures_something() {
        // Float sums do not reassociate, so the work cannot be folded away.
        let ns = super::min_ns(3, || {
            (0..std::hint::black_box(10_000u32))
                .map(|i| f64::from(i).sqrt())
                .sum::<f64>()
        });
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
    }

    #[test]
    fn unknown_experiment_reports_gracefully() {
        let s = super::run("e99");
        assert!(s.contains("unknown experiment"));
    }

    #[test]
    fn obs_report_is_nonempty_and_bit_identical() {
        // Bit identity is `committed_artifacts_regenerate_byte_for_byte`'s
        // comparison with `BENCH_pr3.json`.
        let a = crate::artifacts::obs();
        assert!(!a.is_empty());
        // The headline artifacts are present: trainer breakdown per p,
        // per-collective traffic, module utilization, staging bytes.
        for k in [
            "trainer.phase.compute.time{rank=0,run=p1}",
            "trainer.phase.allreduce.time{rank=0,run=p4}",
            "trainer.phase.checkpoint.time{rank=0,run=p8}",
            // The trainer's gradient exchange is the pipeline schedule,
            // which scopes its traffic under its own op since PR 7.
            "net.comm.bytes_sent{op=pipeline,rank=3,run=p4}",
            "sched.makespan{trace=deep40}",
            "storage.staging.wan_bytes{nodes=64,strategy=nam}",
        ] {
            assert!(a.get(k).is_some(), "missing key {k}");
        }
    }
}

/// The committed BENCH/TUNE artifacts and the analytic experiments'
/// output, regenerated in-process: each report is built once per test
/// binary, and both the byte comparison below and its module's own test
/// read that one build.
///
/// Every report is deterministic where it is pinned, so a fresh build
/// must reproduce its committed file byte for byte (up to the file's
/// wall-clock section). A failure names the file and its first
/// differing line. After a deliberate change, re-pin a file by running
/// its subcommand (`cargo run --release -p bench --bin experiments --
/// <sub>`) and committing what it writes; `EXPERIMENTS_analytic.txt` is
/// the stdout of `experiments` run on [`ANALYTIC`](artifacts::ANALYTIC).
#[cfg(test)]
pub(crate) mod artifacts {
    use std::path::Path;
    use std::sync::OnceLock;

    use crate::report::Report;

    /// The experiments with no wall-clock field, in the committed order.
    pub(crate) const ANALYTIC: [&str; 8] = ["e1", "e2", "e8", "e9", "e11", "e12", "e13", "e14"];

    pub(crate) fn obs() -> &'static msa_obs::Snapshot {
        static BUILT: OnceLock<msa_obs::Snapshot> = OnceLock::new();
        BUILT.get_or_init(crate::obs_report)
    }

    pub(crate) fn kernels() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(crate::kernels::kernel_report)
    }

    pub(crate) fn tune() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(crate::tune::tune_report)
    }

    pub(crate) fn serve() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(crate::serve::serve_report)
    }

    pub(crate) fn codec() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(crate::codec::codec_report)
    }

    pub(crate) fn pipeline() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(crate::pipeline::pipeline_report)
    }

    /// The fast comm run: the full one is too big for a test.
    pub(crate) fn comm_fast() -> &'static Report {
        static BUILT: OnceLock<Report> = OnceLock::new();
        BUILT.get_or_init(|| crate::comm::comm_report(true))
    }

    /// Every contract of `report` holds, except the wall-clock ones named
    /// in `except`, which a loaded test machine cannot vouch for.
    pub(crate) fn assert_contracts_hold(report: &Report, except: &[&str]) {
        for (name, ok) in &report.contracts {
            assert!(*ok || except.contains(name), "contract {name} is false");
        }
    }

    fn committed(file: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    /// `fresh` equals the committed `file` up to `wall_clock`, where the
    /// file's measured part starts (`None`: the whole file).
    pub(crate) fn assert_same(file: &str, fresh: &str, wall_clock: Option<&str>) {
        let want = committed(file);
        let upto = |text: &str| {
            let end = wall_clock.map_or(Some(text.len()), |marker| text.find(marker));
            text[..end.unwrap_or_else(|| panic!("{file}: no {wall_clock:?}"))].to_string()
        };
        let (want, fresh) = (upto(&want), upto(fresh));
        let (w, f): (Vec<&str>, Vec<&str>) = (want.lines().collect(), fresh.lines().collect());
        if let Some(i) = (0..w.len().max(f.len())).find(|&i| w.get(i) != f.get(i)) {
            panic!(
                "{file} line {}:\n  committed:   {}\n  regenerated: {}",
                i + 1,
                w.get(i).unwrap_or(&"<end of file>"),
                f.get(i).unwrap_or(&"<end of file>")
            );
        }
        assert_eq!(want, fresh, "{file}: the line endings differ");
    }

    /// Every `"name": ` flag in the committed `file` reads `true`;
    /// returns how many there are.
    pub(crate) fn flags_true(file: &str, name: &str) -> usize {
        let (text, key) = (committed(file), format!("\"{name}\": "));
        let values = text
            .match_indices(&key)
            .map(|(i, _)| &text[i + key.len()..]);
        values
            .map(|v| assert!(v.starts_with("true"), "{file}: contract {name} is false"))
            .count()
    }
}

/// Each report's committed files, one per body, each with where its
/// wall-clock part starts; every contract flag in them reads `true`.
#[test]
fn committed_artifacts_regenerate_byte_for_byte() {
    use artifacts::{assert_same, flags_true};

    assert_same("BENCH_pr3.json", &artifacts::obs().to_json(), None);

    type Case = (
        fn() -> &'static report::Report,
        &'static [(&'static str, Option<&'static str>)],
    );
    let cases: [Case; 5] = [
        (
            artifacts::kernels,
            &[("BENCH_pr4.json", Some("\n\"timings\": "))],
        ),
        (
            artifacts::tune,
            &[("TUNE_pr7.table", None), ("BENCH_pr7.json", None)],
        ),
        (artifacts::serve, &[("BENCH_pr8.json", None)]),
        (
            artifacts::codec,
            &[("TUNE_pr9.table", None), ("BENCH_pr9.json", None)],
        ),
        (
            artifacts::pipeline,
            &[("BENCH_pr10.json", Some("\n  \"real_timing\": "))],
        ),
    ];
    for (report, files) in cases {
        let report = report();
        assert_eq!(report.bodies.len(), files.len());
        for ((file, wall_clock), body) in files.iter().zip(&report.bodies) {
            assert_same(file, body, *wall_clock);
            // Every flag the file holds reads true, past the marker too.
            for (name, _) in &report.contracts {
                flags_true(file, name);
            }
        }
    }
    assert_eq!(flags_true("BENCH_pr10.json", pipeline::WALL_CLOCK_FLAG), 1);

    // The fast comm run's wire and allocation sections are the full
    // run's; the full-size contracts are read off the committed file.
    let fast = artifacts::comm_fast();
    assert_same("BENCH_pr5.json", &fast.bodies[0], Some("\n  \"train\": "));
    for (name, _) in &fast.contracts {
        flags_true("BENCH_pr5.json", name);
    }
    assert_eq!(flags_true("BENCH_pr5.json", comm::FULL_SIZE_FLAG), 1);
}

#[test]
fn analytic_experiments_regenerate_byte_for_byte() {
    // What `experiments` prints: each report, then an empty line.
    let fresh: String = artifacts::ANALYTIC
        .iter()
        .map(|id| run(id) + "\n")
        .collect();
    artifacts::assert_same("EXPERIMENTS_analytic.txt", &fresh, None);
}
