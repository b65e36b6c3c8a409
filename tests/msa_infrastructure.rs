//! Integration: the MSA infrastructure crates working together — system
//! presets, affinity, scheduling, storage and the α–β collective cost
//! model (GCE offload included).

use msa_suite::msa_core::report::affinity_matrix;
use msa_suite::msa_core::system::presets;
use msa_suite::msa_core::workload::{WorkloadClass, WorkloadProfile};
use msa_suite::msa_core::ModuleKind;
use msa_suite::msa_net::{CollectiveAlgo, LinkParams};
use msa_suite::msa_sched::{compare_architectures, generate_trace, schedule, MsaPlacement, TraceConfig};
use msa_suite::msa_storage::{ArchiveLink, Nam, StagingPlan};

#[test]
fn deep_preset_supports_full_affinity_and_scheduling_flow() {
    let deep = presets::deep();
    // Affinity: every class lands where the MSA intends.
    let rows = affinity_matrix(&deep, 64);
    assert!(rows.iter().all(|r| r.matches_design));

    // Scheduling the default trace terminates and respects capacities.
    let trace = generate_trace(&TraceConfig::default());
    let report = schedule(&deep, &trace, &MsaPlacement);
    assert_eq!(report.outcomes.len(), trace.len());
    for o in &report.outcomes {
        let module = deep.module(o.module);
        assert!(o.nodes <= module.node_count);
        assert!(o.start >= trace[o.id].submit);
        assert!(o.end > o.start);
    }
}

#[test]
fn msa_advantage_holds_under_load() {
    let deep = presets::deep();
    let cfg = TraceConfig {
        jobs: 120,
        mean_interarrival_s: 2.0,
        scale: 30.0,
        max_nodes: 16,
        ..Default::default()
    };
    let result = compare_architectures(&deep, &cfg);
    assert!(result.makespan_ratio() > 1.1, "makespan ratio {}", result.makespan_ratio());
    assert!(result.energy_ratio() > 1.1, "energy ratio {}", result.energy_ratio());
}

#[test]
fn gce_wins_where_the_paper_says_it_should() {
    // §II-A: the GCE accelerates *common MPI collectives* — small,
    // latency-bound reductions at scale.
    let link = LinkParams::extoll();
    for p in [32usize, 128, 512] {
        let sw = CollectiveAlgo::best_software(p, 4096.0, link).allreduce_time(p, 4096.0, link);
        let gce = CollectiveAlgo::GceOffload.allreduce_time(p, 4096.0, link);
        assert!(gce < sw, "GCE must win small messages at p={p}");
    }
}

#[test]
fn nam_and_booster_profiles_compose_into_a_campaign() {
    // A training campaign: stage the dataset (storage) then train
    // (workload model on the booster) — total time must be dominated by
    // training, and NAM staging must not be the bottleneck at scale.
    let deep = presets::deep();
    let booster = deep.module_of_kind(ModuleKind::Booster).unwrap();
    let train_profile = WorkloadProfile::canonical(WorkloadClass::DlTraining);
    let nodes = 64;
    let train_time = train_profile.time_on(booster, nodes);

    let archive = ArchiveLink::site_uplink();
    let nam = Nam::deep_prototype();
    let (dup, shared) = StagingPlan::compare(66.0, nodes, &archive, &nam, 12.5).unwrap();
    assert!(shared.time < dup.time);
    assert!(
        shared.time.as_secs() < train_time.as_secs(),
        "staging {} should be cheaper than training {}",
        shared.time,
        train_time
    );
}

#[test]
fn juwels_numbers_match_paper_section_2b() {
    let j = presets::juwels();
    let booster = j.module_of_kind(ModuleKind::Booster).unwrap();
    assert_eq!(booster.total_gpus(), 3744, "paper: 3,744 booster GPUs");
    let cluster_gpus: u64 = j
        .modules_of_kind(ModuleKind::Cluster)
        .map(|m| m.total_gpus())
        .sum();
    assert_eq!(cluster_gpus, 224, "paper: 224 cluster GPUs");
    let cluster_nodes: usize = j
        .modules_of_kind(ModuleKind::Cluster)
        .map(|m| m.node_count)
        .sum();
    assert_eq!(cluster_nodes, 2583, "paper: 2,583 cluster nodes");
}
