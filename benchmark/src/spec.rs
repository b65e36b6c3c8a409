//! Names the benchmark reports. `BENCHMARK.json` at the repository root
//! carries the same sets; a unit test compares the two.

/// Workloads with the one-line reason each was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "bigearth_resnet_p1",
        "plain single-worker ResNet epoch on BigEarth patches: conv/gemm kernels are the step, comm and data layers must not show",
    ),
    (
        "widemlp_dense_p2",
        "2-worker 2.1M-parameter MLP, fused overlapped dense exchange, prefetch, checkpoints: little compute per gradient byte",
    ),
    (
        "widemlp_topk_p2",
        "same model with top-k 1% sparse exchange: encode-heavy, wire-light, allgather path with error feedback",
    ),
    (
        "icu_gru_p1",
        "full-batch GRU imputation with BPTT: small sequential matmuls, the opposite gemm shape to batched conv",
    ),
    (
        "serve_mixed",
        "forward-only CNN and GRU endpoints at queue-launched batch sizes 1-32, the only path through msa-serve and msa-obs",
    ),
];

/// `(name, unit, better, bound)` of the end-to-end metrics every
/// workload reports and the driver bounds. `samples_per_s` counts
/// training samples, ICU sequences or executed inference requests;
/// `bound` is the share of the parent's median a metric may worsen by.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("samples_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// End-to-end metrics that exist on some workloads only. The `run`
/// command prints them and `check` compares them; the driver sees them
/// as the unbounded `e2e.*` entries of [`PER_LAYER`].
pub const FINAL_LOSS: &str = "final_loss";
pub const INFER_REQUESTS_PER_S: &str = "infer_requests_per_s";
pub const MODELED_P99_MS: &str = "modeled_p99_ms";
pub const SLO_RATE_RPS: &str = "slo_rate_rps";
pub const FAILED_SHARE: &str = "failed_share";

/// Top-level layer kinds the training models are built from; each gets
/// an `nn.backward.<kind>_ms` metric.
pub const LAYER_KINDS: [&str; 9] = [
    "Conv2d",
    "Residual",
    "BatchNorm",
    "ReLU",
    "GlobalAvgPool2d",
    "Dense",
    "Flatten",
    "GRU",
    "Dropout",
];

/// `(name, unit, better)` of the traced metrics other than the
/// per-kind backward times. A layer a workload does not run reports 0.
pub const PER_LAYER_FIXED: [(&str, &str, &str); 44] = [
    ("data.assemble_ms", "ms", "lower"),
    ("data.slab_allocs", "count", "lower"),
    ("nn.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.loss_ms", "ms", "lower"),
    ("nn.zero_grad_ms", "ms", "lower"),
    ("nn.optim_ms", "ms", "lower"),
    ("tensor.gemm_512.gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_512.pool_speedup", "ratio", "higher"),
    ("tensor.bf16_encode_gbps", "GB/s", "higher"),
    ("distrib.pack_ms", "ms", "lower"),
    ("distrib.unpack_ms", "ms", "lower"),
    ("distrib.exchange_ms", "ms", "lower"),
    ("distrib.exchange_skew_ms", "ms", "lower"),
    ("distrib.topk_compress_ms", "ms", "lower"),
    ("distrib.checkpoint_ms_per_write", "ms", "lower"),
    ("distrib.checkpoint_bytes", "B", "lower"),
    ("distrib.overlap_hidden_ms", "ms", "higher"),
    ("msa-net.wire_bytes_per_step", "B", "lower"),
    ("msa-net.msgs_per_step", "count", "lower"),
    ("msa-net.pool_allocs", "count", "lower"),
    ("msa-net.allreduce_8MiB_p2_gbps", "GB/s", "higher"),
    ("msa-serve.arrivals_ms", "ms", "lower"),
    ("msa-serve.queue_ms", "ms", "lower"),
    ("msa-serve.queue_events_per_s", "1/s", "higher"),
    ("msa-serve.load_snapshot_ms", "ms", "lower"),
    ("msa-serve.forward_us_per_request.covidnet", "us", "lower"),
    ("msa-serve.forward_us_per_request.gru", "us", "lower"),
    ("msa-serve.mean_batch", "count", "higher"),
    ("msa-serve.shed_share", "ratio", "lower"),
    ("msa-obs.observe_ns", "ns", "lower"),
    ("msa-obs.snapshot_ms", "ms", "lower"),
    ("model.stage_ps", "ps", "lower"),
    ("model.compute_ps", "ps", "lower"),
    ("model.allreduce_ps", "ps", "lower"),
    ("model.checkpoint_ps", "ps", "lower"),
    ("model.sim_wall_ms", "ms", "lower"),
    ("model.host_ratio.compute", "ns/ps", "lower"),
    ("model.host_ratio.exchange", "ns/ps", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("e2e.final_loss", "loss", "lower"),
    ("e2e.modeled_p99_ms", "ms", "lower"),
    ("e2e.slo_rate_rps", "1/s", "higher"),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    let at = out
        .iter()
        .position(|(n, ..)| n == "nn.optim_ms")
        .expect("nn.optim_ms is a fixed metric")
        + 1;
    for (i, kind) in LAYER_KINDS.iter().enumerate() {
        out.insert(at + i, (backward_metric(kind), "ms", "lower"));
    }
    out
}

/// Name of the backward-time metric of one layer kind.
pub fn backward_metric(kind: &str) -> String {
    format!("nn.backward.{kind}_ms")
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// Traced metrics the program computes from its inputs alone: counts,
/// modeled picoseconds and the repeated end-to-end values. Two runs of
/// the same code and seed must agree on them to the last bit.
pub fn repeats_exactly(name: &str) -> bool {
    name.starts_with("model.") && name.ends_with("_ps")
        || name.starts_with("e2e.")
        || [
            "msa-net.wire_bytes_per_step",
            "msa-net.msgs_per_step",
            "msa-net.pool_allocs",
            "distrib.checkpoint_bytes",
            "data.slab_allocs",
            "msa-serve.mean_batch",
            "msa-serve.shed_share",
        ]
        .contains(&name)
}
