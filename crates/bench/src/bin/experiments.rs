//! CLI for the experiment harness: `experiments e3`, `experiments all`,
//! or one of the report subcommands in `SUBS` (and `obs`), e.g.
//! `cargo run --release -p bench --bin experiments -- comm BENCH_pr5.json`.

const USAGE: &str = "usage: experiments <e1..e14|all|obs|kernels|comm|tune|serve|codec|pipeline> [more ids… | output path]
  e1  Table I + system inventories
  e2  workload/module affinity (Fig. 2)
  e3  distributed DL scaling + accuracy (Fig. 3)
  e4  parallel cascade SVM
  e5  GRU imputation of ICU series
  e6  COVID-Net, V100 vs A100
  e7  quantum-annealer SVM ensembles
  e8  GCE vs software allreduce
  e9  NAM staging vs duplicate downloads
  e10 analytics on DAM memory tiers
  e11 scheduler: MSA vs monolithic
  e12 modular workflow: train here, infer there
  e13 checkpoint/restart: NAM vs parallel FS
  e14 interactive sessions: reserved DAM vs shared queue
  obs deterministic observability report -> BENCH_pr3.json (or given path)
  kernels [--counters] kernel throughput + bit-exactness report
      -> BENCH_pr4.json (or given path); --counters emits only the
      deterministic section (CI byte-compares two runs)
  comm [--counters] collective wire counters, fused-vs-serialized
      bit-equality, overlap speedup + allreduce timing sweep
      -> BENCH_pr5.json (or given path); --counters emits only the
      deterministic section (CI byte-compares two runs)
  tune measured collective autotuner grid (real executions up to 128
      ranks, priced virtual clocks) -> TUNE_pr7.table + BENCH_pr7.json
      (or the two given paths); fully deterministic, CI byte-compares
      two runs of both files
  serve dynamic-batching inference grid (3 policies x 4 offered loads,
      CNN on ESB + GRU on DAM, SLO admission) -> BENCH_pr8.json (or
      given path); fully deterministic, CI byte-compares two runs and
      the committed artifact; exits non-zero if any latency histogram
      is empty or a tradeoff contract flag is false
  codec gradient wire codecs (dense f32 vs bf16 vs 1%-top-k): measured
      allreduce grid up to 128 ranks on the priced clock, fused trainer
      step times, recalibrated 96/128-GPU scaling and convergence
      parity -> TUNE_pr9.table + BENCH_pr9.json (or the two given
      paths); fully deterministic, CI byte-compares two runs of both
      files and greps the contract flags
  pipeline [--counters] overlapped input pipeline: prefetch-vs-eager
      bit-identity grid under all three codecs, modeled stage-overlap
      depth sweep, slab-pool zero-alloc proof, 96/128-GPU input-bound
      projection and the measured stage-bound epoch speedup
      -> BENCH_pr10.json (or given path); --counters emits only the
      deterministic sections (CI byte-compares two runs); exits
      non-zero if any contract flag is false";

/// Runs the `obs` subcommand: dumps the deterministic metrics snapshot
/// to `path` and fails loudly if the registry came back empty.
fn run_obs(path: &str) -> i32 {
    let snap = bench::obs_report();
    if snap.is_empty() {
        // lint: allow(print) -- CLI diagnostic on stderr
        eprintln!("obs report is empty: no metrics were recorded");
        return 1;
    }
    let json = snap.to_json();
    if let Err(e) = std::fs::write(path, &json) {
        // lint: allow(print) -- CLI diagnostic on stderr
        eprintln!("cannot write {path}: {e}");
        return 1;
    }
    // lint: allow(print) -- CLI status output
    println!("wrote {} metrics to {path}", snap.len());
    0
}

/// One file-writing subcommand. `MSA_BENCH_FAST=1` shrinks every
/// report's grids and repetitions.
struct Sub {
    name: &'static str,
    /// What the status line calls each written file, and its default
    /// path; positional arguments override the paths in order.
    files: &'static [(&'static str, &'static str)],
    /// Default path under a leading `--counters`, which selects the
    /// deterministic section only (`None`: the flag does not apply).
    counters: Option<&'static str>,
    /// `(fast, counters_only)` → one body per file, and whether the
    /// report's own contracts hold.
    report: fn(bool, bool) -> (Vec<String>, bool),
    /// Contract flags: a body containing any of these fails the run.
    broken: &'static [&'static str],
    /// What a broken contract is reported as (`…; see <path>`).
    failure: &'static str,
}

/// Adapts a `(counters, full)` report pair to [`Sub::report`].
fn pick((counters, full): (String, String), counters_only: bool) -> (Vec<String>, bool) {
    (vec![if counters_only { counters } else { full }], true)
}

const SUBS: &[Sub] = &[
    Sub {
        name: "kernels",
        files: &[("kernel report", "BENCH_pr4.json")],
        counters: Some("BENCH_pr4_counters.json"),
        report: |fast, c| pick(bench::kernels::kernel_report(fast), c),
        broken: &[],
        failure: "",
    },
    Sub {
        name: "comm",
        files: &[("comm report", "BENCH_pr5.json")],
        counters: Some("BENCH_pr5_counters.json"),
        report: |fast, c| pick(bench::comm::comm_report(fast), c),
        broken: &[],
        failure: "",
    },
    Sub {
        name: "tune",
        files: &[
            ("decision table", "TUNE_pr7.table"),
            ("grid report", "BENCH_pr7.json"),
        ],
        counters: None,
        report: |fast, _| {
            let (table, json) = bench::tune::tune_report(fast);
            (vec![table, json], true)
        },
        broken: &[],
        failure: "",
    },
    Sub {
        name: "serve",
        files: &[("serving grid report", "BENCH_pr8.json")],
        counters: None,
        report: |fast, _| {
            let (json, ok) = bench::serve::serve_report(fast);
            (vec![json], ok)
        },
        broken: &[],
        failure: "serving contract flags failed (empty histogram or broken tradeoff)",
    },
    Sub {
        name: "codec",
        files: &[
            ("extended decision table", "TUNE_pr9.table"),
            ("codec report", "BENCH_pr9.json"),
        ],
        counters: None,
        report: |fast, _| {
            let (table, json) = bench::codec::codec_report(fast);
            (vec![table, json], true)
        },
        broken: &[],
        failure: "",
    },
    Sub {
        name: "pipeline",
        files: &[("pipeline report", "BENCH_pr10.json")],
        counters: Some("BENCH_pr10_counters.json"),
        report: |fast, c| pick(bench::pipeline::pipeline_report(fast), c),
        broken: &[
            "\"bit_identical\": false",
            "\"wall_invariant\": false",
            "\"partition_invariant\": false",
            "\"prefetch_bit_identical\": false",
            "\"overlap_saves_time\": false",
            "\"zero_steady_state_allocs\": false",
            "\"input_bound_at_scale\": false",
            "\"real_epoch_speedup_ge_1_2x\": false",
        ],
        failure: "pipeline contract flags failed",
    },
];

/// Runs one [`Sub`]: writes every body, then fails on a broken contract.
fn run_sub(sub: &Sub, rest: &[String]) -> i32 {
    let counters_only = sub.counters.is_some() && rest.first().is_some_and(|a| a == "--counters");
    let paths = &rest[usize::from(counters_only)..];
    let fast = std::env::var("MSA_BENCH_FAST").is_ok_and(|v| v == "1");
    let (bodies, ok) = (sub.report)(fast, counters_only);
    let (mut wrote, mut last) = (Vec::new(), "");
    for (i, (body, (what, default))) in bodies.iter().zip(sub.files).enumerate() {
        let default = sub.counters.filter(|_| counters_only).unwrap_or(default);
        last = paths.get(i).map_or(default, String::as_str);
        if let Err(e) = std::fs::write(last, body) {
            // lint: allow(print) -- CLI diagnostic on stderr
            eprintln!("cannot write {last}: {e}");
            return 1;
        }
        wrote.push(format!("{what} to {last}"));
    }
    let broken = |body: &String| sub.broken.iter().any(|flag| body.contains(flag));
    if !ok || bodies.iter().any(broken) {
        // lint: allow(print) -- CLI diagnostic on stderr
        eprintln!("{}; see {last}", sub.failure);
        return 1;
    }
    // lint: allow(print) -- CLI status output
    println!("wrote {}", wrote.join(" and "));
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        // lint: allow(print) -- CLI usage on stderr
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args[0] == "obs" {
        let path = args.get(1).map_or("BENCH_pr3.json", String::as_str);
        std::process::exit(run_obs(path));
    }
    if let Some(sub) = SUBS.iter().find(|s| s.name == args[0]) {
        std::process::exit(run_sub(sub, &args[1..]));
    }
    for id in &args {
        // lint: allow(print) -- CLI report output
        print!("{}", bench::run(id));
        // lint: allow(print) -- CLI report output
        println!();
    }
}
