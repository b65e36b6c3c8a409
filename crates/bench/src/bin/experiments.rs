//! CLI for the experiment harness: `experiments e3`, `experiments all`,
//! or one of the report subcommands in `SUBS`, e.g.
//! `cargo run --release -p bench --bin experiments -- comm BENCH_pr5.json`.

use bench::report::Report;

const USAGE: &str = "usage: experiments <e1..e14|all|obs|kernels|comm|tune|serve|codec|pipeline> [more ids… | output paths]
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
  obs deterministic observability report -> BENCH_pr3.json
  kernels [--counters] kernel throughput + bit-exactness report
      -> BENCH_pr4.json
  comm [--counters] collective wire counters, fused-vs-serialized
      bit-equality, overlap speedup + allreduce timing sweep
      -> BENCH_pr5.json (MSA_BENCH_FAST=1: smoke size)
  tune measured collective autotuner grid (real executions up to 128
      ranks, priced virtual clocks) -> TUNE_pr7.table + BENCH_pr7.json
  serve dynamic-batching inference grid (3 policies x 4 offered loads,
      CNN on ESB + GRU on DAM, SLO admission) -> BENCH_pr8.json
  codec gradient wire codecs (dense f32 vs bf16 vs 1%-top-k): measured
      allreduce grid up to 128 ranks on the priced clock, fused trainer
      step times, recalibrated 96/128-GPU scaling and convergence
      parity -> TUNE_pr9.table + BENCH_pr9.json
  pipeline [--counters] overlapped input pipeline: prefetch-vs-eager
      bit-identity grid under all three codecs, modeled stage-overlap
      depth sweep, slab-pool zero-alloc proof, 96/128-GPU input-bound
      projection and the measured stage-bound epoch speedup
      -> BENCH_pr10.json
Report subcommands write to the given paths (or the default files),
--counters (where listed) writes the deterministic section alone, and a
report exits 1 naming every contract flag that does not hold.";

/// One file-writing report subcommand.
struct Sub {
    name: &'static str,
    /// What the status line calls each written file, and its default
    /// path; positional arguments override the paths in order.
    files: &'static [(&'static str, &'static str)],
    /// Default path under a leading `--counters`, which selects the
    /// deterministic section only (`None`: the flag does not apply).
    counters: Option<&'static str>,
    report: fn() -> Report,
}

const SUBS: &[Sub] = &[
    Sub {
        name: "obs",
        files: &[("observability report", "BENCH_pr3.json")],
        counters: None,
        report: || {
            let snap = bench::obs_report();
            Report {
                bodies: vec![snap.to_json()],
                counters: None,
                contracts: vec![("metrics_recorded", !snap.is_empty())],
            }
        },
    },
    Sub {
        name: "kernels",
        files: &[("kernel report", "BENCH_pr4.json")],
        counters: Some("BENCH_pr4_counters.json"),
        report: bench::kernels::kernel_report,
    },
    Sub {
        name: "comm",
        files: &[("comm report", "BENCH_pr5.json")],
        counters: Some("BENCH_pr5_counters.json"),
        report: || {
            bench::comm::comm_report(std::env::var("MSA_BENCH_FAST").is_ok_and(|v| v == "1"))
        },
    },
    Sub {
        name: "tune",
        files: &[
            ("decision table", "TUNE_pr7.table"),
            ("grid report", "BENCH_pr7.json"),
        ],
        counters: None,
        report: bench::tune::tune_report,
    },
    Sub {
        name: "serve",
        files: &[("serving grid report", "BENCH_pr8.json")],
        counters: None,
        report: bench::serve::serve_report,
    },
    Sub {
        name: "codec",
        files: &[
            ("extended decision table", "TUNE_pr9.table"),
            ("codec report", "BENCH_pr9.json"),
        ],
        counters: None,
        report: bench::codec::codec_report,
    },
    Sub {
        name: "pipeline",
        files: &[("pipeline report", "BENCH_pr10.json")],
        counters: Some("BENCH_pr10_counters.json"),
        report: bench::pipeline::pipeline_report,
    },
];

/// Runs one [`Sub`]: writes every body, then fails if a contract does
/// not hold. `Ok` is the status line, `Err` the exit status and the
/// diagnostic. A leading `--` argument the sub does not take is a usage
/// error (status 2) and writes nothing.
fn run_sub(sub: &Sub, rest: &[String]) -> Result<String, (i32, String)> {
    let counters_only = sub.counters.is_some() && rest.first().is_some_and(|a| a == "--counters");
    let paths = &rest[usize::from(counters_only)..];
    if paths.first().is_some_and(|p| p.starts_with("--")) {
        return Err((2, USAGE.to_string()));
    }
    let report = (sub.report)();
    let bodies = match report.counters.filter(|_| counters_only) {
        Some(counters) => vec![counters],
        None => report.bodies,
    };
    let mut wrote = Vec::new();
    for (i, (body, (what, default))) in bodies.iter().zip(sub.files).enumerate() {
        let default = sub.counters.filter(|_| counters_only).unwrap_or(default);
        let path = paths.get(i).map_or(default, String::as_str);
        std::fs::write(path, body).map_err(|e| (1, format!("cannot write {path}: {e}")))?;
        wrote.push(format!("{what} to {path}"));
    }
    let wrote = format!("wrote {}", wrote.join(" and "));
    let broken: Vec<&str> = report
        .contracts
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    if broken.is_empty() {
        Ok(wrote)
    } else {
        Err((
            1,
            format!(
                "{wrote}, but these contracts do not hold: {}",
                broken.join(", ")
            ),
        ))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        // lint: allow(print) -- CLI usage on stderr
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if let Some(sub) = SUBS.iter().find(|s| s.name == args[0]) {
        match run_sub(sub, &args[1..]) {
            // lint: allow(print) -- CLI status output
            Ok(status) => println!("{status}"),
            Err((status, diagnostic)) => {
                // lint: allow(print) -- CLI diagnostic on stderr
                eprintln!("{diagnostic}");
                std::process::exit(status);
            }
        }
        return;
    }
    for id in &args {
        // lint: allow(print) -- CLI report output
        print!("{}", bench::run(id));
        // lint: allow(print) -- CLI report output
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One file, `{}`, and one contract that does not hold.
    const FAKE: Sub = Sub {
        name: "fake",
        files: &[("fake report", "unused.json")],
        counters: None,
        report: || Report {
            bodies: vec!["{}".into()],
            counters: None,
            contracts: vec![("holds", true), ("bit_equal_ref", false)],
        },
    };

    #[test]
    fn a_false_contract_fails_the_run_after_writing_its_files() {
        let path =
            std::env::temp_dir().join(format!("experiments-contract-{}.json", std::process::id()));
        let got = run_sub(&FAKE, &[path.display().to_string()]);
        let written = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        let (status, diagnostic) = got.expect_err("a false contract must fail the run");
        assert_eq!(status, 1);
        assert!(
            diagnostic.ends_with("do not hold: bit_equal_ref"),
            "{diagnostic}"
        );
        assert_eq!(written.expect("the body is written before the check"), "{}");
    }

    #[test]
    fn a_flag_the_sub_does_not_take_is_a_usage_error_and_writes_nothing() {
        let got = run_sub(&FAKE, &["--counters".into()]);
        let written = std::path::Path::new("--counters").exists();
        let _ = std::fs::remove_file("--counters");
        assert_eq!(got, Err((2, USAGE.to_string())));
        assert!(!written, "a file named --counters was written");
    }
}
