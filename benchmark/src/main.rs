//! Host-clock benchmark of the msa-suite workspace.
//!
//! ```text
//! benchmark --workload W --seed S --seconds N --trace 0|1   one workload, in this process
//! benchmark run   [--seed S] [--workload W] [--seconds N] [--out F]   every workload, untraced
//! benchmark trace [--seed S] [--workload W] [--out F]                 every workload, traced
//! benchmark check [--seed S] [--seconds N]                            two sets must agree
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it prints the metrics
//! by name and unit, then a `detail` line (quartiles, workload-specific
//! metrics, digests, environment), then one JSON object as the last line. The
//! sub-commands run it once per workload in a child process each, one
//! after the other, so `peak_rss_mib` is per workload and never more
//! than one workload is loading the machine.

mod adapter;
mod json;
mod spec;
mod stats;
mod trace;

use adapter::{RepOut, Workload};
use json::{num, quote, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Threads the pool is pinned to: the reference box has two cores.
const POOL_THREADS: usize = 2;
/// Rounds per run: each sets up once and then times reps for its share
/// of `--seconds`. `setup_s` is the median of the set-ups.
const SETUPS: usize = 3;
/// Least share of a traced rep the layer spans must account for.
const MIN_COVERAGE: f64 = 0.90;
/// Prefix of the line carrying what the last line's schema has no room
/// for (quartiles, workload-specific metrics, digests, environment).
const DETAIL: &str = "detail ";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
            out: None,
            spans: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                a.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" if spec::is_workload(value) => a.workload = Some(value.clone()),
                "--workload" => return Err(bad("a workload name")),
                "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if a.seconds.is_nan() || a.seconds < 0.0 {
                        return Err(bad("a non-negative number"));
                    }
                }
                "--trace" => a.trace = value == "1",
                "--out" => a.out = Some(value.clone()),
                "--spans" => a.spans = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(a)
    }
}

/// One workload's result: the contract's last line plus the detail line.
#[derive(Debug, Clone)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in report order.
    metrics: Vec<(String, String, f64)>,
    detail: String,
}

impl Outcome {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn env_json(seed: u64, pool: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {pool}, \"rustc\": {}, \"rustflags\": {}, \"seed\": {seed}}}",
        quote(env!("BENCH_RUSTC")),
        quote(env!("BENCH_RUSTFLAGS")),
    )
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The untraced run, in `SETUPS` rounds: set up (generate inputs, build,
/// one untimed warm-up rep), then timed reps until the round's share of
/// `--seconds` is used, at least one. Spreading the timed reps over the
/// whole run instead of packing them after the last set-up samples more
/// of the box's slowly wandering speed for the same cost.
fn untraced(a: &Args, name: &str, pool: usize) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warms: Vec<RepOut> = Vec::with_capacity(SETUPS);
    let mut reps: Vec<RepOut> = Vec::new();
    let mut prepared: Option<Workload> = None;
    let mut timed = 0.0;
    for round in 1..=SETUPS {
        // One workload alive at a time, or `peak_rss_mib` would count
        // the previous round's inputs on top of this round's.
        drop(prepared.take());
        let t = Instant::now();
        let wl = Workload::prepare(name, a.seed, a.smoke).ok_or("unknown workload")?;
        warms.push(wl.rep());
        setups.push(t.elapsed().as_secs_f64());
        let due = a.seconds * round as f64 / SETUPS as f64;
        loop {
            let t = Instant::now();
            reps.push(wl.rep());
            timed += t.elapsed().as_secs_f64();
            if timed >= due {
                break;
            }
        }
        prepared = Some(wl);
    }
    let wl = prepared.expect("SETUPS is positive");
    let slo_rate = wl.slo_rate_rps();
    let rss = peak_rss_mib();

    let rates: Vec<f64> = reps.iter().map(|r| r.items as f64 / r.secs).collect();
    let (q1, rate, q3) = stats::quartiles(&rates);
    let setup = stats::median(&setups);
    let last = &reps[reps.len() - 1];
    // Every set-up regenerates the same inputs from the seed, so every
    // rep of the run, warm-up or timed, must produce the same output.
    let digest = warms[0].hash;
    let repeatable = warms.iter().chain(&reps).all(|r| r.hash == digest);
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    // A rep whose output differs from the first is a failed operation
    // even when each rep looks fine on its own.
    let failed: u64 = reps
        .iter()
        .map(|r| {
            if r.hash == digest {
                r.failed
            } else {
                r.attempted
            }
        })
        .sum();
    let correct = repeatable && warms.iter().chain(&reps).all(|r| r.ok) && rss.is_finite();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = nproc < wl.workers();
    let training = slo_rate.is_none();

    println!("workload {name}  seed {}  reps {}", a.seed, reps.len());
    let note = if oversubscribed {
        "  oversubscribed: fewer cores than workers"
    } else {
        ""
    };
    println!(
        "  {:<22}{rate:>14.3} 1/s   q1 {q1:.3}  q3 {q3:.3}  n {}{note}",
        if training {
            "samples_per_s"
        } else {
            spec::INFER_REQUESTS_PER_S
        },
        reps.len()
    );
    let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("  {:<22}{}", "  per rep", each.join(" "));
    println!("  {:<22}{setup:>14.4} s     median of {SETUPS}", "setup_s");
    println!("  {:<22}{rss:>14.2} MiB", "peak_rss_mib");
    let mut extra: Vec<(&str, f64)> = Vec::new();
    if training {
        extra.push((spec::FINAL_LOSS, last.final_loss));
        println!(
            "  {:<22}{:>14.6} loss  first epoch {:.6}",
            spec::FINAL_LOSS,
            last.final_loss,
            last.first_loss
        );
    } else {
        extra.push((spec::INFER_REQUESTS_PER_S, rate));
        extra.push((spec::MODELED_P99_MS, last.modeled_p99_ms));
        println!(
            "  {:<22}{:>14.4} ms",
            spec::MODELED_P99_MS,
            last.modeled_p99_ms
        );
    }
    if let Some(rps) = slo_rate {
        extra.push((spec::SLO_RATE_RPS, rps));
        println!("  {:<22}{rps:>14.1} 1/s", spec::SLO_RATE_RPS);
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    extra.push((spec::FAILED_SHARE, failed_share));
    println!(
        "  {:<22}{failed_share:>14.6} ratio {failed} of {attempted}",
        spec::FAILED_SHARE
    );
    println!(
        "  output digest {:#018x}  checks {}",
        digest,
        if correct { "ok" } else { "FAILED" }
    );

    let extra_json: Vec<String> = extra
        .iter()
        .map(|(n, v)| format!("{}: {}", quote(n), num(*v)))
        .collect();
    let detail = format!(
        "{{\"workload\": {}, \"trace\": false, \"env\": {}, \"reps\": {}, \"oversubscribed\": {oversubscribed}, \
         \"samples_per_s_quartiles\": [{}, {}, {}], \"extra\": {{{}}}, \
         \"exact\": {{\"digest\": \"{:#018x}\", \"final_loss_bits\": \"{:#x}\", \"modeled_p99_bits\": \"{:#x}\", \"slo_rate_rps\": {}}}}}",
        quote(name),
        env_json(a.seed, pool),
        reps.len(),
        num(q1),
        num(rate),
        num(q3),
        extra_json.join(", "),
        digest,
        last.final_loss.to_bits(),
        last.modeled_p99_ms.to_bits(),
        num(slo_rate.unwrap_or(0.0)),
    );
    let value = |n: &str| match n {
        "samples_per_s" => rate,
        "setup_s" => setup,
        _ => rss,
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: spec::END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), value(m.0)))
            .collect(),
        detail,
    })
}

/// The traced run: one warm-up rep, one reference rep, one replica with
/// spans, and the fixed-size probes.
fn traced(a: &Args, name: &str, pool: usize) -> Result<Outcome, String> {
    let wl = Workload::prepare(name, a.seed, a.smoke).ok_or("unknown workload")?;
    wl.rep();
    let t = wl.traced();
    let coverage = t
        .lanes
        .iter()
        .map(|l| trace::coverage(l))
        .fold(f64::INFINITY, f64::min);
    let mut values: BTreeMap<String, f64> = adapter::probes();
    values.extend(t.values);
    values.insert("trace.coverage".into(), coverage);
    values.insert(
        "trace.overhead_share".into(),
        (t.traced_secs - t.untraced_secs) / t.untraced_secs,
    );
    let correct = t.identical && coverage >= MIN_COVERAGE;

    let metrics: Vec<(String, String, f64)> = spec::per_layer()
        .into_iter()
        .map(|(n, unit, _)| {
            let v = values.get(&n).copied().unwrap_or(0.0);
            (n, unit.to_string(), v)
        })
        .collect();
    println!("workload {name}  seed {}  traced", a.seed);
    for (n, unit, v) in &metrics {
        println!("  {n:<44}{v:>16.4} {unit}");
    }
    println!(
        "  replica {}  coverage {coverage:.4} (least over {} lanes, need {MIN_COVERAGE})",
        if t.identical {
            "identical to the library run"
        } else {
            "DIFFERS from the library run"
        },
        t.lanes.len()
    );
    if let Some(path) = &a.spans {
        std::fs::write(path, spans_json(&t.lanes)).map_err(|e| format!("{path}: {e}"))?;
    }
    let spans: usize = t.lanes.iter().map(Vec::len).sum();
    let detail = format!(
        "{{\"workload\": {}, \"trace\": true, \"env\": {}, \"spans\": {spans}, \"identical\": {}}}",
        quote(name),
        env_json(a.seed, pool),
        t.identical
    );
    Ok(Outcome {
        correct,
        attempted: 1,
        failed: u64::from(!t.identical),
        metrics,
        detail,
    })
}

fn spans_json(lanes: &[Vec<trace::Span>]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (lane, spans) in lanes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"lane\": {lane}, \"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"rep\": {}}}",
                quote(&format!("{}{}", s.name, s.detail)),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rep
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// One workload in this process; prints the detail and result lines.
fn one(a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let pool = adapter::init_pool(POOL_THREADS);
    let outcome = if a.trace {
        traced(a, name, pool)
    } else {
        untraced(a, name, pool)
    }?;
    println!("{DETAIL}{}", outcome.detail);
    println!("{}", outcome.result_json());
    Ok(outcome.correct && outcome.failed == 0)
}

/// A child's parsed output.
struct Child {
    workload: String,
    ok: bool,
    result: Json,
    detail: Json,
}

/// Runs one workload in a child process of this same binary, echoing
/// its report, and parses its last two lines.
fn spawn(a: &Args, name: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let [report @ .., detail, result] = lines.as_slice() else {
        return Err(format!(
            "{name}: child printed no result (exit {})",
            out.status
        ));
    };
    for l in report {
        println!("{l}");
    }
    let detail = detail
        .strip_prefix(DETAIL)
        .ok_or_else(|| format!("{name}: no detail line"))?;
    Ok(Child {
        workload: name.to_string(),
        ok: out.status.success(),
        result: Json::parse(result)?,
        detail: Json::parse(detail)?,
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every selected workload, one child at a time.
fn set(a: &Args, trace: bool) -> Result<Vec<Child>, String> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|w| a.workload.as_deref().is_none_or(|only| only == *w))
        .map(|w| spawn(a, w, trace))
        .collect()
}

fn write_out(a: &Args, children: &[Child]) -> Result<(), String> {
    let Some(path) = &a.out else { return Ok(()) };
    let rows: Vec<String> = children
        .iter()
        .map(|c| format!("    {{\"result\": {}, \"detail\": {}}}", c.result, c.detail))
        .collect();
    let text = format!(
        "{{\n  \"git_commit\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        quote(&git_commit()),
        rows.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run_set(a: &Args, trace: bool) -> Result<bool, String> {
    println!("git commit {}", git_commit());
    let children = set(a, trace)?;
    write_out(a, &children)?;
    for c in children.iter().filter(|c| !c.ok) {
        println!("FAILED: {}", c.workload);
    }
    Ok(children.iter().all(|c| c.ok))
}

fn metric(c: &Child, name: &str) -> Option<f64> {
    c.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Differences between two sets of the same code, as printable lines.
/// Host metrics may worsen by their bound; everything the program
/// computes from its inputs alone must be equal to the last bit.
fn compare(first: &[Child], second: &[Child], trace: bool) -> Vec<String> {
    let mut diffs = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let w = &a.workload;
        if !(a.ok && b.ok) {
            diffs.push(format!("{w}: a run failed its own checks"));
        }
        if trace {
            // Counts and modeled picoseconds repeat exactly; host
            // timings of single layers carry no bound.
            for (n, _, _) in spec::per_layer() {
                let (x, y) = (metric(a, &n), metric(b, &n));
                if spec::repeats_exactly(&n) && x.map(f64::to_bits) != y.map(f64::to_bits) {
                    diffs.push(format!("{w}: {n} must repeat exactly: {x:?} vs {y:?}"));
                }
            }
            continue;
        }
        for &(n, _, better, bound) in &spec::END_TO_END {
            let (Some(x), Some(y)) = (metric(a, n), metric(b, n)) else {
                diffs.push(format!("{w}: {n} missing"));
                continue;
            };
            let worse = if better == "higher" {
                (x - y) / x
            } else {
                (y - x) / x
            };
            println!(
                "  {w:<20} {n:<14} {x:>12.4} -> {y:>12.4}  {:+.2}% (bound {:.0}%)",
                -worse * 100.0,
                bound * 100.0
            );
            if worse > bound {
                diffs.push(format!(
                    "{w}: {n} worsened by {:.2}%, bound {:.0}%",
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
        let (x, y) = (a.detail.get("exact"), b.detail.get("exact"));
        if x.is_none() || x != y {
            diffs.push(format!("{w}: exact block differs: {x:?} vs {y:?}"));
        }
    }
    diffs
}

fn check(a: &Args) -> Result<bool, String> {
    let mut diffs = Vec::new();
    for trace in [false, true] {
        let kind = if trace { "traced" } else { "untraced" };
        println!("== {kind} set 1");
        let first = set(a, trace)?;
        println!("== {kind} set 2");
        let second = set(a, trace)?;
        println!("== {kind} set 2 against set 1");
        diffs.extend(compare(&first, &second, trace));
    }
    for d in &diffs {
        println!("DIFFERS: {d}");
    }
    println!(
        "check: {}",
        if diffs.is_empty() {
            "both sets agree"
        } else {
            "FAILED"
        }
    );
    Ok(diffs.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "check")) => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let done = Args::parse(rest).and_then(|a| match cmd {
        "run" => run_set(&a, false),
        "trace" => run_set(&a, true),
        "check" => check(&a),
        _ => one(&a),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {row:?}"))
    }

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_are_well_formed_and_equal_benchmark_json() {
        let m = manifest();
        let rows = |key: &str| m.get(key).expect("section").items().to_vec();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (field(r, "name").to_string(), field(r, "why").to_string()))
            .collect();
        let ours: Vec<(String, String)> = spec::WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|r| {
                let bound = r.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    field(r, "name").into(),
                    field(r, "unit").into(),
                    field(r, "better").into(),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = spec::END_TO_END
            .iter()
            .map(|&(n, u, b, x)| (n.into(), u.into(), b.into(), x))
            .collect();
        assert_eq!(e2e, ours);
        assert!(e2e
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        assert!(e2e.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));

        let layers: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|r| {
                (
                    field(r, "name").into(),
                    field(r, "unit").into(),
                    field(r, "better").into(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = spec::per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.into(), b.into()))
            .collect();
        assert_eq!(layers, ours);
        assert!(layers.len() <= 128);

        let mut names: Vec<&str> = workloads.iter().map(|w| w.0.as_str()).collect();
        names.extend(e2e.iter().map(|m| m.0.as_str()));
        names.extend(layers.iter().map(|m| m.0.as_str()));
        for n in &names {
            assert!(well_formed(n, 64, "_.-"), "name {n:?}");
            assert!(
                n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "name {n:?}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in e2e.iter().map(|m| &m.1).chain(layers.iter().map(|m| &m.1)) {
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit:?}");
        }
        for (_, why) in &workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            m.get("paths").expect("paths").items(),
            [Json::Str("benchmark".into())]
        );
    }

    fn smoke(name: &str) {
        let pool = adapter::init_pool(POOL_THREADS);
        let mut a = Args::parse(&["--smoke".to_string()]).expect("flags parse");
        a.seconds = 0.0;
        a.seed = 5;

        let run = untraced(&a, name, pool).expect("untraced run");
        assert!(
            run.correct && run.failed == 0 && run.attempted >= 1,
            "{run:?}"
        );
        let reported: Vec<&str> = run.metrics.iter().map(|m| m.0.as_str()).collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(reported, declared);
        assert!(
            run.metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0),
            "{run:?}"
        );
        let result = Json::parse(&run.result_json()).expect("result line is JSON");
        let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        Json::parse(&run.detail).expect("detail line is JSON");

        a.trace = true;
        let run = traced(&a, name, pool).expect("traced run");
        assert!(run.correct && run.failed == 0, "{run:?}");
        let reported: Vec<String> = run.metrics.iter().map(|m| m.0.clone()).collect();
        let declared: Vec<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(reported, declared);
        assert!(run.metrics.iter().all(|m| m.2.is_finite()), "{run:?}");
        let forward = run
            .metrics
            .iter()
            .find(|m| m.0 == "nn.forward_ms")
            .expect("declared");
        assert!(forward.2 > 0.0, "every workload runs forward passes");
    }

    #[test]
    fn smoke_bigearth_resnet_p1() {
        smoke("bigearth_resnet_p1");
    }

    #[test]
    fn smoke_widemlp_dense_p2() {
        smoke("widemlp_dense_p2");
    }

    #[test]
    fn smoke_widemlp_topk_p2() {
        smoke("widemlp_topk_p2");
    }

    #[test]
    fn smoke_icu_gru_p1() {
        smoke("icu_gru_p1");
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke("serve_mixed");
    }

    #[test]
    fn flags_are_checked() {
        let parse = |v: &[&str]| Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = parse(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("the driver's flags parse");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_mixed"), 9, 2.5, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }
}
