//! The committed BENCH/TUNE artifacts and the analytic experiments'
//! output, regenerated in-process.
//!
//! Every report is deterministic where it is pinned, so a fresh run must
//! reproduce its committed file byte for byte (up to the file's
//! wall-clock section), and every contract it checks must hold. A
//! failure names the file and its first differing line, or the contract.
//! After a deliberate change, re-pin a file by running its subcommand
//! (`cargo run --release -p bench --bin experiments -- <sub>`) and
//! committing what it writes; `EXPERIMENTS_analytic.txt` is the stdout
//! of `experiments` run on [`ANALYTIC`].

use std::path::Path;

use bench::report::Report;
use bench::{codec, comm, kernels, pipeline, serve, tune};

/// A report, and its committed files, one per body, each with where its
/// wall-clock part starts.
/// The experiments with no wall-clock field, in the committed order.
const ANALYTIC: [&str; 8] = ["e1", "e2", "e8", "e9", "e11", "e12", "e13", "e14"];

type Case = (
    fn() -> Report,
    &'static [(&'static str, Option<&'static str>)],
);

fn committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `fresh` equals the committed `file` up to `wall_clock`, where the
/// file's measured part starts (`None`: the whole file).
fn assert_same(file: &str, fresh: &str, wall_clock: Option<&str>) {
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

/// Every contract holds, except the `committed_only` ones, which a fresh
/// run cannot vouch for.
fn assert_contracts(what: &str, report: &Report, committed_only: &[&str]) {
    for (name, ok) in &report.contracts {
        assert!(
            *ok || committed_only.contains(name),
            "{what}: contract {name} is false"
        );
    }
}

/// Every `"name": ` flag in the committed `file` reads `true`; returns
/// how many there are.
fn flags_true(file: &str, name: &str) -> usize {
    let (text, key) = (committed(file), format!("\"{name}\": "));
    let values = text
        .match_indices(&key)
        .map(|(i, _)| &text[i + key.len()..]);
    values
        .map(|v| assert!(v.starts_with("true"), "{file}: contract {name} is false"))
        .count()
}

#[test]
fn committed_artifacts_regenerate_byte_for_byte() {
    assert_same("BENCH_pr3.json", &bench::obs_report().to_json(), None);

    let cases: [Case; 5] = [
        (
            kernels::kernel_report,
            &[("BENCH_pr4.json", Some("\n\"timings\": "))],
        ),
        (
            tune::tune_report,
            &[("TUNE_pr7.table", None), ("BENCH_pr7.json", None)],
        ),
        (serve::serve_report, &[("BENCH_pr8.json", None)]),
        (
            codec::codec_report,
            &[("TUNE_pr9.table", None), ("BENCH_pr9.json", None)],
        ),
        (
            pipeline::pipeline_report,
            &[("BENCH_pr10.json", Some("\n  \"real_timing\": "))],
        ),
    ];
    for (report, files) in cases {
        let report = report();
        assert_contracts(files[0].0, &report, &[pipeline::WALL_CLOCK_FLAG]);
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

    // The full comm run is too big for a test: run the fast one twice
    // (its wire and allocation sections are the full run's), and read the
    // full-size contracts off the committed file.
    let (a, b) = (comm::comm_report(true), comm::comm_report(true));
    assert_contracts("comm (fast)", &a, &[]);
    assert_eq!(a.counters, b.counters, "comm: two fast runs differ");
    assert_same("BENCH_pr5.json", &a.bodies[0], Some("\n  \"train\": "));
    for (name, _) in &a.contracts {
        flags_true("BENCH_pr5.json", name);
    }
    assert_eq!(flags_true("BENCH_pr5.json", comm::FULL_SIZE_FLAG), 1);
}

#[test]
fn analytic_experiments_regenerate_byte_for_byte() {
    // What `experiments` prints: each report, then an empty line.
    let fresh: String = ANALYTIC.iter().map(|id| bench::run(id) + "\n").collect();
    assert_same("EXPERIMENTS_analytic.txt", &fresh, None);
}
