//! Acceptance suite for the `msa-lint` binary: each banned pattern in a
//! fixture file must produce a finding (exit 1, `file:line: rule — msg`
//! on stdout), and the real workspace must lint clean (exit 0).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_msa-lint")
}

fn fixture_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Stale files from a previous run would pollute the directory walk.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    dir
}

fn run_on(paths: &[&Path]) -> Output {
    Command::new(lint_bin())
        .args(paths)
        .output()
        .expect("spawn msa-lint")
}

/// Writes `source` to a fixture file and returns msa-lint's findings on
/// it, asserting the exit status is 1 (findings present).
fn findings_for(name: &str, source: &str) -> String {
    let dir = fixture_dir(name);
    let file = dir.join("fixture.rs");
    std::fs::write(&file, source).expect("write fixture");
    let out = run_on(&[&file]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected findings for {name}; stdout:\n{stdout}"
    );
    stdout
}

#[test]
fn unwrap_in_library_code_is_flagged() {
    let stdout = findings_for(
        "unwrap",
        "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: unwrap"), "{stdout}");
}

#[test]
fn expect_in_library_code_is_flagged() {
    let stdout = findings_for(
        "expect",
        "pub fn f(v: Option<u8>) -> u8 {\n    v.expect(\"present\")\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: unwrap"), "{stdout}");
}

#[test]
fn thread_spawn_is_flagged() {
    let stdout = findings_for(
        "spawn",
        "pub fn f() {\n    std::thread::spawn(|| ());\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: thread-spawn"), "{stdout}");
}

#[test]
fn float_equality_is_flagged() {
    let stdout = findings_for(
        "floateq",
        "pub fn f(x: f32) -> bool {\n    x == 0.0\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: float-eq"), "{stdout}");
}

#[test]
fn pub_event_fields_are_flagged() {
    let stdout = findings_for(
        "pubfield",
        "pub struct StepEvent {\n    pub rank: usize,\n    when: f64,\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: pub-event-field"), "{stdout}");
    assert!(!stdout.contains("fixture.rs:3:"), "{stdout}");
}

#[test]
fn println_in_library_code_is_flagged() {
    let stdout = findings_for(
        "print",
        "pub fn f(n: usize) {\n    println!(\"{n} steps\");\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: print"), "{stdout}");
}

#[test]
fn alloc_in_kernel_loop_is_flagged() {
    let stdout = findings_for(
        "allockernel",
        concat!(
            "pub fn f(n: usize) -> f32 {\n",
            "    let mut acc = 0.0;\n",
            "    for i in 0..n {\n",
            "        let v = vec![1.0f32; 4];\n",
            "        acc += v[i % 4];\n",
            "    }\n",
            "    acc\n",
            "}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:4: alloc-in-kernel"), "{stdout}");
    // The function-scope `acc` binding on line 2 is not a finding.
    assert!(!stdout.contains("fixture.rs:2:"), "{stdout}");
}

#[test]
fn to_vec_in_collective_loop_is_flagged() {
    // The msa-net collectives profile bans per-round buffer clones — the
    // exact churn PR 5 removed from `recursive_doubling_allreduce`.
    let stdout = findings_for(
        "allocring",
        concat!(
            "pub fn exchange(buf: &mut [f32], rounds: usize) {\n",
            "    for _ in 0..rounds {\n",
            "        let staged = buf.to_vec();\n",
            "        buf.copy_from_slice(&staged);\n",
            "    }\n",
            "}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:3: alloc-in-kernel"), "{stdout}");
}

#[test]
fn justified_warmup_alloc_in_loop_is_clean() {
    // Warm-up growth paths (arena/pool sizing) may allocate inside a loop
    // when the justification says why it is not steady-state.
    let dir = fixture_dir("allocwarm");
    let file = dir.join("fixture.rs");
    std::fs::write(
        &file,
        concat!(
            "pub fn warm_up(pool: &mut Vec<Vec<f32>>, n: usize, len: usize) {\n",
            "    for _ in 0..n {\n",
            "        // lint: allow(alloc-in-kernel) -- one-time pool warm-up, not the steady-state path\n",
            "        pool.push(vec![0.0f32; len]);\n",
            "    }\n",
            "}\n",
        ),
    )
    .expect("write fixture");
    let out = run_on(&[&file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "unexpected findings:\n{stdout}");
}

#[test]
fn relaxed_ordering_is_flagged() {
    let stdout = findings_for(
        "ordrelaxed",
        concat!(
            "use msa_sync::atomic::{AtomicUsize, Ordering};\n",
            "pub fn f(a: &AtomicUsize) -> usize {\n",
            "    a.load(Ordering::Relaxed)\n",
            "}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:3: ordering-audit"), "{stdout}");
}

#[test]
fn acqrel_ordering_is_flagged() {
    let stdout = findings_for(
        "ordacqrel",
        concat!(
            "use msa_sync::atomic::{AtomicUsize, Ordering};\n",
            "pub fn f(a: &AtomicUsize) -> usize {\n",
            "    a.fetch_add(1, Ordering::AcqRel)\n",
            "}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:3: ordering-audit"), "{stdout}");
}

#[test]
fn justified_weak_ordering_is_clean() {
    let dir = fixture_dir("ordallow");
    let file = dir.join("fixture.rs");
    std::fs::write(
        &file,
        concat!(
            "use msa_sync::atomic::{AtomicU64, Ordering};\n",
            "pub fn bump(c: &AtomicU64) {\n",
            "    // lint: allow(ordering-audit) -- commutative stats counter, no data published\n",
            "    c.fetch_add(1, Ordering::Relaxed);\n",
            "}\n",
        ),
    )
    .expect("write fixture");
    let out = run_on(&[&file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "unexpected findings:\n{stdout}");
}

#[test]
fn raw_sync_import_is_flagged() {
    let stdout = findings_for(
        "rawsync",
        concat!(
            "use std::sync::atomic::{AtomicUsize, Ordering};\n",
            "use std::sync::{Arc, Condvar, Mutex};\n",
            "pub fn f() {}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:1: raw-sync"), "{stdout}");
    assert!(stdout.contains("fixture.rs:2: raw-sync"), "{stdout}");
}

#[test]
fn facade_imports_are_clean() {
    let dir = fixture_dir("facade");
    let file = dir.join("fixture.rs");
    std::fs::write(
        &file,
        concat!(
            "use msa_sync::atomic::{AtomicUsize, Ordering};\n",
            "use msa_sync::{Arc, Condvar, Mutex};\n",
            "use std::sync::{Once, OnceLock};\n",
            "pub fn f(a: &AtomicUsize) -> usize {\n",
            "    a.load(Ordering::Acquire)\n",
            "}\n",
        ),
    )
    .expect("write fixture");
    let out = run_on(&[&file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "unexpected findings:\n{stdout}");
}

#[test]
fn removed_api_call_is_flagged() {
    let stdout = findings_for(
        "removedapi",
        "pub fn f(cfg: &distrib::TrainConfig) {\n    distrib::train_data_parallel(cfg);\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: removed-api"), "{stdout}");
    // The finding names the replacement.
    let stdout = findings_for(
        "removedtime",
        "pub fn f(ps: u64) -> SimTime {\n    msa_obs::ps_to_simtime(ps)\n}\n",
    );
    let hits: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("removed-api"))
        .collect();
    assert_eq!(hits.len(), 1, "{stdout}");
    assert!(hits[0].contains("fixture.rs:2: removed-api"), "{stdout}");
    assert!(hits[0].contains("SimTime::from_ps"), "{stdout}");
}

#[test]
fn removed_api_is_flagged_even_in_tests() {
    // Unlike the style rules, test regions get no exemption: a test
    // calling a retired name would keep it compiling forever.
    let stdout = findings_for(
        "removedapitest",
        concat!(
            "#[test]\n",
            "fn t() {\n",
            "    let _ = ThreadComm::run_with_fault(4, plan, |c| c.rank());\n",
            "}\n",
        ),
    );
    assert!(stdout.contains("fixture.rs:3: removed-api"), "{stdout}");
}

#[test]
fn unjustified_allow_does_not_suppress() {
    let stdout = findings_for(
        "badallow",
        "pub fn f(v: Option<u8>) -> u8 {\n    // lint: allow(unwrap)\n    v.unwrap()\n}\n",
    );
    assert!(stdout.contains("fixture.rs:3: unwrap"), "{stdout}");
    assert!(stdout.contains("lint-allow"), "{stdout}");
}

#[test]
fn one_fixture_per_banned_pattern_all_reported_together() {
    let dir = fixture_dir("all");
    let cases = [
        ("unwrap.rs", "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n", "unwrap"),
        ("spawn.rs", "pub fn f() { std::thread::spawn(|| ()); }\n", "thread-spawn"),
        ("floateq.rs", "pub fn f(x: f64) -> bool { x != 1.0 }\n", "float-eq"),
        (
            "event.rs",
            "pub struct TickEvent {\n    pub t: f64,\n}\n",
            "pub-event-field",
        ),
        (
            "print.rs",
            "pub fn f() { eprintln!(\"progress\"); }\n",
            "print",
        ),
        (
            "alloc.rs",
            "pub fn f(n: usize) { for _ in 0..n { let _ = vec![0u8; n]; } }\n",
            "alloc-in-kernel",
        ),
        (
            "removed.rs",
            "pub fn f(c: &mut Comm) { c.resume_from_snapshot(); }\n",
            "removed-api",
        ),
    ];
    for (name, source, _) in &cases {
        std::fs::write(dir.join(name), source).expect("write fixture");
    }
    let out = run_on(&[&dir]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    for (name, _, rule) in &cases {
        assert!(
            stdout.lines().any(|l| l.contains(name) && l.contains(rule)),
            "missing {rule} finding for {name}:\n{stdout}"
        );
    }
}

#[test]
fn test_code_and_justified_allows_are_clean() {
    let dir = fixture_dir("clean");
    let file = dir.join("fixture.rs");
    std::fs::write(
        &file,
        concat!(
            "pub fn f(v: Option<u8>) -> u8 {\n",
            "    // lint: allow(unwrap) -- fixture invariant documented here\n",
            "    v.unwrap()\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        assert_eq!(super::f(Some(3)), 3);\n",
            "        let x: Option<u8> = Some(1);\n",
            "        x.unwrap();\n",
            "    }\n",
            "}\n",
        ),
    )
    .expect("write fixture");
    let out = run_on(&[&file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "unexpected findings:\n{stdout}");
}

/// The acceptance criterion for the whole PR: run with no arguments from
/// the workspace root, the linter walks `crates/*/src` and reports the
/// workspace clean.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = Command::new(lint_bin())
        .current_dir(root)
        .output()
        .expect("spawn msa-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint findings:\n{stdout}"
    );
}
