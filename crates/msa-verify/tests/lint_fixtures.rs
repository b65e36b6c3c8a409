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
fn raw_scoped_threads_are_flagged() {
    let stdout = findings_for(
        "rawscope",
        "pub fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n}\n",
    );
    assert!(stdout.contains("fixture.rs:2: raw-sync"), "{stdout}");
    assert!(!stdout.contains("thread-spawn"), "{stdout}");
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
    // A retired type name is found too, and names its replacement.
    let stdout = findings_for("removedalgo", "pub fn f(\n    a: msa_net::TunedAlgo,\n) {}\n");
    let hit = "fixture.rs:2: removed-api — `TunedAlgo` was removed; use `CollectiveAlgo` instead";
    assert!(stdout.contains(hit), "{stdout}");
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
fn host_math_calls_are_flagged() {
    let stdout = findings_for(
        "hostmath",
        concat!(
            "pub fn f(x: f32) -> f32 {\n",
            "    x.tanh() + (-x).exp()\n",
            "}\n",
            "pub fn g(v: &mut [f32]) {\n",
            "    v.iter_mut().for_each(|x| *x = f32::exp(*x));\n",
            "    let _ = v.iter().map(|&x| f32::tanh(x));\n",
            "    let _ = v.iter().map(|&x| f32::exp2(x) + x.exp_m1());\n",
            "}\n",
        ),
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| l.contains("host-math")).collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    for (line, needle) in [
        (2, ".tanh()"),
        (2, ".exp()"),
        (5, "f32::exp"),
        (6, "f32::tanh"),
    ] {
        let at = format!("fixture.rs:{line}:");
        assert!(
            lines.iter().any(|l| l.contains(&at) && l.contains(needle)),
            "missing {needle} on line {line}:\n{stdout}"
        );
    }
}

/// In the workspace walk the rule covers `tensor`, `nn` and `data` outside
/// test code, and `tensor/src/math.rs` is the libm it points to.
const HOST_EXP: &str = "pub fn exp(x: f32) -> f32 {\n    x.exp()\n}\n";

#[test]
fn host_math_scope_exempts_the_in_tree_libm_tests_and_other_crates() {
    let (code, stdout) = lint_tree(
        "hostmath_scope",
        &[
            ("crates/tensor/src/lib.rs", "pub mod math;\n"),
            ("crates/tensor/src/math.rs", HOST_EXP),
            (
                "crates/nn/src/lib.rs",
                concat!(
                    "pub fn act(x: f32) -> f32 {\n",
                    "    tensor::math::exp(x) + x.tanh()\n",
                    "}\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    #[test]\n",
                    "    fn oracle() {\n",
                    "        assert!(super::act(0.5) > 0.5f32.tanh());\n",
                    "    }\n",
                    "}\n",
                ),
            ),
            ("crates/ml/src/lib.rs", HOST_EXP),
        ],
    );
    assert_eq!(code, Some(1), "{stdout}");
    let found: Vec<&str> = stdout
        .lines()
        .map(|l| l.split(" — ").next().unwrap_or(l))
        .collect();
    assert_eq!(found, ["crates/nn/src/lib.rs:2: host-math"], "{stdout}");
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
        ("hostmath.rs", "pub fn f(x: f32) -> f32 { x.tanh() }\n", "host-math"),
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

// --- unreached: module files that only tests name -------------------------

/// A two-file crate `geo`: `lib.rs` declares and re-exports the module
/// `survey`, which defines one type and one top-level fn.
const GEO_LIB: &str = "pub mod survey;\npub use survey::{measure, Survey};\n";
const GEO_SURVEY: &str = concat!(
    "pub struct Survey;\n",
    "pub fn measure() -> u32 {\n",
    "    1\n",
    "}\n",
    "#[cfg(test)]\n",
    "mod tests {\n",
    "    #[test]\n",
    "    fn t() {\n",
    "        assert_eq!(super::measure(), 1);\n",
    "    }\n",
    "}\n",
);

/// Writes `files` (`(path under the root, source)`) as a workspace under a
/// fresh fixture directory and runs msa-lint there with no arguments:
/// `(exit code, stdout)`.
fn lint_tree(name: &str, files: &[(&str, &str)]) -> (Option<i32>, String) {
    let root = fixture_dir(name);
    std::fs::create_dir_all(root.join("shims")).expect("create shims dir");
    for (rel, source) in files {
        let path = root.join(rel);
        let dir = path.parent().expect("fixture file has a parent");
        std::fs::create_dir_all(dir).expect("create fixture dir");
        std::fs::write(&path, source).expect("write fixture");
    }
    let out = Command::new(lint_bin())
        .current_dir(&root)
        .output()
        .expect("spawn msa-lint");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn assert_unreached(name: &str, files: &[(&str, &str)]) {
    let (code, stdout) = lint_tree(name, files);
    assert_eq!(code, Some(1), "{name}: expected findings:\n{stdout}");
    assert!(
        stdout.contains("crates/geo/src/survey.rs:1: unreached — module `geo::survey`"),
        "{name}: survey not flagged:\n{stdout}"
    );
}

fn assert_tree_clean(name: &str, files: &[(&str, &str)]) {
    let (code, stdout) = lint_tree(name, files);
    assert_eq!(code, Some(0), "{name}: unexpected findings:\n{stdout}");
}

#[test]
fn unreached_module_named_only_by_tests_is_flagged() {
    // An integration test of the crate and one of the workspace.
    assert_unreached(
        "unreached_tests_dir",
        &[
            ("crates/geo/src/lib.rs", GEO_LIB),
            ("crates/geo/src/survey.rs", GEO_SURVEY),
            (
                "crates/geo/tests/survey.rs",
                "use geo::survey::measure;\n#[test]\nfn t() {\n    assert_eq!(measure(), 1);\n}\n",
            ),
            (
                "tests/it.rs",
                "#[test]\nfn t() {\n    let _ = geo::Survey;\n}\n",
            ),
        ],
    );
    // Another file's `#[cfg(test)]` region, besides the module's own.
    let lib = concat!(
        "pub mod survey;\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    use crate::survey::{measure, Survey};\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        let _ = Survey;\n",
        "        assert_eq!(measure(), 1);\n",
        "    }\n",
        "}\n",
    );
    assert_unreached(
        "unreached_cfg_test",
        &[("crates/geo/src/lib.rs", lib), ("crates/geo/src/survey.rs", GEO_SURVEY)],
    );
}

#[test]
fn unreached_module_named_only_by_a_pub_use_is_flagged() {
    let lib = "pub mod survey;\npub use survey::{\n    measure,\n    Survey,\n};\n";
    assert_unreached(
        "unreached_pub_use",
        &[("crates/geo/src/lib.rs", lib), ("crates/geo/src/survey.rs", GEO_SURVEY)],
    );
}

#[test]
fn unreached_module_named_only_in_comments_strings_or_lookalikes_is_flagged() {
    // A comment, a string, a method of the same name and another fn's
    // definition of the same name name nothing.
    let app = concat!(
        "// geo::survey::measure() is the reference.\n",
        "pub fn label() -> &'static str {\n",
        "    \"geo::Survey\"\n",
        "}\n",
        "pub fn measure() -> u32 {\n",
        "    2\n",
        "}\n",
        "pub fn probe(v: &[u32]) -> usize {\n",
        "    v.iter().measure()\n",
        "}\n",
    );
    assert_unreached(
        "unreached_lookalikes",
        &[
            ("crates/geo/src/lib.rs", GEO_LIB),
            ("crates/geo/src/survey.rs", GEO_SURVEY),
            ("crates/app/src/lib.rs", app),
        ],
    );
}

#[test]
fn module_reached_by_path_type_or_imported_fn_is_clean() {
    let base = [
        ("crates/geo/src/lib.rs", GEO_LIB),
        ("crates/geo/src/survey.rs", GEO_SURVEY),
    ];
    let reachers: [(&str, &str); 3] = [
        // A path from another crate's library code.
        (
            "crates/app/src/lib.rs",
            "pub fn run() -> u32 {\n    geo::survey::measure()\n}\n",
        ),
        // A type name from another crate's library code.
        (
            "crates/app/src/lib.rs",
            "use geo::Survey;\npub fn make() -> Survey {\n    Survey\n}\n",
        ),
        // An imported top-level fn from an example.
        (
            "examples/demo.rs",
            "use geo::measure;\nfn main() {\n    let _ = measure();\n}\n",
        ),
    ];
    for (i, reacher) in reachers.into_iter().enumerate() {
        let mut files = base.to_vec();
        files.push(reacher);
        assert_tree_clean(&format!("reached_{i}"), &files);
    }
}

#[test]
fn justified_unreached_allow_suppresses_and_a_stale_one_is_reported() {
    let allowed = format!("// lint: allow(unreached) -- kept for the next experiment\n{GEO_SURVEY}");
    assert_tree_clean(
        "unreached_allowed",
        &[("crates/geo/src/lib.rs", GEO_LIB), ("crates/geo/src/survey.rs", &allowed)],
    );
    let (code, stdout) = lint_tree(
        "unreached_stale_allow",
        &[
            ("crates/geo/src/lib.rs", GEO_LIB),
            ("crates/geo/src/survey.rs", &allowed),
            ("examples/demo.rs", "fn main() {\n    let _ = geo::measure();\n}\n"),
        ],
    );
    assert_eq!(code, Some(1), "stale allow must be reported:\n{stdout}");
    assert!(
        stdout.contains("crates/geo/src/survey.rs:1: lint-allow — stale `lint: allow(unreached)`"),
        "{stdout}"
    );
    assert!(!stdout.contains(": unreached"), "{stdout}");
}

/// A module with no `pub` item: only a `<module>::` path can reach it,
/// and only one whose head resolves to its crate.
#[test]
fn module_paths_resolve_against_the_modules_crate() {
    let lib = "pub mod channel;\n";
    let channel = "fn hidden() -> u32 {\n    1\n}\n";
    let flagged = "crates/geo/src/channel.rs:1: unreached — module `geo::channel`";
    // Another crate's module of the same name reaches nothing.
    let (code, stdout) = lint_tree(
        "unreached_same_name_elsewhere",
        &[
            ("crates/geo/src/lib.rs", lib),
            ("crates/geo/src/channel.rs", channel),
            (
                "crates/app/src/lib.rs",
                "use crossbeam::channel::{unbounded, Receiver};\npub fn run() {\n    let _ = crossbeam::channel::bounded(1);\n}\n",
            ),
        ],
    );
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains(flagged), "{stdout}");
    // The crate's own name, `crate::`, `super::` and a bare path inside
    // the crate all resolve to it.
    let reachers = [
        ("crates/app/src/lib.rs", "pub fn run() {\n    geo::channel::go();\n}\n"),
        ("crates/app/src/lib.rs", "use geo::{channel::go, Other};\npub fn run() {}\n"),
        ("crates/geo/src/lib.rs", "pub mod channel;\npub fn run() {\n    crate::channel::go();\n}\n"),
        ("crates/geo/src/lib.rs", "pub mod channel;\npub fn run() {\n    channel::go();\n}\n"),
    ];
    for (i, reacher) in reachers.into_iter().enumerate() {
        let mut files = vec![("crates/geo/src/lib.rs", lib), ("crates/geo/src/channel.rs", channel)];
        files.retain(|(path, _)| *path != reacher.0);
        files.push(reacher);
        assert_tree_clean(&format!("resolved_{i}"), &files);
    }
}

/// A module of impls is reached through the type it extends; another
/// crate's `pub use` of a module (a facade) reaches it.
#[test]
fn impl_modules_and_facade_re_exports_are_reached() {
    assert_tree_clean(
        "reached_impl",
        &[
            ("crates/geo/src/lib.rs", "pub mod ops;\npub struct Grid;\n"),
            ("crates/geo/src/ops.rs", "impl<T: Into<u8>> From<T> for crate::Grid {\n    fn from(_: T) -> Self {\n        crate::Grid\n    }\n}\n"),
            ("crates/app/src/lib.rs", "pub fn make() -> geo::Grid {\n    geo::Grid::from(1u8)\n}\n"),
        ],
    );
    assert_tree_clean(
        "reached_facade",
        &[
            ("crates/geo/src/lib.rs", "pub mod atomic;\n"),
            ("crates/geo/src/atomic.rs", "fn hidden() {}\n"),
            ("crates/facade/src/lib.rs", "pub use geo::atomic::*;\n"),
        ],
    );
}

/// The shape this rule was written for: a flow simulator that the crate
/// root declares and re-exports and that only an integration test calls.
#[test]
fn module_called_only_by_an_integration_test_fires() {
    let lib = concat!(
        "pub mod collectives;\n",
        "pub mod fabric;\n",
        "pub use fabric::{simulate as simulate_fabric, FatTree, Flow};\n",
    );
    let fabric = concat!(
        "pub struct FatTree;\n",
        "pub struct Flow;\n",
        "pub fn simulate(_tree: &FatTree, flows: &[Flow]) -> usize {\n",
        "    flows.len()\n",
        "}\n",
    );
    let collectives = "pub fn ring() -> usize {\n    0\n}\n";
    let (code, stdout) = lint_tree(
        "unreached_parent_shape",
        &[
            ("crates/net/src/lib.rs", lib),
            ("crates/net/src/fabric.rs", fabric),
            ("crates/net/src/collectives.rs", collectives),
            ("crates/bench/src/bin/experiments.rs", "fn main() {\n    let _ = net::collectives::ring();\n}\n"),
            (
                "tests/msa_infrastructure.rs",
                "use net::fabric::{simulate as simulate_fabric, FatTree, Flow};\n#[test]\nfn t() {\n    assert_eq!(simulate_fabric(&FatTree, &[Flow]), 1);\n}\n",
            ),
        ],
    );
    assert_eq!(code, Some(1), "{stdout}");
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["crates/net/src/fabric.rs:1: unreached — module `net::fabric` is named only by tests: \
              no library code, binary, example or benchmark reaches it; delete it with its tests, \
              or justify it on its first line"],
    );
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
