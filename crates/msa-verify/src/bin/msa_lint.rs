//! Workspace lint gate: `cargo run -p msa-verify --bin msa-lint`.
//!
//! * No arguments: walks `crates/*/src/**.rs` of the enclosing workspace
//!   with the per-crate rule matrix (see `msa_verify::lint`), then runs
//!   the workspace-wide `unreached` pass.
//! * With path arguments: lints exactly those files/directories with the
//!   strict profile (every rule on) — used by the fixture tests.
//!
//! Exit code 0 when clean, 1 when findings exist, 2 on I/O failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workspace root: the current directory if it has a `crates/`
/// subdirectory (the common `cargo run` case), otherwise two levels up
/// from this crate's manifest.
fn workspace_root() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        if cwd.join("crates").is_dir() {
            return cwd;
        }
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| manifest.to_path_buf())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.is_empty() {
        let root = workspace_root();
        msa_verify::lint_workspace(&root)
    } else {
        msa_verify::lint_paths(args.iter().map(Path::new))
    };
    match result {
        Ok(findings) if findings.is_empty() => {
            // lint: allow(print) -- CLI status on stderr
            eprintln!("msa-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                // lint: allow(print) -- CLI finding report on stdout
                println!("{f}");
            }
            // lint: allow(print) -- CLI status on stderr
            eprintln!("msa-lint: {} finding(s)", findings.len());
            ExitCode::from(1)
        }
        Err(e) => {
            // lint: allow(print) -- CLI diagnostic on stderr
            eprintln!("msa-lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}
