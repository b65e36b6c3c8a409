//! `msa-lint`: a dependency-free source scanner enforcing workspace
//! invariants that rustc/clippy cannot express (or that we do not want to
//! gate on a nightly toolchain). Nine rules:
//!
//! | rule              | scope                     | invariant |
//! |-------------------|---------------------------|-----------|
//! | `unwrap`          | every crate               | no `.unwrap()` / `.expect(` in non-test library code |
//! | `thread-spawn`    | all but `msa-net`, `bench`, `msa-race` | no `std::thread::spawn`; concurrency goes through the comm/runtime layers |
//! | `float-eq`        | `ml`, `nn`, `tensor`      | no `==` / `!=` against float literals; numeric code compares with tolerances |
//! | `pub-event-field` | `msa-core/src/event.rs`   | event structs keep fields private so invariants hold at construction |
//! | `print`           | every crate               | no `println!`/`eprintln!` in non-test library code; observability goes through `msa-obs` recorders. CLI binaries justify each print with an allow |
//! | `alloc-in-kernel` | `tensor/src/{matmul,conv,codec,rng}.rs`, `nn/src/{conv,activation,norm,dense,optim,pool}.rs`, `msa-net/src/collectives.rs`, `distrib/src/compress.rs`, `data/src/stream.rs` | no heap allocation (`Vec::new`, `Vec::with_capacity`, `vec![`, `.to_vec()`) inside a loop body; hot kernels go through reusable buffers (`tensor::scratch` frames, compressor/stream slabs, transport buffers lent by `send_with`/`recv_with`) |
//! | `ordering-audit`  | everywhere but the audited sync cores (`shims/rayon/src/pool.rs`, `msa-net/src/{barrier,thread_comm,stats}.rs`) and `msa-race` itself | no `Ordering::Relaxed` / `Ordering::AcqRel` in non-test code; weak orderings belong in the msa-race-audited sync cores, anywhere else each use justifies itself with an allow |
//! | `raw-sync`        | `shims/rayon`, `shims/crossbeam`, `msa-net`, `data` | no direct `std::sync::{Mutex, Condvar}` / `std::sync::atomic` imports; concurrency primitives go through the `msa_sync` facade so `--cfg msa_check` builds can instrument them |
//! | `removed-api`     | every crate (tests included) | the retired entry points (`train_data_parallel`, `train_data_parallel_faulted`, `resume_from_snapshot`, `create_with_fault`, `run_with_fault`, `fault_opt`), the retired `_with` collective doubles (`ring_allreduce_with`, `recursive_doubling_allreduce_with`, `pipeline_allreduce_with`, `tree_reduce_with`, `bf16_allreduce_with`, `tuned_allreduce_with`) and the retired time converters (`ps_to_simtime`, `advance_ps`, `from_hours`, `as_hours`, `predicted_wait_ps`, `slo_ps`) must not reappear; each finding names its replacement |
//!
//! Findings print as `file:line: rule — message` and the binary exits
//! nonzero when any survive. A finding is suppressed by a same-line (or
//! directly preceding-line) comment
//!
//! ```text
//! // lint: allow(unwrap) -- mutex poisoning is converted to a panic upstream
//! ```
//!
//! The justification after `--` is mandatory: an allow without one does
//! not suppress anything and is itself reported (`lint-allow`).
//!
//! The scanner is a hand-rolled lexer, not a full parser: comments,
//! string/char literals (including raw strings) are scrubbed before any
//! rule runs, `#[cfg(test)]` / `#[test]` regions are excluded by brace
//! matching, and the float rule is the literal-adjacency heuristic (one
//! side of `==` is a float literal). That is deliberately conservative:
//! it can miss variable-vs-variable float compares, but it never needs
//! type information and has no false positives on integer code.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a given file. Derived from the crate name for
/// workspace walks; [`Profile::strict`] (everything on) for explicit
/// paths, which is what the fixture tests use.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub unwrap: bool,
    pub thread_spawn: bool,
    pub float_eq: bool,
    pub pub_event_field: bool,
    pub print: bool,
    pub alloc_in_kernel: bool,
    pub ordering_audit: bool,
    pub raw_sync: bool,
    pub removed_api: bool,
}

/// Entry points deleted when their replacements landed, each with what
/// to call instead. The `removed-api` rule keeps them from reappearing
/// anywhere, test code included.
#[rustfmt::skip]
const REMOVED_APIS: [(&str, &str); 20] = [
    ("train_data_parallel", "the `Trainer` builder"),
    ("train_data_parallel_faulted", "`Trainer::fault`"),
    ("resume_from_snapshot", "`Trainer::resume`"),
    ("create_with_fault", "`ThreadComm::create_with` + `CommOptions`"),
    ("run_with_fault", "`ThreadComm::run_with` + `CommOptions`"),
    ("fault_opt", "`Trainer::fault`"),
    ("ring_allreduce_with", "`ring_allreduce`"),
    ("recursive_doubling_allreduce_with", "`recursive_doubling_allreduce`"),
    ("pipeline_allreduce_with", "`pipeline_allreduce`"),
    ("tree_reduce_with", "`tree_reduce`"),
    ("bf16_allreduce_with", "`bf16_allreduce`"),
    ("tuned_allreduce_with", "`tuned_allreduce`"),
    ("ps_to_simtime", "`SimTime::from_ps`"),
    ("advance_ps", "`VirtualClock::advance`"),
    ("from_hours", "`SimTime::from_secs`"),
    ("as_hours", "`SimTime::as_secs`"),
    ("predicted_wait_ps", "`AdmissionPolicy::predicted_wait`"),
    ("slo_ps", "`AdmissionPolicy::slo`"),
    ("TunedAlgo", "`CollectiveAlgo`"),
    ("hierarchical_cost", "`CollectiveAlgo::Hierarchical { .. }.allreduce_time`"),
];

impl Profile {
    pub fn strict() -> Self {
        Profile {
            unwrap: true,
            thread_spawn: true,
            float_eq: true,
            pub_event_field: true,
            print: true,
            alloc_in_kernel: true,
            ordering_audit: true,
            raw_sync: true,
            removed_api: true,
        }
    }

    /// The per-crate rule matrix used when walking the workspace.
    pub fn for_crate(crate_name: &str, file: &Path) -> Self {
        let is_event_file = crate_name == "msa-core"
            && file.file_name().is_some_and(|n| n == "event.rs");
        // The training hot path: every allocation inside a loop here is a
        // per-step heap hit that the scratch-buffer API exists to remove.
        let is_kernel_file = match crate_name {
            // The GEMM and convolution kernels, the bf16 codec, and the
            // keystream behind every Dropout mask, whose bulk fill
            // writes into the caller's buffer.
            "tensor" => file
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| matches!(n, "matmul.rs" | "conv.rs" | "codec.rs" | "rng.rs")),
            // The elementwise layers and the optimiser run once per layer
            // per step over whole activations: their masks, `x̂` and input
            // copies are grow-only buffers on the layer. The pools run as
            // often, and allocate their outputs once per call, never per
            // image.
            "nn" => file.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                matches!(
                    n,
                    "conv.rs" | "activation.rs" | "norm.rs" | "dense.rs" | "optim.rs" | "pool.rs"
                )
            }),
            // The collectives are the gradient-exchange inner loop: a
            // per-round allocation there multiplies by rounds × steps.
            // Warm-up growth paths justify themselves with allows.
            "msa-net" => file.file_name().is_some_and(|n| n == "collectives.rs"),
            // The sparse wire codec runs once per bucket per step; its
            // selection/payload/gather slabs live on the compressor so
            // steady-state exchanges allocate nothing.
            "distrib" => file.file_name().is_some_and(|n| n == "compress.rs"),
            // Batch assembly runs once per training step; the stream's
            // slab pool and prefetch ring exist so steady-state epochs
            // gather into recycled buffers. Warm-up allocations justify
            // themselves with allows.
            "data" => file.file_name().is_some_and(|n| n == "stream.rs"),
            _ => false,
        };
        // The sync cores whose weak orderings the msa-race checker audits
        // (models in `msa_race::models`, real code under `--cfg
        // msa_check`). Relaxed/AcqRel are load-bearing there and reviewed
        // as a protocol; anywhere else each use justifies itself.
        let is_sync_core = crate_name == "msa-net"
            && file.file_name().is_some_and(|n| {
                n == "barrier.rs" || n == "thread_comm.rs" || n == "stats.rs"
            });
        Profile {
            unwrap: true,
            // msa-net owns the thread-backed communicator runtime; bench
            // drives it; msa-race's model threads are real OS threads by
            // design. Everyone else must go through those layers.
            thread_spawn: !matches!(crate_name, "msa-net" | "bench" | "msa-race"),
            float_eq: matches!(crate_name, "ml" | "nn" | "tensor"),
            pub_event_field: is_event_file,
            // Metrics and traces go through msa-obs recorders so runs stay
            // deterministic and machine-readable; stdout is for CLI
            // binaries only, and those justify each print with an allow.
            print: true,
            alloc_in_kernel: is_kernel_file,
            // msa-race names orderings as *data* (match arms in the
            // happens-before rules, knobs in the protocol models), so the
            // token scan cannot apply there.
            ordering_audit: !is_sync_core && crate_name != "msa-race",
            // msa-sync IS the facade; msa-race implements the instrumented
            // types over std. Everyone else in scope routes through them —
            // including data, whose prefetch ring must stay checkable
            // under `--cfg msa_check`.
            raw_sync: matches!(crate_name, "msa-net" | "data"),
            removed_api: true,
        }
    }

    /// The rule matrix for `shims/*`. Shims reproduce external crate
    /// APIs, so the repo style rules (unwrap/print/…) do not apply;
    /// only the concurrency rules do.
    pub fn for_shim(shim_name: &str, file: &Path) -> Self {
        // The pool's task protocol is the audited sync core on the shim
        // side (`msa_race::models::pool` + DESIGN.md §12).
        let is_sync_core =
            shim_name == "rayon" && file.file_name().is_some_and(|n| n == "pool.rs");
        Profile {
            unwrap: false,
            thread_spawn: false,
            float_eq: false,
            pub_event_field: false,
            print: false,
            alloc_in_kernel: false,
            ordering_audit: !is_sync_core,
            raw_sync: matches!(shim_name, "rayon" | "crossbeam"),
            removed_api: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Scrubbing: blank out comments and string/char literals, preserving the
// exact line structure so findings keep real line numbers.
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Returns the source with every comment, string literal, char literal and
/// raw string replaced by spaces (newlines kept). After this pass a brace
/// is a real brace and `.unwrap()` is a real call.
fn scrub(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte / plain strings. Only attempt when not inside an
        // identifier (`r` and `b` are common identifier starts).
        let at_ident_boundary = i == 0 || !is_ident_char(b[i - 1]);
        if at_ident_boundary && (c == 'r' || c == 'b' || c == '"') {
            let mut j = i;
            if b.get(j) == Some(&'b') {
                j += 1;
            }
            let mut hashes = 0usize;
            if b.get(j) == Some(&'r') {
                j += 1;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
            }
            if b.get(j) == Some(&'"') {
                let raw = hashes > 0 || b[i] == 'r' || (b[i] == 'b' && b.get(i + 1) == Some(&'r'));
                // Emit the prefix + opening quote as blanks.
                for &prefix_ch in &b[i..=j] {
                    blank(&mut out, prefix_ch);
                }
                i = j + 1;
                while i < b.len() {
                    if !raw && b[i] == '\\' {
                        blank(&mut out, b[i]);
                        if i + 1 < b.len() {
                            blank(&mut out, b[i + 1]);
                        }
                        i += 2;
                        continue;
                    }
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while seen < hashes && b.get(k) == Some(&'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            for &close_ch in &b[i..k] {
                                blank(&mut out, close_ch);
                            }
                            i = k;
                            break;
                        }
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Char literal vs lifetime: `'a'` / `'\n'` are literals; `'a` in
        // `&'a str` is a lifetime and must be left alone.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            let is_char_lit = match next {
                Some('\\') => true,
                Some(n) if is_ident_char(n) => b.get(i + 2) == Some(&'\''),
                Some(_) => b.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char_lit {
                blank(&mut out, b[i]);
                i += 1;
                if b.get(i) == Some(&'\\') {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                while i < b.len() && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < b.len() {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Test-region masking: lines inside `#[cfg(test)] mod … { … }` or
// `#[test] fn … { … }` are exempt from the unwrap rule.
// ---------------------------------------------------------------------------

/// Per-line flag: true when the line sits inside a test region. Works on
/// scrubbed text so braces are trustworthy.
fn test_line_mask(scrubbed: &str) -> Vec<bool> {
    let n_lines = scrubbed.lines().count().max(1);
    let mut mask = vec![false; n_lines];
    if scrubbed.is_empty() {
        return mask;
    }
    let bytes = scrubbed.as_bytes();
    let line_of = |pos: usize| bytes[..pos].iter().filter(|&&c| c == b'\n').count();

    let mut starts: Vec<usize> = Vec::new();
    for (pos, _) in scrubbed.match_indices("cfg(test)") {
        // Exclude `cfg(not(test))` — that marks *non*-test code.
        if pos >= 4 && &bytes[pos - 4..pos] == b"not(" {
            continue;
        }
        starts.push(pos);
    }
    starts.extend(scrubbed.match_indices("#[test]").map(|(p, _)| p));
    starts.sort_unstable();

    for start in starts {
        // The attribute gates the next item: mark from the attribute line
        // through the matching close of the item's first brace block.
        let Some(open_rel) = scrubbed[start..].find('{') else {
            continue;
        };
        let open = start + open_rel;
        let mut depth = 0usize;
        let mut close = scrubbed.len();
        for (off, ch) in scrubbed[open..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        let (a, b) = (line_of(start), line_of(close.min(scrubbed.len() - 1)));
        for line in mask.iter_mut().take(b + 1).skip(a) {
            *line = true;
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Loop-region masking: lines inside a `for`/`while`/`loop` body are the
// kernel hot path for the alloc-in-kernel rule.
// ---------------------------------------------------------------------------

/// Per-line flag: true when the line sits inside a `for`/`while`/`loop`
/// region (header line included — a `while fills_a_vec()` condition runs
/// per iteration too). Works on scrubbed text so keywords and braces are
/// trustworthy. `impl Display for Foo` and `for<'a>` bounds are not
/// loops: a `for` only counts when a whole-word `in` appears between the
/// keyword and the body's opening brace, and a bare `loop` only when
/// nothing but whitespace does.
fn loop_line_mask(scrubbed: &str) -> Vec<bool> {
    let n_lines = scrubbed.lines().count().max(1);
    let mut mask = vec![false; n_lines];
    if scrubbed.is_empty() {
        return mask;
    }
    let bytes = scrubbed.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let line_of = |pos: usize| bytes[..pos].iter().filter(|&&c| c == b'\n').count();

    for kw in ["for", "while", "loop"] {
        for (pos, _) in scrubbed.match_indices(kw) {
            let before_ok = pos == 0 || !ident(bytes[pos - 1]);
            let after = pos + kw.len();
            let after_ok = bytes.get(after).is_none_or(|&c| !ident(c));
            if !before_ok || !after_ok {
                continue;
            }
            let Some(open_rel) = scrubbed[after..].find('{') else {
                continue;
            };
            let open = after + open_rel;
            let header = &scrubbed[after..open];
            let is_loop = match kw {
                "for" => header.split_whitespace().any(|t| t == "in"),
                "loop" => header.trim().is_empty(),
                _ => true,
            };
            if !is_loop {
                continue;
            }
            let mut depth = 0usize;
            let mut close = scrubbed.len();
            for (off, ch) in scrubbed[open..].char_indices() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            close = open + off;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let (a, b) = (line_of(pos), line_of(close.min(scrubbed.len() - 1)));
            for line in mask.iter_mut().take(b + 1).skip(a) {
                *line = true;
            }
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Allow-comments.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    justified: bool,
    line: usize,
}

/// Parses `// lint: allow(<rule>) -- <why>` comments from the *raw*
/// source (they live in comments, which the scrubber removes).
fn parse_allows(raw: &str) -> Vec<Allow> {
    const NEEDLE: &str = "lint: allow(";
    let mut allows = Vec::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(cpos) = line.find("//") else { continue };
        let comment = &line[cpos..];
        // Doc comments only *describe* the mechanism; a real allow is a
        // plain `//` comment.
        if comment.starts_with("///") || comment.starts_with("//!") {
            continue;
        }
        let Some(apos) = comment.find(NEEDLE) else {
            continue;
        };
        let rest = &comment[apos + NEEDLE.len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let tail = &rest[close + 1..];
        let justified = tail
            .split_once("--")
            .is_some_and(|(_, why)| !why.trim().is_empty());
        allows.push(Allow {
            rule,
            justified,
            line: idx,
        });
    }
    allows
}

/// An allow covers its own line and the line directly after it (so it can
/// sit at the end of the offending line or on its own line above).
/// Returns the index of the best matching allow (justified preferred).
fn allow_state(allows: &[Allow], line: usize, rule: &str) -> Option<(usize, bool)> {
    allows
        .iter()
        .enumerate()
        .filter(|(_, a)| a.rule == rule && (a.line == line || a.line + 1 == line))
        .map(|(i, a)| (i, a.justified))
        .max_by_key(|&(_, justified)| justified)
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

/// True when `tok` is a floating-point literal (`1.0`, `2.5e-3`, `1f32`…).
fn is_float_literal(tok: &str) -> bool {
    let mut t = tok.trim_end_matches('_');
    let suffixed = t.ends_with("f32") || t.ends_with("f64");
    if suffixed {
        t = &t[..t.len() - 3];
        t = t.trim_end_matches('_');
    }
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    if !t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
    {
        return false;
    }
    suffixed || t.contains('.') || t.contains('e') || t.contains('E')
}

/// Extracts the token ending just before byte `pos` in `line`. `+`/`-`
/// are included so exponent literals like `1.5e-3` come back whole; the
/// sign prefix is trimmed afterwards.
fn token_before(line: &str, pos: usize) -> &str {
    let bytes = line.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if is_ident_char(c) || matches!(c, '.' | '+' | '-') {
            start -= 1;
        } else {
            break;
        }
    }
    line[start..end].trim_start_matches(['-', '+'])
}

/// Extracts the token starting just after byte `pos` in `line`.
fn token_after(line: &str, pos: usize) -> &str {
    let bytes = line.as_bytes();
    let mut start = pos;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    // Allow a leading unary minus on the literal.
    let mut end = start;
    if end < bytes.len() && bytes[end] == b'-' {
        end += 1;
    }
    while end < bytes.len() {
        let c = bytes[end] as char;
        if is_ident_char(c) || c == '.' {
            end += 1;
        } else {
            break;
        }
    }
    line[start..end].trim_start_matches('-')
}

/// `pub-event-field`: reports `pub` (incl. `pub(crate)` etc.) fields
/// inside `struct` bodies. Runs over scrubbed text, byte-wise (anything
/// the rule matches on is ASCII after scrubbing).
fn pub_field_findings(scrubbed: &str, file: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let b = scrubbed.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let line_of = |pos: usize| b[..pos].iter().filter(|&&c| c == b'\n').count() + 1;

    let mut search = 0usize;
    while let Some(rel) = scrubbed
        .get(search..)
        .and_then(|tail| tail.find("struct"))
    {
        let kw = search + rel;
        search = kw + "struct".len();
        // Whole-word check.
        let before_ok = kw == 0 || !ident(b[kw - 1]);
        let after_ok = b.get(kw + "struct".len()).is_none_or(|&c| !ident(c));
        if !before_ok || !after_ok {
            continue;
        }
        // Find the start of the body: `{` (named), `(` (tuple) or `;` (unit).
        let mut i = kw + "struct".len();
        let (open, close_ch) = loop {
            match b.get(i) {
                Some(b'{') => break (i, b'}'),
                Some(b'(') => break (i, b')'),
                Some(b';') | None => break (usize::MAX, b' '),
                _ => i += 1,
            }
        };
        if open == usize::MAX {
            continue;
        }
        let open_ch = b[open];
        // Walk the body at depth 1 looking for `pub` tokens.
        let mut depth = 0usize;
        let mut j = open;
        while j < b.len() {
            let c = b[j];
            if c == open_ch {
                depth += 1;
            } else if c == close_ch {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && c == b'p' && b[j..].starts_with(b"pub") {
                let w_before = !ident(b[j - 1]);
                let w_after = b.get(j + 3).is_none_or(|&c| !ident(c));
                if w_before && w_after {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: line_of(j),
                        rule: "pub-event-field",
                        message: "event struct exposes a `pub` field; keep event fields \
                                  private and construct through the typed API"
                            .to_string(),
                    });
                    j += 3;
                    continue;
                }
            }
            j += 1;
        }
    }
    findings
}

/// Runs every enabled rule over one source file.
pub fn lint_source(file: &str, source: &str, profile: &Profile) -> Vec<Finding> {
    let scrubbed = scrub(source);
    let allows = parse_allows(source);
    let mask = test_line_mask(&scrubbed);
    let loop_mask = if profile.alloc_in_kernel {
        loop_line_mask(&scrubbed)
    } else {
        Vec::new()
    };
    let mut findings = Vec::new();
    let mut used_allows: Vec<usize> = Vec::new();

    let push = |findings: &mut Vec<Finding>,
                    used: &mut Vec<usize>,
                    line_idx: usize,
                    rule: &'static str,
                    message: String| {
        match allow_state(&allows, line_idx, rule) {
            Some((idx, true)) => {
                used.push(idx);
            }
            Some((_, false)) => {
                // Present but unjustified: report both the original finding
                // and the malformed allow.
                findings.push(Finding {
                    file: file.to_string(),
                    line: line_idx + 1,
                    rule,
                    message,
                });
                findings.push(Finding {
                    file: file.to_string(),
                    line: line_idx + 1,
                    rule: "lint-allow",
                    message: format!(
                        "`lint: allow({rule})` needs a ` -- <justification>` to take effect"
                    ),
                });
            }
            None => findings.push(Finding {
                file: file.to_string(),
                line: line_idx + 1,
                rule,
                message,
            }),
        }
    };

    for (idx, line) in scrubbed.lines().enumerate() {
        let in_test = mask.get(idx).copied().unwrap_or(false);

        if profile.unwrap && !in_test {
            if line.contains(".unwrap()") {
                push(
                    &mut findings,
                    &mut used_allows,
                    idx,
                    "unwrap",
                    "`.unwrap()` in non-test code; propagate the error or document the \
                     invariant with an allow"
                        .to_string(),
                );
            }
            if line.contains(".expect(") {
                push(
                    &mut findings,
                    &mut used_allows,
                    idx,
                    "unwrap",
                    "`.expect(…)` in non-test code; propagate the error or document the \
                     invariant with an allow"
                        .to_string(),
                );
            }
        }

        if profile.print && !in_test {
            for needle in ["println!", "print!", "eprintln!", "eprint!"] {
                for (pos, _) in line.match_indices(needle) {
                    // Ident-boundary guard: `eprintln!` contains `println!`
                    // and a user macro like `my_print!` must not fire.
                    let bounded = pos == 0
                        || !is_ident_char(line.as_bytes()[pos - 1] as char);
                    if bounded {
                        push(
                            &mut findings,
                            &mut used_allows,
                            idx,
                            "print",
                            format!(
                                "`{needle}` in non-test code; record through an \
                                 `msa_obs::Recorder` (or justify CLI output with an allow)"
                            ),
                        );
                    }
                }
            }
        }

        if profile.ordering_audit && !in_test {
            for needle in ["Ordering::Relaxed", "Ordering::AcqRel"] {
                for _ in line.match_indices(needle) {
                    push(
                        &mut findings,
                        &mut used_allows,
                        idx,
                        "ordering-audit",
                        format!(
                            "`{needle}` outside the msa-race-audited sync cores; use \
                             Acquire/Release (or SeqCst), move the protocol into an \
                             audited core, or justify the weak ordering with an allow"
                        ),
                    );
                }
            }
        }

        if profile.raw_sync && !in_test {
            // Direct path references: `std::sync::atomic::…`,
            // `std::sync::Mutex`, `std::sync::Condvar`.
            for needle in ["std::sync::atomic", "std::sync::Mutex", "std::sync::Condvar"] {
                for _ in line.match_indices(needle) {
                    push(
                        &mut findings,
                        &mut used_allows,
                        idx,
                        "raw-sync",
                        format!(
                            "`{needle}` bypasses the `msa_sync` facade; import from \
                             `msa_sync` so `--cfg msa_check` builds can instrument it"
                        ),
                    );
                }
            }
            // Grouped imports: `use std::sync::{…, Mutex, …}`.
            for (pos, _) in line.match_indices("std::sync::{") {
                let rest = &line[pos + "std::sync::{".len()..];
                let group = rest.split('}').next().unwrap_or(rest);
                let names_instrumented_type = group
                    .split(',')
                    .map(str::trim)
                    .any(|t| t == "Mutex" || t == "MutexGuard" || t == "Condvar");
                if names_instrumented_type {
                    push(
                        &mut findings,
                        &mut used_allows,
                        idx,
                        "raw-sync",
                        "`use std::sync::{…}` imports Mutex/Condvar past the `msa_sync` \
                         facade; import them from `msa_sync` instead"
                            .to_string(),
                    );
                }
            }
        }

        // Applies in test regions too: nothing may keep a retired name
        // compiling, not even a test.
        if profile.removed_api {
            for (needle, replacement) in REMOVED_APIS {
                for (pos, _) in line.match_indices(needle) {
                    // Ident-boundary guard on both sides, so
                    // `train_data_parallel` never fires inside
                    // `train_data_parallel_faulted` (the longer needle
                    // reports that one) and a name like
                    // `my_run_with_fault2` never fires at all.
                    let end = pos + needle.len();
                    let bounded = (pos == 0
                        || !is_ident_char(line.as_bytes()[pos - 1] as char))
                        && (end >= line.len()
                            || !is_ident_char(line.as_bytes()[end] as char));
                    if bounded {
                        push(
                            &mut findings,
                            &mut used_allows,
                            idx,
                            "removed-api",
                            format!("`{needle}` was removed; use {replacement} instead"),
                        );
                    }
                }
            }
        }

        if profile.thread_spawn && line.contains("thread::spawn") {
            push(
                &mut findings,
                &mut used_allows,
                idx,
                "thread-spawn",
                "`std::thread::spawn` outside msa-net/bench; route concurrency through \
                 the communicator runtime or rayon"
                    .to_string(),
            );
        }

        // Allocation in a test's loop is harmless; the rule exists to keep
        // the per-step training path off the heap.
        if profile.alloc_in_kernel && !in_test && loop_mask.get(idx).copied().unwrap_or(false) {
            for needle in ["Vec::new(", "Vec::with_capacity(", ".to_vec()", "vec!["] {
                for (pos, _) in line.match_indices(needle) {
                    // Ident-boundary guard so `MyVec::new` / `my_vec![`
                    // never fire. `.to_vec()` starts with the method dot,
                    // so its preceding char is legitimately an identifier.
                    let bounded = needle.starts_with('.')
                        || pos == 0
                        || !is_ident_char(line.as_bytes()[pos - 1] as char);
                    if bounded {
                        push(
                            &mut findings,
                            &mut used_allows,
                            idx,
                            "alloc-in-kernel",
                            format!(
                                "`{needle}…` allocates inside a kernel loop; hoist it \
                                 into a reusable buffer (a `tensor::scratch` frame, or \
                                 one lent by `send_with`/`recv_with`) or justify with an allow"
                            ),
                        );
                    }
                }
            }
        }

        // Exact float asserts against known constants are fine in tests;
        // the rule targets library control flow.
        if profile.float_eq && line.is_ascii() && !in_test {
            for op in ["==", "!="] {
                for (pos, _) in line.match_indices(op) {
                    // Skip `=>`/`<=`/`>=` style neighbours: `==`/`!=` can
                    // only be preceded by a non-operator char in valid code,
                    // but `!=` matching inside `a !== b` is not valid Rust
                    // anyway, so positional checks are unnecessary.
                    let lhs = token_before(line, pos);
                    let rhs = token_after(line, pos + op.len());
                    if is_float_literal(lhs) || is_float_literal(rhs) {
                        push(
                            &mut findings,
                            &mut used_allows,
                            idx,
                            "float-eq",
                            format!(
                                "exact float comparison `{lhs} {op} {rhs}`; compare with a \
                                 tolerance or document exactness with an allow"
                            ),
                        );
                    }
                }
            }
        }
    }

    if profile.pub_event_field {
        for f in pub_field_findings(&scrubbed, file) {
            match allow_state(&allows, f.line - 1, f.rule) {
                Some((idx, true)) => used_allows.push(idx),
                _ => findings.push(f),
            }
        }
    }

    // Stale allows: a justified allow that suppressed nothing is dead
    // weight and usually means the offending code moved.
    for (i, a) in allows.iter().enumerate() {
        // Allows quoted inside test fixtures (string literals in test
        // regions) are not live suppressions; don't call them stale.
        if mask.get(a.line).copied().unwrap_or(false) {
            continue;
        }
        if a.justified && !used_allows.contains(&i) {
            findings.push(Finding {
                file: file.to_string(),
                line: a.line + 1,
                rule: "lint-allow",
                message: format!(
                    "stale `lint: allow({})` — no matching finding on this or the next line",
                    a.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Filesystem walking.
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn lint_file(path: &Path, root: Option<&Path>, profile: &Profile) -> io::Result<Vec<Finding>> {
    let source = fs::read_to_string(path)?;
    let display = root
        .and_then(|r| path.strip_prefix(r).ok())
        .unwrap_or(path)
        .display()
        .to_string();
    Ok(lint_source(&display, &source, profile))
}

/// Walks `crates/*/src/**.rs` and `shims/*/src/**.rs` under `root`
/// applying the per-crate (resp. per-shim) rule matrix. Findings come
/// back sorted by path then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (tree, shim) in [("crates", false), ("shims", true)] {
        let tree_dir = root.join(tree);
        let mut member_dirs: Vec<PathBuf> = fs::read_dir(&tree_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("src").is_dir())
            .collect();
        member_dirs.sort();

        for member_dir in member_dirs {
            let member_name = member_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let mut files = Vec::new();
            collect_rs_files(&member_dir.join("src"), &mut files)?;
            files.sort();
            for file in files {
                let profile = if shim {
                    Profile::for_shim(&member_name, &file)
                } else {
                    Profile::for_crate(&member_name, &file)
                };
                findings.extend(lint_file(&file, Some(root), &profile)?);
            }
        }
    }
    Ok(findings)
}

/// Lints explicit files or directories with the strict profile (every
/// rule on). This is what fixture tests and ad-hoc checks use.
pub fn lint_paths<'a>(paths: impl IntoIterator<Item = &'a Path>) -> io::Result<Vec<Finding>> {
    let strict = Profile::strict();
    let mut findings = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut files = Vec::new();
            collect_rs_files(path, &mut files)?;
            files.sort();
            for file in files {
                findings.extend(lint_file(&file, None, &strict)?);
            }
        } else {
            findings.extend(lint_file(path, None, &strict)?);
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Finding> {
        lint_source("t.rs", src, &Profile::strict())
    }

    fn rules(src: &str) -> Vec<&'static str> {
        strict(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_in_library_code_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let fs = strict(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unwrap");
        assert_eq!(fs[0].line, 2);
        assert_eq!(
            fs[0].to_string().split(" — ").next(),
            Some("t.rs:2: unwrap")
        );
    }

    #[test]
    fn expect_and_unwrap_or_are_distinguished() {
        assert_eq!(rules("fn f() { g().expect(\"boom\"); }\n"), vec!["unwrap"]);
        assert!(rules("fn f(x: Option<u32>) -> u32 { x.unwrap_or(7) }\n").is_empty());
        assert!(rules("fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n").is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_unwrap() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); }\n}\n";
        assert!(strict(src).is_empty());
        let src = "#[test]\nfn t() { x().unwrap(); }\n";
        assert!(strict(src).is_empty());
        // cfg(not(test)) is NOT a test region.
        let src = "#[cfg(not(test))]\nmod m {\n    fn f() { x().unwrap(); }\n}\n";
        assert_eq!(rules(src), vec!["unwrap"]);
    }

    #[test]
    fn comments_and_strings_are_scrubbed() {
        assert!(strict("// call .unwrap() later\nfn f() {}\n").is_empty());
        assert!(strict("fn f() -> &'static str { \".unwrap()\" }\n").is_empty());
        assert!(strict("fn f() -> &'static str { r#\".unwrap() == 1.0\"# }\n").is_empty());
        assert!(strict("/* thread::spawn */ fn f() {}\n").is_empty());
        // Lifetimes survive scrubbing without eating the rest of the file.
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }\n";
        assert_eq!(rules(src), vec!["unwrap"]);
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "fn f() { x.unwrap() } // lint: allow(unwrap) -- length checked above\n";
        assert!(strict(src).is_empty());
        // On the preceding line works too.
        let src = "// lint: allow(unwrap) -- length checked above\nfn f() { x.unwrap() }\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn allow_without_justification_does_not_suppress() {
        let src = "fn f() { x.unwrap() } // lint: allow(unwrap)\n";
        let mut rs = rules(src);
        rs.sort_unstable();
        assert_eq!(rs, vec!["lint-allow", "unwrap"]);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// lint: allow(unwrap) -- nothing here anymore\nfn f() {}\n";
        assert_eq!(rules(src), vec!["lint-allow"]);
    }

    #[test]
    fn thread_spawn_detected() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules(src), vec!["thread-spawn"]);
        let src = "use std::thread;\nfn f() { thread::spawn(|| {}); }\n";
        assert_eq!(rules(src), vec!["thread-spawn"]);
        // Scoped spawns are fine: they cannot leak past their region.
        assert!(strict("fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n").is_empty());
    }

    #[test]
    fn removed_api_names_detected() {
        let src = "fn f(cfg: &TrainConfig) { distrib::train_data_parallel(cfg); }\n";
        assert_eq!(rules(src), vec!["removed-api"]);
        // The longer retired name reports once, not once per prefix.
        let src = "fn f() { distrib::train_data_parallel_faulted(); }\n";
        assert_eq!(rules(src), vec!["removed-api"]);
        assert_eq!(
            rules("fn f() { ThreadComm::create_with_fault(4, plan); }\n"),
            vec!["removed-api"]
        );
        assert_eq!(
            rules("fn f() { comm.resume_from_snapshot(); }\n"),
            vec!["removed-api"]
        );
        // The retired `Option` setter, `_with` collective doubles and
        // time converters.
        for call in [
            "Trainer::new(cfg).fault_opt(None)",
            "collectives::ring_allreduce_with(c, buf, arena)",
            "collectives::recursive_doubling_allreduce_with(c, buf, arena)",
            "collectives::pipeline_allreduce_with(c, buf, arena)",
            "collectives::tree_reduce_with(c, buf, 0, arena)",
            "msa_net::bf16_allreduce_with(c, buf, arena)",
            "msa_net::tuned_allreduce_with(c, buf, arena, table)",
            "msa_obs::ps_to_simtime(ps)",
            "clock.advance_ps(ps)",
            "SimTime::from_hours(1.0)",
            "t.as_hours()",
            "msa_net::tune::TunedAlgo::Ring.run(c, buf)",
            "msa_net::hierarchical_cost(128, 4, 1e5, nvlink, edr)",
        ] {
            assert_eq!(rules(&format!("fn f() {{ {call}; }}\n")), vec!["removed-api"], "{call}");
        }
        // Ident boundaries: supersets of a retired name never fire.
        assert!(rules("fn my_run_with_fault2() {}\n").is_empty());
        assert!(rules("fn fault_options_route_through_comm_options() {}\n").is_empty());
        assert!(rules("fn f() { resume_from_snapshot_v2(); }\n").is_empty());
        // The builder replacements are the sanctioned surface.
        assert!(rules("fn f() { ThreadComm::run_with(4, &opts, g); }\n").is_empty());
    }

    #[test]
    fn removed_api_applies_in_test_regions() {
        let src = "#[test]\nfn t() { distrib::train_data_parallel(&cfg); }\n";
        assert_eq!(rules(src), vec!["removed-api"]);
    }

    #[test]
    fn float_eq_detected() {
        assert_eq!(rules("fn f(x: f64) -> bool { x == 0.0 }\n"), vec!["float-eq"]);
        assert_eq!(rules("fn f(x: f64) -> bool { 1.5e-3 != x }\n"), vec!["float-eq"]);
        assert_eq!(rules("fn f(x: f32) -> bool { x == 1f32 }\n"), vec!["float-eq"]);
        assert!(rules("fn f(x: f64) -> bool { x < 1.0 }\n").is_empty());
        assert!(rules("fn f(x: usize) -> bool { x == 0 }\n").is_empty());
        assert!(rules("fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-9 }\n").is_empty());
        // `=>` arms and integer compares never fire.
        assert!(rules("fn f(x: u8) -> u8 { match x { 0 => 1, _ => 2 } }\n").is_empty());
    }

    #[test]
    fn pub_struct_fields_detected() {
        let src = "pub struct Ev {\n    pub at: u64,\n    kind: u8,\n}\n";
        let fs = strict(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "pub-event-field");
        assert_eq!(fs[0].line, 2);
        // pub fn in an impl block is not a field.
        let src = "pub struct Ev { at: u64 }\nimpl Ev {\n    pub fn at(&self) -> u64 { self.at }\n}\n";
        assert!(strict(src).is_empty());
        // Tuple structs count too.
        assert_eq!(
            rules("pub struct Ev(pub u64);\n"),
            vec!["pub-event-field"]
        );
    }

    #[test]
    fn print_in_library_code_is_reported() {
        let src = "fn f() {\n    println!(\"hi\");\n}\n";
        let fs = strict(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "print");
        assert_eq!(fs[0].line, 2);
        assert_eq!(rules("fn f() { eprint!(\"x\"); }\n"), vec!["print"]);
        // eprintln! is one finding, not two (the embedded `println!` is
        // preceded by an ident char).
        assert_eq!(rules("fn f() { eprintln!(\"x\"); }\n"), vec!["print"]);
    }

    #[test]
    fn print_lookalikes_and_test_code_are_exempt() {
        // User macros and write!-family macros are not prints.
        assert!(strict("fn f() { my_println!(\"x\"); }\n").is_empty());
        assert!(strict("fn f(w: &mut W) { writeln!(w, \"x\").ok(); }\n").is_empty());
        // Prints in test regions are debugging aids, not observability.
        assert!(strict("#[test]\nfn t() { println!(\"dbg\"); }\n").is_empty());
        // A justified allow lets CLI binaries print.
        let src = "fn f() {\n    // lint: allow(print) -- CLI status output\n    println!(\"ok\");\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn ordering_audit_detected() {
        let src = "fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }\n";
        assert_eq!(rules(src), vec!["ordering-audit"]);
        let src = "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::AcqRel); }\n";
        assert_eq!(rules(src), vec!["ordering-audit"]);
        // Acquire/Release/SeqCst are not audited orderings.
        assert!(strict("fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Acquire) }\n").is_empty());
        assert!(strict("fn f(a: &AtomicUsize) { a.store(0, Ordering::SeqCst); }\n").is_empty());
        // Tests may use relaxed counters freely.
        let src = "#[test]\nfn t() { C.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(strict(src).is_empty());
        // A justified allow documents the invariant.
        let src = "// lint: allow(ordering-audit) -- pure counter, no data published\nfn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(strict(src).is_empty());
        // Two weak orderings on one line are two findings.
        let src = "fn f(a: &AtomicUsize) { a.store(a.load(Ordering::Relaxed), Ordering::Relaxed); }\n";
        assert_eq!(rules(src), vec!["ordering-audit", "ordering-audit"]);
    }

    #[test]
    fn raw_sync_detected() {
        assert_eq!(
            rules("use std::sync::atomic::{AtomicUsize, Ordering};\n"),
            vec!["raw-sync"]
        );
        assert_eq!(rules("fn f(m: &std::sync::Mutex<u8>) {}\n"), vec!["raw-sync"]);
        assert_eq!(
            rules("use std::sync::Condvar;\nfn f() {}\n"),
            vec!["raw-sync"]
        );
        assert_eq!(
            rules("use std::sync::{Arc, Condvar, Mutex};\n"),
            vec!["raw-sync"]
        );
        // Arc/Once/mpsc through std::sync are fine — only the types the
        // facade instruments are gated.
        assert!(strict("use std::sync::{Arc, OnceLock};\n").is_empty());
        assert!(strict("use std::sync::mpsc;\n").is_empty());
        // The facade itself is what code should write.
        assert!(strict("use msa_sync::{Condvar, Mutex};\n").is_empty());
        // Test code may reach for std::sync directly.
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn profile_matrix_matches_spec() {
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/comm.rs"));
        assert!(!p.thread_spawn);
        assert!(p.unwrap && !p.float_eq && !p.pub_event_field);
        assert!(p.print);
        // msa-net routes its concurrency through the msa_sync facade and
        // keeps weak orderings inside the audited sync cores.
        assert!(p.raw_sync && p.ordering_audit);
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/barrier.rs"));
        assert!(!p.ordering_audit && p.raw_sync);
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/thread_comm.rs"));
        assert!(!p.ordering_audit && p.raw_sync);
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/stats.rs"));
        assert!(!p.ordering_audit && p.raw_sync);
        // The checker crate names orderings as data and spawns real OS
        // threads; neither concurrency rule can apply to it.
        let p = Profile::for_crate("msa-race", Path::new("crates/msa-race/src/sched.rs"));
        assert!(!p.ordering_audit && !p.thread_spawn && !p.raw_sync);
        // The facade imports std::sync legitimately.
        let p = Profile::for_crate("msa-sync", Path::new("crates/msa-sync/src/lib.rs"));
        assert!(!p.raw_sync && p.ordering_audit);
        // Shims: only the concurrency rules, with the pool as the audited
        // core on that side.
        let p = Profile::for_shim("rayon", Path::new("shims/rayon/src/pool.rs"));
        assert!(!p.ordering_audit && p.raw_sync && !p.unwrap && !p.print);
        let p = Profile::for_shim("rayon", Path::new("shims/rayon/src/lib.rs"));
        assert!(p.ordering_audit && p.raw_sync);
        let p = Profile::for_shim("crossbeam", Path::new("shims/crossbeam/src/lib.rs"));
        assert!(p.ordering_audit && p.raw_sync);
        let p = Profile::for_crate("ml", Path::new("crates/ml/src/svm.rs"));
        assert!(p.float_eq && p.thread_spawn && p.print);
        assert!(!p.alloc_in_kernel);
        let p = Profile::for_crate("msa-core", Path::new("crates/msa-core/src/event.rs"));
        assert!(p.pub_event_field);
        let p = Profile::for_crate("msa-core", Path::new("crates/msa-core/src/hw.rs"));
        assert!(!p.pub_event_field && p.print);
        // The hot-kernel files get the allocation rule; the rest of their
        // crates do not.
        let p = Profile::for_crate("tensor", Path::new("crates/tensor/src/matmul.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("tensor", Path::new("crates/tensor/src/conv.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("tensor", Path::new("crates/tensor/src/codec.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("tensor", Path::new("crates/tensor/src/rng.rs"));
        assert!(p.alloc_in_kernel && p.unwrap && p.print && p.float_eq && p.ordering_audit);
        let p = Profile::for_crate("tensor", Path::new("crates/tensor/src/lib.rs"));
        assert!(!p.alloc_in_kernel);
        let p = Profile::for_crate("nn", Path::new("crates/nn/src/conv.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("nn", Path::new("crates/nn/src/gru.rs"));
        assert!(!p.alloc_in_kernel);
        // The collective schedules are the comm hot path; the rest of
        // msa-net (channel plumbing, warm-up pools) is not.
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/collectives.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/thread_comm.rs"));
        assert!(!p.alloc_in_kernel);
        // The sparse wire codec's per-step path is slab-backed; the rest
        // of distrib stays out of the allocation rule's scope.
        let p = Profile::for_crate("distrib", Path::new("crates/distrib/src/compress.rs"));
        assert!(p.alloc_in_kernel);
        let p = Profile::for_crate("distrib", Path::new("crates/distrib/src/fusion.rs"));
        assert!(!p.alloc_in_kernel);
        // The batch stream is the input hot path: alloc rule on, and its
        // prefetch ring must go through the msa_sync facade. The
        // generators stay out of both.
        let p = Profile::for_crate("data", Path::new("crates/data/src/stream.rs"));
        assert!(p.alloc_in_kernel && p.raw_sync);
        let p = Profile::for_crate("data", Path::new("crates/data/src/bigearth.rs"));
        assert!(!p.alloc_in_kernel && p.raw_sync);
        // Every crate bans the retired entry points; shims reproduce
        // external APIs and are out of scope.
        let p = Profile::for_crate("distrib", Path::new("crates/distrib/src/trainer.rs"));
        assert!(p.removed_api);
        let p = Profile::for_crate("msa-net", Path::new("crates/msa-net/src/thread_comm.rs"));
        assert!(p.removed_api);
        let p = Profile::for_shim("rayon", Path::new("shims/rayon/src/lib.rs"));
        assert!(!p.removed_api);
    }

    /// The layers that are not GEMMs are under the allocation rule; their
    /// neighbours and the shims are not.
    #[test]
    fn alloc_mask_covers_the_streaming_layers() {
        for file in [
            "activation.rs",
            "norm.rs",
            "dense.rs",
            "optim.rs",
            "pool.rs",
        ] {
            let p = Profile::for_crate("nn", &Path::new("crates/nn/src").join(file));
            assert!(p.alloc_in_kernel, "{file}");
        }
        let p = Profile::for_crate("nn", Path::new("crates/nn/src/layer.rs"));
        assert!(!p.alloc_in_kernel);
        let p = Profile::for_shim("rayon", Path::new("shims/rayon/src/lib.rs"));
        assert!(!p.alloc_in_kernel);
    }

    #[test]
    fn alloc_in_kernel_loops_detected() {
        // Every allocation form fires, but only inside a loop region.
        let src = "fn f(n: usize) -> Vec<f32> {\n    let mut out = vec![0.0f32; n];\n    for i in 0..n {\n        let t = vec![0.0f32; 4];\n        out[i] = t[0];\n    }\n    out\n}\n";
        let fs = strict(src);
        assert_eq!(fs.len(), 1);
        assert_eq!((fs[0].rule, fs[0].line), ("alloc-in-kernel", 4));
        let src = "fn f(xs: &[f32]) {\n    let mut i = 0;\n    while i < xs.len() {\n        let _ = xs.to_vec();\n        i += 1;\n    }\n}\n";
        assert_eq!(rules(src), vec!["alloc-in-kernel"]);
        let src = "fn f() {\n    loop {\n        let _: Vec<f32> = Vec::new();\n        let _: Vec<f32> = Vec::with_capacity(8);\n        break;\n    }\n}\n";
        assert_eq!(rules(src), vec!["alloc-in-kernel", "alloc-in-kernel"]);
    }

    #[test]
    fn alloc_outside_loops_and_non_loop_for_are_exempt() {
        // Function-scope allocation is the normal entry-point pattern.
        assert!(strict("fn f(n: usize) -> Vec<f32> {\n    vec![0.0f32; n]\n}\n").is_empty());
        // `impl Trait for Type` is not a loop region.
        let src = "struct S;\nimpl From<u8> for S {\n    fn from(_: u8) -> S {\n        let _: Vec<u8> = Vec::with_capacity(4);\n        S\n    }\n}\n";
        assert!(strict(src).is_empty());
        // HRTB `for<'a>` bounds are not loop regions either.
        let src = "fn f<F>(g: F) -> Vec<u8>\nwhere\n    F: for<'a> Fn(&'a u8) -> u8,\n{\n    let v = Vec::with_capacity(1);\n    v\n}\n";
        assert!(strict(src).is_empty());
        // Loops inside test regions are exempt.
        let src = "#[test]\nfn t() {\n    for _ in 0..3 {\n        let _ = vec![1u8];\n    }\n}\n";
        assert!(strict(src).is_empty());
        // Lookalike macros never fire.
        let src = "fn f() {\n    for _ in 0..3 {\n        my_vec![1u8];\n    }\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn alloc_in_kernel_allow_escape() {
        let src = "fn f(n: usize) {\n    for _ in 0..n {\n        // lint: allow(alloc-in-kernel) -- baseline reproduces the seed's allocation pattern\n        let _ = vec![0.0f32; n];\n    }\n}\n";
        assert!(strict(src).is_empty());
        // Unjustified allow reports both the finding and the bad allow.
        let src = "fn f(n: usize) {\n    for _ in 0..n {\n        // lint: allow(alloc-in-kernel)\n        let _ = vec![0.0f32; n];\n    }\n}\n";
        let mut rs = rules(src);
        rs.sort_unstable();
        assert_eq!(rs, vec!["alloc-in-kernel", "lint-allow"]);
    }
}
